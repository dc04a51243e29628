"""Spans around the calls into each fairjudge layer, installed from outside the program.

A ``Tracer`` replaces module and class attributes the commands call through
with wrappers that record (name, start, end, parent, attributes). Spans
stay in memory until ``export``. An attribute that no longer exists is
listed in ``missing`` and its layer reports zero calls, so a refactor that
deletes a helper does not break the traced run.

``layer_metrics`` turns the exported spans of one traced command into the
per-layer numbers named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import resource
import threading
import time

# (module, class or None, attribute, span name)
WRAPS = [
    ("fairjudge.cli", None, "load_corpus", "corpus.load_corpus"),
    ("fairjudge.cli", None, "read_predictions", "gateway.read_predictions"),
    ("fairjudge.cli", None, "summarize_model", "metrics.summarize_model"),
    ("fairjudge.cli", None, "pooled_bernoulli", "metrics.pooled_bernoulli"),
    ("fairjudge.cli", None, "emit_tables", "report.emit_tables"),
    ("fairjudge.cli", None, "emit_html", "report.emit_html"),
    ("fairjudge.cli", None, "write_predictions", "gateway.write_predictions"),
    ("fairjudge.metrics", None, "inconsistency", "metrics.inconsistency"),
    ("fairjudge.metrics", None, "bias_analysis", "metrics.bias_analysis"),
    ("fairjudge.metrics", None, "imbalance_analysis", "metrics.imbalance_analysis"),
    ("fairjudge.metrics", None, "_index_predictions", "metrics.index_predictions"),
    ("fairjudge.metrics", None, "_build_label_frame", "metrics.build_label_frame"),
    ("fairjudge.metrics", None, "bernoulli_test", "statcore.bernoulli_test"),
    ("fairjudge.statcore", None, "fe_regress", "statcore.fe_regress"),
    ("fairjudge.gateway", None, "build_work_items", "gateway.build_work_items"),
    ("fairjudge.gateway", None, "build_prompt", "gateway.build_prompt"),
    ("fairjudge.gateway", None, "parse_prediction", "gateway.parse_prediction"),
    ("fairjudge.gateway", "_Cache", "get", "gateway.cache_get"),
    ("fairjudge.gateway", "_Cache", "put", "gateway.cache_put"),
    ("fairjudge.gateway", "_Client", "_audit", "gateway.audit_append"),
    ("requests", "Session", "post", "gateway.http_post"),
]


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _attrs(name: str, args: tuple, result) -> dict | None:
    """Facts a span carries beyond its interval."""
    if name == "statcore.fe_regress":
        return {"rows": int(getattr(args[0], "n_obs", 0))} if args else None
    if name == "gateway.parse_prediction":
        return {"failed": result is None, "raw_empty": not (args and args[0])}
    if name == "gateway.cache_get":
        return {"hit": result is not None}
    if name == "gateway.read_predictions":
        return {"rss_mb": _rss_mb()}
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, attrs)
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name: str, fn, args: tuple, kwargs: dict):
        stack = self._stack()
        # Spans in pool threads hang off the command's root span.
        parent = stack[-1] if stack else self._root
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, {"error": type(exc).__name__}))
            raise
        end = time.perf_counter()
        stack.pop()
        self.spans.append((span_id, name, start, end, parent, _attrs(name, args, result)))
        return result

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return wrapper

    def install(self) -> None:
        for module_name, class_name, attr, name in WRAPS:
            where = f"{module_name}.{class_name + '.' if class_name else ''}{attr}"
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(where)
                continue
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            if owner is None or not hasattr(owner, attr):
                self.missing.append(where)
                continue
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def run_root(self, name: str, fn, *args):
        self._root = next(self._ids)
        self._stack().append(self._root)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack().pop()
            self.spans.append((self._root, name, start, end, None, None))

    def export(self) -> dict:
        return {"spans": self.spans, "missing": self.missing}


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def self_time(spans: list, names: set[str]) -> float:
    """Summed duration of the named spans minus what their direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span_id, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return sum(
        (end - start) - _covered(children.get(span_id, []), start, end)
        for span_id, name, start, end, _, _ in spans
        if name in names
    )


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer times (s), counts and ratios of one traced command."""
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def total_s(*names: str) -> float:
        return sum(s[3] - s[2] for n in names for s in by_name.get(n, []))

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def count(name: str, key: str) -> int:
        return sum(1 for s in by_name.get(name, []) if s[5] and s[5].get(key))

    fe = by_name.get("statcore.fe_regress", [])
    parses = by_name.get("gateway.parse_prediction", [])
    posts_ms = [(s[3] - s[2]) * 1000.0 for s in by_name.get("gateway.http_post", [])]
    hits, gets = count("gateway.cache_get", "hit"), calls("gateway.cache_get")
    reads = by_name.get("gateway.read_predictions", [])
    return {
        "cli.self_s": self_time(spans, {"cli.main"}),
        "corpus.load_corpus_s": total_s("corpus.load_corpus"),
        "gateway.read_predictions_s": total_s("gateway.read_predictions"),
        "gateway.read_predictions_rss_mb": max((s[5]["rss_mb"] for s in reads if s[5]), default=0.0),
        "metrics.summarize_model_s": total_s("metrics.summarize_model"),
        "metrics.inconsistency_s": total_s("metrics.inconsistency"),
        "metrics.index_predictions_s": total_s("metrics.index_predictions"),
        "metrics.index_predictions_calls": calls("metrics.index_predictions"),
        "metrics.build_label_frame_s": total_s("metrics.build_label_frame"),
        "metrics.build_label_frame_calls": calls("metrics.build_label_frame"),
        "metrics.label_analysis_self_s": self_time(
            spans, {"metrics.bias_analysis", "metrics.imbalance_analysis"}
        ),
        "statcore.fe_regress_s": total_s("statcore.fe_regress"),
        "statcore.fe_regress_calls": len(fe),
        "statcore.fe_regress_rows": sum(s[5]["rows"] for s in fe if s[5] and "rows" in s[5]),
        "statcore.fe_regress_unidentified": count("statcore.fe_regress", "error"),
        "statcore.bernoulli_test_s": total_s("statcore.bernoulli_test"),
        "statcore.bernoulli_test_calls": calls("statcore.bernoulli_test"),
        "report.emit_s": total_s("report.emit_tables", "report.emit_html"),
        "gateway.build_prompt_s": total_s("gateway.build_prompt"),
        "gateway.parse_prediction_s": total_s("gateway.parse_prediction"),
        "gateway.parse_failures": count("gateway.parse_prediction", "failed"),
        # A failed parse of a non-empty response is what triggers a strict re-ask.
        "gateway.strict_reasks": sum(
            1 for s in parses if s[5] and s[5]["failed"] and not s[5]["raw_empty"]
        ),
        "gateway.cache_get_s": total_s("gateway.cache_get"),
        "gateway.cache_hits": hits,
        "gateway.cache_misses": gets - hits,
        "gateway.cache_hit_ratio": hits / gets if gets else 0.0,
        "gateway.cache_put_s": total_s("gateway.cache_put"),
        "gateway.cache_puts": calls("gateway.cache_put"),
        "gateway.audit_append_s": total_s("gateway.audit_append"),
        "gateway.http_post_s": total_s("gateway.http_post"),
        "gateway.http_requests": len(posts_ms),
        "gateway.http_p50_ms": _percentile(posts_ms, 0.50),
        "gateway.http_p99_ms": _percentile(posts_ms, 0.99),
        "gateway.write_predictions_s": total_s("gateway.write_predictions"),
    }
