"""Audit benchmark: times real `fairjudge analyze` / `fairjudge generate` runs.

    python3 perfbench/run.py --workload analyze-large --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Inputs are built from --seed with
fairjudge's fixture functions; each command runs in a fresh process
(perfbench/child.py) that is repeated until --seconds have been measured.
Every run's outputs are checked. The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with
--trace 1. The line before it records provenance and the raw samples.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import http.client
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CONCURRENCY = 2
MODEL = "bench-model"
CHILD_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    kind: str  # "analyze" or "generate"
    docs: int
    labels: int
    values: int
    models: int = 1
    warm: bool = False


WORKLOADS = {
    "analyze-large": Workload("analyze", docs=1000, labels=20, values=3, models=4),
    "analyze-many-labels": Workload("analyze", docs=40, labels=40, values=4, models=12),
    "generate-cold": Workload("generate", docs=50, labels=10, values=3),
    "generate-warm": Workload("generate", docs=1000, labels=10, values=3, warm=True),
}

# Self-test sizes: every code path of the full workload, in about a second.
TINY = {
    "analyze-large": Workload("analyze", docs=30, labels=4, values=3, models=2),
    "analyze-many-labels": Workload("analyze", docs=30, labels=6, values=4, models=3),
    "generate-cold": Workload("generate", docs=12, labels=3, values=3),
    "generate-warm": Workload("generate", docs=12, labels=3, values=3, warm=True),
}


class Run:
    """Fresh child processes for one benchmark run, and what they measured."""

    def __init__(self, work: Path, env: dict) -> None:
        self.work = work
        self.env = env
        self.n = 0
        self.setup_samples: list[float] = []
        self.problems: list[str] = []

    def child(self, mode: str, cli_args: list[str]) -> dict:
        self.n += 1
        result_path = self.work / f"child-{self.n}.json"
        log_path = self.work / f"child-{self.n}.log"
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path), mode, "--", *cli_args]
        with log_path.open("wb") as log:
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=log, stderr=log)
        # The child's own rusage gives its peak RSS, not the harness's.
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = json.loads(result_path.read_text()) if result_path.exists() else {}
        out["returncode"] = proc.returncode
        out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        if "setup_s" in out:
            self.setup_samples.append(out["setup_s"])
        if proc.returncode != 0:
            tail = log_path.read_text(errors="replace").strip().splitlines()[-3:]
            print(f"child exited {proc.returncode}: {' | '.join(tail)}", file=sys.stderr)
        return out


def timed_rounds(seconds: float):
    """Yield round numbers while the next round, at the mean pace so far, ends within `seconds`."""
    start = time.perf_counter()
    n = 0
    while True:
        yield n
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / n > seconds:
            return


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


# --------------------------------------------------------------------------- analyze


def check_analyze(out_dir: Path, models: list[str], n_labels: int, bias_label: str) -> list[str]:
    """Planted facts only: one row per model, every label tested, bias label flagged."""
    problems = []
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
        findings = [json.loads(line) for line in (out_dir / "findings.jsonl").read_text().splitlines()]
    except (OSError, ValueError) as exc:
        return [f"unreadable analyze output: {exc}"]
    got = [s["model_name"] for s in summary["summaries"]]
    if got != models:
        problems.append(f"summary rows {got} != models {models}")
    for s in summary["summaries"]:
        if s["n_labels_tested"] != n_labels:
            problems.append(f"{s['model_name']}: n_labels_tested {s['n_labels_tested']} != {n_labels}")
    flagged = {
        f["model_name"]
        for f in findings
        if f["label_id"] == bias_label and f["metric"] == "bias" and f["significant"]
    }
    for model in models:
        if model not in flagged:
            problems.append(f"{model}: planted bias label {bias_label} not significant")
    return problems


def run_analyze(run: Run, wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    import inputs

    corpus_dir = run.work / "corpus"
    corpus = inputs.build_corpus(seed, wl.docs, wl.labels, wl.values, corpus_dir)
    paths, n_records = inputs.build_predictions(seed, corpus, wl.models, corpus_dir)
    pred_args = [a for p in paths for a in ("--predictions", str(p))]

    digests, samples = set(), []
    attempted = failed = 0
    for _ in timed_rounds(seconds):
        for mode in ("--plain", "--trace") if trace else ("--plain",):
            out_dir = run.work / f"out-{run.n + 1}"
            res = run.child(
                mode,
                ["analyze", "--corpus", str(corpus_dir), *pred_args,
                 "--timestamp", "perfbench", "--out", str(out_dir)],
            )
            problems = [f"analyze exited {res['returncode']}"] if res["returncode"] else []
            if not problems:
                problems = check_analyze(out_dir, inputs.model_names(wl.models), wl.labels,
                                         inputs.BIAS_LABEL)
                digests.add(_digest_dir(out_dir))
                res["report_bytes"] = sum(f.stat().st_size for f in out_dir.iterdir())
            attempted += 1
            failed += bool(problems)
            run.problems += problems
            res.update(mode=mode, records=n_records)
            samples.append(res)
            shutil.rmtree(out_dir, ignore_errors=True)
    if len(digests) > 1:
        run.problems.append(f"analyze outputs differ across runs of seed {seed}")
    return {"samples": samples, "attempted": attempted, "failed": failed, "requests": 0}


# --------------------------------------------------------------------------- generate


class StubProcess:
    """The benchmark's stub server, in its own process."""

    def __init__(self, work: Path, seed: int, wrong_share: float) -> None:
        self.log = (work / "stub.log").open("wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--seed", str(seed),
             "--wrong-share", str(wrong_share)],
            stdout=subprocess.PIPE, stderr=self.log,
        )
        line = self.proc.stdout.readline().decode().split()
        if len(line) != 2 or line[0] != "PORT":
            self.close()
            raise RuntimeError("stub server did not start")
        self.port = int(line[1])

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/stats?reset=1")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def prefill_cache(cache_dir: Path, prompts: dict[str, str], answers: dict[str, int]) -> None:
    """Store every prompt's JSON answer through the gateway's own cache class."""
    from fairjudge.gateway import _Cache

    cache = _Cache(cache_dir)
    for facts, prompt in prompts.items():
        content = json.dumps({"sentence_months": answers[facts]})
        cache.put(_Cache.key(MODEL, 0.0, prompt), {"content": content, "attempts": 1})


def check_generate(out_path: Path, expected: dict) -> tuple[int, int, list[str]]:
    """Records written, records wrong or missing, problems."""
    got = {}
    try:
        for line in out_path.read_text().splitlines():
            rec = json.loads(line)
            got[(rec["doc_id"], rec["label_id"], rec["variant_value"])] = rec["predicted_months"]
    except (OSError, ValueError, KeyError) as exc:
        return 0, len(expected), [f"unreadable predictions: {exc}"]
    wrong = sum(1 for key, months in expected.items() if got.get(key) != months)
    problems = []
    if len(got) != len(expected):
        problems.append(f"{len(got)} records written, expected {len(expected)}")
    if wrong:
        problems.append(f"{wrong} of {len(expected)} records missing or not the stub's answer")
    return len(got), wrong, problems


def run_generate(run: Run, wl: Workload, seed: int, seconds: float, trace: bool,
                 wrong_share: float) -> dict:
    import inputs
    import stub
    from fairjudge.gateway import build_prompt

    corpus_dir = run.work / "corpus"
    corpus = inputs.build_corpus(seed, wl.docs, wl.labels, wl.values, corpus_dir)
    template = run.work / "template.txt"
    template.write_text(stub.TEMPLATE, encoding="utf-8")

    facts_by_key = {(d.doc_id, None, None): d.facts for d in corpus.documents}
    facts_by_key.update({(v.doc_id, v.label_id, v.variant_value): v.facts for v in corpus.variants})
    answers = {f: stub.answer_months(seed, f) for f in facts_by_key.values()}
    expected = {key: float(answers[f]) for key, f in facts_by_key.items()}
    reasks = sum(stub.is_prose(seed, f) for f in facts_by_key.values())
    expected_requests = 0 if wl.warm else len(expected) + reasks

    warm_cache = run.work / "warm-cache"
    if wl.warm:
        prompts = {f: build_prompt(f, stub.TEMPLATE) for f in answers}
        prefill_cache(warm_cache, prompts, answers)

    server = StubProcess(run.work, seed, wrong_share)
    samples, attempted, failed, requests = [], 0, 0, 0
    try:
        for _ in timed_rounds(seconds):
            for mode in ("--plain", "--trace") if trace else ("--plain",):
                k = run.n + 1
                out_path = run.work / f"pred-{k}.jsonl"
                cache_dir = warm_cache if wl.warm else run.work / f"cache-{k}"
                res = run.child(
                    mode,
                    ["generate", "--corpus", str(corpus_dir),
                     "--api-url", f"http://127.0.0.1:{server.port}/v1/chat/completions",
                     "--model", MODEL, "--concurrency", str(CONCURRENCY),
                     "--cache-dir", str(cache_dir), "--template-file", str(template),
                     "--out", str(out_path)],
                )
                stats = server.stats()
                written, wrong, problems = check_generate(out_path, expected)
                if stats["requests"] != expected_requests:
                    problems.append(f"stub saw {stats['requests']} requests, expected {expected_requests}")
                attempted += len(expected)
                failed += wrong
                requests += stats["requests"]
                run.problems += problems
                res.update(mode=mode, records=written, service_ms=stats["service_ms"])
                samples.append(res)
                out_path.unlink(missing_ok=True)
                if not wl.warm:
                    shutil.rmtree(cache_dir, ignore_errors=True)
    finally:
        server.close()
    return {"samples": samples, "attempted": attempted, "failed": failed, "requests": requests}


# --------------------------------------------------------------------------- metrics


def _samples(outcome: dict, mode: str) -> list[dict]:
    return [s for s in outcome["samples"] if s["mode"] == mode and "wall_s" in s]


def end_to_end(run: Run, outcome: dict) -> dict:
    plain = _samples(outcome, "--plain")
    return {
        "wall_s": _median([s["wall_s"] for s in plain]),
        "records_per_s": _median([s["records"] / s["wall_s"] for s in plain]),
        "setup_s": _median(run.setup_samples),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in plain]),
    }


def per_layer(outcome: dict) -> dict:
    import tracing

    plain, traced = _samples(outcome, "--plain"), _samples(outcome, "--trace")
    per_run = [tracing.layer_metrics(s["trace"]["spans"]) for s in traced]
    metrics = {name: _median([m[name] for m in per_run]) for name in tracing.layer_metrics([])}
    written = sum(s["records"] for s in outcome["samples"])
    metrics.update({
        "cli.cpu_ms_per_record": _median([s["cpu_s"] * 1000.0 / s["records"] for s in plain if s["records"]]),
        "report.bytes_written": _median([s.get("report_bytes", 0) for s in plain]),
        "stub.service_p50_ms": _median(
            [statistics.median(s["service_ms"]) for s in plain if s.get("service_ms")]
        ),
        "error_rate": outcome["failed"] / outcome["attempted"],
        "requests_per_record": outcome["requests"] / written if written else 0.0,
        "trace.overhead_s": _median([s["wall_s"] for s in traced])
        - _median([s["wall_s"] for s in plain]),
    })
    return metrics


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}


def provenance(args, wl: Workload) -> dict:
    import numpy
    import scipy
    import stub

    return {
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": {"docs": wl.docs, "labels": wl.labels, "values": wl.values, "models": wl.models},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "concurrency": CONCURRENCY if wl.kind == "generate" else None,
        "stub_delay_ms": stub.DELAY_MS if wl.kind == "generate" else None,
        "stub_prose_share": stub.PROSE_SHARE if wl.kind == "generate" else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="fairjudge audit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: self-test size")
    parser.add_argument("--stub-wrong-share", type=float, default=0.0,
                        help="share of stub answers one month off (self-test of the output check)")
    args = parser.parse_args()

    if not (SRC / "fairjudge" / "cli.py").is_file():
        print(f"error: no fairjudge sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Byte-compile once here so no timed import pays for it.
    compileall.compile_dir(str(SRC), quiet=1)

    wl = (TINY if args.scale == "tiny" else WORKLOADS)[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]),
               FAIRJUDGE_API_KEY="perfbench")
    run = Run(work, env)
    trace = bool(args.trace)
    try:
        if wl.kind == "analyze":
            outcome = run_analyze(run, wl, args.seed, args.seconds, trace)
        else:
            outcome = run_generate(run, wl, args.seed, args.seconds, trace, args.stub_wrong_share)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    metrics = per_layer(outcome) if trace else end_to_end(run, outcome)
    units = _units()
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    missing = sorted({m for s in outcome["samples"] for m in s.get("trace", {}).get("missing", [])})
    print(json.dumps({
        "provenance": provenance(args, wl),
        "wall_s_samples": [s.get("wall_s") for s in outcome["samples"]],
        "setup_s_samples": run.setup_samples,
        "missing_wraps": missing,
    }))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
