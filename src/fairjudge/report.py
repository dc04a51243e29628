"""The report's seven files: CSV/JSON tables and a self-contained static HTML report.

``write_report`` writes them and ``read_report`` reads them back from
summary.json and findings.jsonl. Output bytes are a pure function of the
bundle and findings; run timestamps are injected by the caller, never
sampled here, so golden-file comparisons hold across runs.
"""

from __future__ import annotations

import csv
import html
import json
import math
import reprlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from fairjudge.corpus import from_record, read_jsonl, replace_file
from fairjudge.metrics import InconsistencyRow, LabelFinding, ModelFairnessSummary, mean_inconsistency
from fairjudge.statcore import BernoulliTestResult

SUMMARY_CSV_COLUMNS = [
    "model",
    "inconsistency",
    "bias_count",
    "bias_bernoulli_p",
    "imbalance_count",
    "imbalance_bernoulli_p",
    "n_labels_tested",
]


class ReportError(Exception):
    """summary.json or findings.jsonl cannot be read back for a re-render."""


@dataclass
class ReportBundle:
    """Everything summary.json and report.html hold for one audit run.

    Per-label findings travel separately, as findings.jsonl.
    """

    summaries: list[ModelFairnessSummary]
    inconsistency_rows: dict[str, list[InconsistencyRow]] = field(default_factory=dict)  # model -> rows
    pooled: dict[str, BernoulliTestResult] = field(default_factory=dict)  # metric -> pooled test
    run_metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        models = {s.model_name for s in self.summaries}
        extra = set(self.inconsistency_rows) - models
        if extra:
            raise ValueError(f"inconsistency rows for unknown models: {sorted(extra)}")


def _fmt3(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.3f}"


def _fmt_p(x: Optional[float]) -> str:
    # Rounded display ("0.00" style); exact values live in summary.json.
    return "" if x is None else f"{x:.2f}"


def _summary_row(s: ModelFairnessSummary) -> list:
    """One model's SUMMARY_CSV_COLUMNS cells, as summary.csv and report.html show them."""
    return [
        s.model_name,
        _fmt3(s.inconsistency),
        s.bias_count,
        _fmt_p(s.bias_bernoulli.p_value),
        s.imbalance_count,
        _fmt_p(s.imbalance_bernoulli.p_value),
        s.n_labels_tested,
    ]


def _bundle_to_dict(bundle: ReportBundle) -> dict:
    """summary.json's content: each record is its dataclass's fields."""
    return {
        "summaries": [asdict(s) for s in sorted(bundle.summaries, key=lambda s: s.model_name)],
        "mean_inconsistency": mean_inconsistency(bundle.summaries),
        "pooled": {m: asdict(b) for m, b in bundle.pooled.items()},
        "inconsistency_rows": {model: [asdict(r) for r in rows] for model, rows in bundle.inconsistency_rows.items()},
        "run_metadata": bundle.run_metadata,
    }


def _finding_dict(model: str, f: LabelFinding) -> dict:
    """One findings.jsonl line: the finding's fields plus its model; a NaN joint_p is written as null."""
    return {**asdict(f), "model_name": model, "joint_p": None if math.isnan(f.joint_p) else f.joint_p}


def _write_csv(path: Path, header: list[str], rows) -> None:
    def write(fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    replace_file(path, write, newline="")


def write_report(
    bundle: ReportBundle, findings_by_model: dict[str, list[LabelFinding]], out_dir: str | Path
) -> None:
    """Write the report's seven files into ``out_dir``, in this order.

    summary.csv, summary.json, findings.jsonl, labels_bias.csv,
    labels_imbalance.csv, labels_inconsistency.csv and report.html, which
    embeds summary.json's data. Each replaces its file whole (see
    ``replace_file``), so a re-render in place that fails partway leaves
    its inputs, summary.json and findings.jsonl, as they were.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summaries = sorted(bundle.summaries, key=lambda s: s.model_name)
    data = _bundle_to_dict(bundle)
    findings = [(model, f) for model in sorted(findings_by_model) for f in findings_by_model[model]]

    _write_csv(out / "summary.csv", SUMMARY_CSV_COLUMNS, map(_summary_row, summaries))
    replace_file(out / "summary.json", lambda fh: fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n"))
    replace_file(
        out / "findings.jsonl",
        lambda fh: fh.writelines(json.dumps(_finding_dict(model, f), sort_keys=True) + "\n" for model, f in findings),
    )
    for metric in ("bias", "imbalance"):
        _write_csv(
            out / f"labels_{metric}.csv",
            ["model", "label_id", "joint_p", "min_coef_p", "significant"],
            (
                [model, f.label_id, _fmt3(f.joint_p), _fmt3(f.min_coef_p), int(f.significant)]
                for model, f in findings
                if f.metric == metric
            ),
        )
    _write_csv(
        out / "labels_inconsistency.csv",
        ["model", "label_id", "p_l", "w_l", "n_changed", "n_missing"],
        (
            [model, r.label_id, _fmt3(r.p_l), r.w_l, r.n_changed, r.n_missing]
            for model, rows in sorted(bundle.inconsistency_rows.items())
            for r in rows
        ),
    )
    replace_file(out / "report.html", lambda fh: fh.write(_report_html(summaries, bundle.pooled, data)))


def read_report(summary_path: str | Path) -> tuple[ReportBundle, dict[str, list[LabelFinding]]]:
    """Inverse of ``write_report``: summary.json's bundle, and model -> findings from the findings.jsonl beside it.

    A missing field is a ReportError naming it; so is a field of the wrong type.
    """
    try:
        data = json.loads(Path(summary_path).read_text(encoding="utf-8"))
    except (OSError, RecursionError, ValueError) as exc:  # RecursionError: JSON nested too deep
        raise ReportError(f"cannot read {summary_path}: {exc}") from None
    try:
        bundle = from_record(ReportBundle, data)
    except KeyError as exc:
        raise ReportError(f"summary.json: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:  # a field of the wrong JSON type or shape
        raise ReportError(f"summary.json: malformed: {exc}") from None

    findings_path = Path(summary_path).with_name("findings.jsonl")
    findings: dict[str, list[LabelFinding]] = {}
    for lineno, rec in read_jsonl(findings_path, ReportError):
        try:
            model = rec["model_name"]
            if type(model) is not str:
                raise TypeError
            record = dict(rec)  # a copy, so the message shows the line as read
            if "joint_p" in record and record["joint_p"] is None:  # a NaN joint_p is written as null
                record["joint_p"] = math.nan
            findings.setdefault(model, []).append(from_record(LabelFinding, record))
        except (KeyError, TypeError, ValueError):
            raise ReportError(f"{findings_path.name}:{lineno}: not a finding: {reprlib.repr(rec)}") from None
    return bundle, findings


# ---------------------------------------------------------------------------
# HTML report: inline SVG charts, no scripts fetched, data embedded as JSON.

_SCRIPT_SAFE = str.maketrans({"<": "\\u003c", ">": "\\u003e", "&": "\\u0026"})

_CSS = """
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 64rem; color: #222; }
h1 { border-bottom: 2px solid #345; padding-bottom: 0.3rem; }
table { border-collapse: collapse; margin: 1rem 0; }
th, td { border: 1px solid #bbb; padding: 0.35rem 0.7rem; text-align: right; }
th:first-child, td:first-child { text-align: left; }
.chart { margin: 1.5rem 0; }
.chart h2 { font-size: 1.1rem; }
.legend { font-size: 0.85rem; color: #555; }
"""


def _bar_svg(values: list[tuple[str, Optional[float]]]) -> str:
    """Horizontal bar chart; one bar per model."""
    width, bar_h, gap, label_w = 640, 24, 10, 200
    vmax = max([v for _, v in values if v is not None] + [1e-9])
    height = len(values) * (bar_h + gap) + gap
    parts = [f'<svg viewBox="0 0 {width} {height}" width="{width}" height="{height}">']
    for i, (name, v) in enumerate(values):
        y = gap + i * (bar_h + gap)
        shown = 0.0 if v is None else v
        w = (width - label_w - 80) * shown / vmax
        parts.append(
            f'<text x="{label_w - 8}" y="{y + bar_h * 0.7:.1f}" text-anchor="end" '
            f'font-size="13">{html.escape(name)}</text>'
        )
        parts.append(f'<rect x="{label_w}" y="{y}" width="{w:.2f}" height="{bar_h}" fill="#4878a8"/>')
        text = "n/a" if v is None else f"{v:.3f}"
        parts.append(
            f'<text x="{label_w + w + 6:.2f}" y="{y + bar_h * 0.7:.1f}" font-size="13">{text}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _pie_svg(k: int, n: int, title: str) -> str:
    """Two-slice pie: significant vs non-significant labels."""
    r, cx, cy = 56, 64, 64
    if n <= 0:
        frac = 0.0
    else:
        frac = k / n
    parts = [f'<svg viewBox="0 0 340 128" width="340" height="128">']
    if frac >= 1.0:
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="#b2503c"/>')
    elif frac <= 0.0:
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="#7fa66f"/>')
    else:
        ang = 2 * math.pi * frac
        x = cx + r * math.sin(ang)
        y = cy - r * math.cos(ang)
        big = 1 if frac > 0.5 else 0
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="#7fa66f"/>')
        parts.append(
            f'<path d="M{cx},{cy} L{cx},{cy - r} A{r},{r} 0 {big} 1 {x:.2f},{y:.2f} Z" fill="#b2503c"/>'
        )
    parts.append(
        f'<text x="136" y="58" font-size="13">{html.escape(title)}</text>'
        f'<text x="136" y="78" font-size="13">{k} significant / {n} tested</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _report_html(
    summaries: list[ModelFairnessSummary], pooled: dict[str, BernoulliTestResult], data: dict
) -> str:
    """A self-contained report.html of the summaries (sorted by model) and summary.json's ``data``.

    One chart container per metric: the bar chart compares models, and the
    bias/imbalance containers add a per-model significant-label pie. Chart
    data is embedded verbatim as JSON for machine consumption.
    """
    # JSON escapes for <, > and &, so no string in the data can end the <script> block.
    data_json = json.dumps(data, sort_keys=True).translate(_SCRIPT_SAFE)

    sections = [
        '<div class="chart" id="chart-inconsistency"><h2>Inconsistency</h2>'
        + _bar_svg([(s.model_name, s.inconsistency) for s in summaries])
        + '<p class="legend">Weighted proportion of baseline/variant pairs with a changed prediction.</p></div>'
    ]
    for metric, count_of, bern_of in (
        ("bias", lambda s: s.bias_count, lambda s: s.bias_bernoulli),
        ("imbalance", lambda s: s.imbalance_count, lambda s: s.imbalance_bernoulli),
    ):
        pies = "".join(
            _pie_svg(count_of(s), bern_of(s).n_trials, s.model_name) for s in summaries
        )
        test = pooled.get(metric)
        pooled_note = (
            f'<p class="legend">Pooled across models: {test.n_significant} / {test.n_trials} '
            f"significant, tail p = {test.p_value:.3g} (display {_fmt_p(test.p_value)})</p>"
            if test
            else ""
        )
        sections.append(
            f'<div class="chart" id="chart-{metric}"><h2>{metric.capitalize()}: significant labels</h2>'
            + _bar_svg([(s.model_name, float(count_of(s))) for s in summaries])
            + pies
            + pooled_note
            + "</div>"
        )

    table_rows = "".join(
        "<tr>" + "".join(f"<td>{html.escape(str(cell))}</td>" for cell in _summary_row(s)) + "</tr>"
        for s in summaries
    )
    header = "".join(f"<th>{c}</th>" for c in SUMMARY_CSV_COLUMNS)

    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        "<title>LLM sentencing fairness audit</title>"
        f"<style>{_CSS}</style></head><body>"
        "<h1>LLM sentencing fairness audit</h1>"
        f'<script type="application/json" id="report-data">{data_json}</script>'
        + "".join(sections)
        + f"<table><tr>{header}</tr>{table_rows}</table>"
        + "<p class='legend'>Displayed p-values are rounded; exact values are in the embedded JSON "
        "and summary.json.</p>"
        "</body></html>"
    )

