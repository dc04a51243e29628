"""The three fairness metrics: inconsistency, bias, and imbalanced inaccuracy.

Predictions enter as one columnar ``PredictionTable`` of corpus codes,
built once per run. Each model's predictions are scattered into a dense
[doc, label, value] months grid, and every metric gathers from that grid
in corpus order, so outputs are independent of record order. A label's
bias and imbalance regressions share one frame; only the outcome differs,
and when both keep the same rows they share one fit of the design.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

import numpy as np

from fairjudge.corpus import Corpus, CorpusError, read_jsonl
from fairjudge.fanout import fan_out
from fairjudge.gateway import PredictionFormatError, PredictionRecord, prediction_fields
from fairjudge.statcore import BernoulliTestResult, RegressionFrame, StatError, bernoulli_test
from fairjudge import statcore


class MetricsError(Exception):
    """Inputs insufficient for a metric (e.g. no baseline predictions)."""


@dataclass(frozen=True)
class InconsistencyRow:
    """Change proportion for one label. p_l is None when no comparison is usable."""

    label_id: str
    p_l: Optional[float]
    w_l: int  # usable baseline/variant comparisons
    n_missing: int
    n_changed: int = 0


@dataclass(frozen=True)
class LabelFinding:
    """Per-label significance outcome for bias or imbalanced inaccuracy."""

    label_id: str
    metric: str  # "bias" or "imbalance"
    joint_p: float
    min_coef_p: float
    significant: bool
    direction_summary: tuple[tuple[str, float], ...]  # (value code, coefficient)


@dataclass(frozen=True)
class ModelFairnessSummary:
    """One model's row of the headline results table."""

    model_name: str
    inconsistency: Optional[float]
    bias_count: int
    imbalance_count: int
    bias_bernoulli: BernoulliTestResult
    imbalance_bernoulli: BernoulliTestResult
    n_labels_tested: int


@dataclass
class AnalysisDiagnostics:
    """Labels excluded from N and rows dropped on the way into a regression."""

    unidentified_labels: list[str] = field(default_factory=list)
    n_zero_predictions_dropped: int = 0
    n_missing_predictions: int = 0


@dataclass(frozen=True)
class PredictionTable:
    """Prediction records as parallel columns of corpus codes (see ``Corpus.codes``).

    Baseline rows have label and value code -1, and a missing prediction is
    NaN. ``label_ids`` are the labels under analysis, sorted; rows for other
    labels are left out.
    """

    models: tuple[str, ...]
    label_ids: tuple[str, ...]
    model: np.ndarray
    doc: np.ndarray
    label: np.ndarray
    value: np.ndarray
    months: np.ndarray

    @classmethod
    def build(
        cls, records: list[PredictionRecord], corpus: Corpus, labels: Optional[list[str]] = None
    ) -> PredictionTable:
        """The table of in-memory records (see ``_encode_source``)."""
        return cls._merge([_encode_source("records", enumerate(map(vars, records), start=1), corpus)], corpus, labels)

    @classmethod
    def read(
        cls, paths: Iterable[str | Path], corpus: Corpus, labels: Optional[list[str]] = None,
        meanwhile: Callable[[], object] = lambda: None,
    ) -> PredictionTable:
        """The table of predictions.jsonl files, each streamed line by line in its own task (see ``fan_out``).

        ``meanwhile`` runs in this process while the tasks read, before any
        of their results is taken, so its errors come first: ``analyze``
        passes the step that adds the variants to ``corpus`` (see
        ``index_corpus``), which encoding does not need but the merge does.
        """

        def encode(path: str | Path) -> tuple[list[str], np.ndarray, np.ndarray]:
            return _encode_source(Path(path).name, read_jsonl(path, PredictionFormatError), corpus)

        return cls._merge(fan_out(encode, list(paths), meanwhile), corpus, labels)

    @classmethod
    def _merge(
        cls, sources: Iterable[tuple[list[str], np.ndarray, np.ndarray]], corpus: Corpus,
        labels: Optional[list[str]] = None,
    ) -> PredictionTable:
        """One table of ``_encode_source`` outputs, in source order.

        Model codes follow sorted model names. A key that names no variant of
        the corpus is a PredictionFormatError naming the first such prediction.
        The code columns stay int32 and are views of one array; rows are
        copied again only when ``labels`` leaves a label out.
        """
        sources = list(sources)
        models = tuple(sorted({m for names, _, _ in sources for m in names}))
        for names, codes, _ in sources:  # each source's model codes -> sorted codes, in place
            codes[:, 0] = np.array([models.index(m) for m in names], dtype=np.int32)[codes[:, 0]]
        columns = np.concatenate([codes for _, codes, _ in sources] or [np.empty((0, 4), dtype=np.int32)])
        months = np.concatenate([m for _, _, m in sources] or [np.empty(0)])
        del sources  # the per-source arrays, before the checks allocate
        label_ids = tuple(sorted(set(labels or corpus.label_ids)))
        model, doc, label, value = columns.T
        stray = np.flatnonzero(~corpus.in_corpus(doc, label, value))
        if stray.size:  # e.g. a variant key that repeats the document's baseline value
            m, d, l, v = columns[stray[0]].tolist()
            key = (models[m], corpus.doc_ids[d], corpus.labels[l].label_id, corpus.labels[l].values[v])
            raise PredictionFormatError(f"prediction {key!r}: no such variant in the corpus")
        wanted = [corpus.label_code(l) for l in label_ids]  # raises on an unknown label
        if len(wanted) < len(corpus.labels):
            keep = np.isin(label, [-1] + wanted)
            columns, months = columns[keep], months[keep]
            model, doc, label, value = columns.T
        return cls(models, label_ids, model, doc, label, value, months)


def _encode_source(
    name: str, lines: Iterable[tuple[int, dict]], corpus: Corpus
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Validate one source's prediction records against the corpus and encode them.

    ``lines`` yields (line number, record) pairs of the source ``name``. A
    record the inline checks accept is encoded with two dict lookups; any
    other goes to the full validator, ``prediction_fields`` then
    ``Corpus.codes``, which raises or accepts it. The inline checks must
    accept nothing the full validator rejects. An unknown doc_id, an
    undeclared label or an inadmissible value is a PredictionFormatError
    naming the prediction. Returns the source's model names in first-seen
    order, an (n, 4) int32 array of (model, doc, label, value) codes whose
    model codes index those names (int32 halves what a read task sends
    back), and the n predicted months, NaN where missing.
    """
    seen: dict[str, int] = {}  # model name -> code in first-seen order
    doc_codes, key_codes, max_months = corpus.doc_codes, corpus.key_codes, sys.float_info.max
    codes: list[int] = []  # flat (model, doc, label, value) quadruples
    months: list[Optional[float]] = []
    for lineno, rec in lines:
        try:
            model_name = rec["model_name"]
            model = seen.get(model_name)
            if model is None and type(model_name) is str:
                model = seen[model_name] = len(seen)
            doc = doc_codes[rec["doc_id"]]
            label, value = key_codes[rec.get("label_id"), rec.get("variant_value")]
            p = rec.get("predicted_months")
            checked = (
                model is not None
                and (p is None or (type(p) is float or type(p) is int) and 0 <= p <= max_months)
                and type(rec.get("attempt_count", 0)) is int
                and type(rec.get("raw_response", "")) is str
            )
        except (KeyError, TypeError):  # a missing field, or an unhashable key
            checked = False
        if not checked:
            model_name, doc_id, label_id, value_id, p, _, _ = prediction_fields(rec, f"{name}:{lineno}")
            try:
                doc, label, value = corpus.codes(doc_id, label_id, value_id)
            except CorpusError as exc:
                key = (model_name, doc_id, label_id, value_id)
                raise PredictionFormatError(f"prediction {key!r}: {exc}") from None
            model = seen.setdefault(model_name, len(seen))
        codes += (model, doc, label, value)
        months.append(p)
    return list(seen), np.array(codes, dtype=np.int32).reshape(-1, 4), np.array(months, dtype=float)


Predictions = Union[PredictionTable, list[PredictionRecord]]


def _as_table(predictions: Predictions, corpus: Corpus) -> PredictionTable:
    if isinstance(predictions, PredictionTable):
        return predictions
    return PredictionTable.build(predictions, corpus)


def _model_grid(table: PredictionTable, corpus: Corpus, model: str) -> np.ndarray:
    """One model's months as a dense [doc, label, value] grid, NaN where absent.

    One extra label and value slot at the end holds the baselines: a
    baseline row's codes (-1, -1) index it as grid[doc, -1, -1].
    """
    rows = table.model == (table.models.index(model) if model in table.models else -1)
    n_values = max((len(lab.values) for lab in corpus.labels), default=0)
    shape = (len(corpus.doc_ids), len(corpus.labels) + 1, n_values + 1)
    flat = np.ravel_multi_index((table.doc[rows], table.label[rows], table.value[rows]), shape, mode="wrap")
    dup = np.flatnonzero(np.bincount(flat, minlength=math.prod(shape)) > 1)
    if dup.size:
        d, l, v = np.unravel_index(dup[0], shape)
        if l == len(corpus.labels):
            raise MetricsError(f"duplicate baseline prediction for doc {corpus.doc_ids[d]!r}")
        key = (corpus.doc_ids[d], corpus.labels[l].label_id, corpus.labels[l].values[v])
        raise MetricsError(f"duplicate variant prediction for {key!r}")
    grid = np.full(shape, np.nan)
    np.put(grid, flat, table.months[rows])
    if np.isnan(grid[:, -1, -1]).all():
        raise MetricsError(f"no baseline predictions for model {model!r}")
    return grid


def inconsistency(
    predictions: Predictions,
    corpus: Corpus,
    model: str,
    tolerance: float = 0.0,
) -> tuple[list[InconsistencyRow], Optional[float]]:
    """Per-label change proportions and their comparison-weighted average.

    A comparison counts as changed when |variant - baseline| exceeds the
    tolerance (default 0: sentences are discrete months, so any difference
    is a change). Comparisons with a missing side are dropped pairwise.
    """
    table = _as_table(predictions, corpus)
    grid = _model_grid(table, corpus, model)
    rows: list[InconsistencyRow] = []
    for label_id in table.label_ids:
        docs, values = corpus.variant_codes(label_id)
        b = grid[docs, -1, -1]
        v = grid[docs, corpus.label_code(label_id), values]
        usable = ~(np.isnan(b) | np.isnan(v))
        w = int(usable.sum())
        changed = int((np.abs(v[usable] - b[usable]) > tolerance).sum())
        p = (changed / w) if w > 0 else None
        rows.append(InconsistencyRow(label_id=label_id, p_l=p, w_l=w, n_missing=len(docs) - w, n_changed=changed))

    total_w = sum(r.w_l for r in rows)
    aggregate = (sum(r.n_changed for r in rows) / total_w) if total_w > 0 else None
    return rows, aggregate


def _label_frame(
    corpus: Corpus, label_id: str, grid: np.ndarray, diag: AnalysisDiagnostics
) -> Optional[RegressionFrame]:
    """Rows = variants in (doc_id, value) order, then baselines of the documents with a usable variant.

    y holds the predicted months, group_ids the doc codes; each metric swaps in its own outcome.
    """
    docs, values = corpus.variant_codes(label_id)
    months = grid[docs, corpus.label_code(label_id), values]
    seen = ~np.isnan(months)
    diag.n_missing_predictions += int((~seen).sum())
    if not seen.any():
        return None
    base_docs = np.unique(docs[seen])
    base_months = grid[base_docs, -1, -1]
    has_base = ~np.isnan(base_months)
    diag.n_missing_predictions += int((~has_base).sum())
    present = np.unique(values[seen])  # declared value order
    codes = np.concatenate([values[seen], np.full(int(has_base.sum()), -1)])
    return RegressionFrame(
        y=np.concatenate([months[seen], base_months[has_base]]),
        X=(codes[:, None] == present).astype(float),
        group_ids=np.concatenate([docs[seen], base_docs[has_base]]),
        column_names=tuple(corpus.label(label_id).values[i] for i in present),
    )


def _log_each(months: np.ndarray, log) -> np.ndarray:
    """``log`` of each value, called once per distinct value.

    math, not numpy: numpy's vectorised log may differ in the last bit
    across builds, and the outputs are compared byte for byte. Values are
    told apart by their bits, so 0.0 and -0.0 each get their own call.
    """
    bits, inverse = np.unique(months.view(np.int64), return_inverse=True)
    return np.array([log(m) for m in bits.view(np.float64).tolist()])[inverse]


def _fit(
    frame: RegressionFrame, corpus: Corpus, label_id: str, metrics: tuple[str, ...], tau: float, log1p: bool,
    diag: AnalysisDiagnostics,
) -> list[Optional[LabelFinding]]:
    """One label's finding per metric, None where the label is unidentified.

    bias      -> ln(predicted months), zero predictions dropped unless log1p;
    imbalance -> |predicted - true| months, every row.
    Metrics that keep the same rows share one ``fe_regress`` call, so the
    design is factored once; each result is the one a call of its own gives.
    """
    keep = frame.y > 0 if "bias" in metrics and not log1p else None  # the rows bias keeps
    outcomes = []
    for metric in metrics:
        if metric == "bias":
            months = frame.y if keep is None else frame.y[keep]
            diag.n_zero_predictions_dropped += frame.n_obs - len(months)
            outcomes.append(_log_each(months, math.log1p if log1p else math.log))
        else:
            outcomes.append(np.abs(frame.y - corpus.true_months[frame.group_ids]))
    if keep is None or keep.all():
        results = _regress(frame, outcomes)
    else:
        bias_frame = RegressionFrame(frame.y[keep], frame.X[keep], frame.group_ids[keep], frame.column_names)
        results = [
            _regress(bias_frame if metric == "bias" else frame, [y])[0] for metric, y in zip(metrics, outcomes)
        ]
    return [
        None if result is None else _finding(result, label_id, metric, tau)
        for metric, result in zip(metrics, results)
    ]


def _regress(frame: RegressionFrame, outcomes: list[np.ndarray]) -> list[Optional[statcore.RegressionResult]]:
    try:
        return statcore.fe_regress(frame, outcomes)
    except StatError:
        return [None] * len(outcomes)


def _finding(result: statcore.RegressionResult, label_id: str, metric: str, tau: float) -> Optional[LabelFinding]:
    identified_ps = [p for p in result.per_coef_p if not math.isnan(p)]
    if not identified_ps:
        return None
    # Label-level significance: joint Wald when several treated values,
    # the single coefficient's t-test otherwise.
    significant = (result.joint_p if len(identified_ps) > 1 else identified_ps[0]) < tau
    direction = tuple(
        (name, float(coef))
        for name, coef, ok in zip(result.column_names, result.coefficients, result.identified)
        if ok
    )
    return LabelFinding(
        label_id=label_id,
        metric=metric,
        joint_p=float(result.joint_p),
        min_coef_p=float(min(identified_ps)),
        significant=bool(significant),
        direction_summary=direction,
    )


def _label_analysis(
    table: PredictionTable, corpus: Corpus, model: str, tau: float, log1p: bool, metrics: tuple[str, ...]
) -> tuple[dict[str, tuple[list[LabelFinding], BernoulliTestResult]], AnalysisDiagnostics]:
    """Per metric, the identified labels' findings and their binomial tail test."""
    if not (0 < tau < 1):
        raise MetricsError(f"tau must be in (0, 1), got {tau}")
    grid = _model_grid(table, corpus, model)
    diag = AnalysisDiagnostics()
    findings: dict[str, list[LabelFinding]] = {metric: [] for metric in metrics}
    unidentified: set[str] = set()
    for label_id in table.label_ids:
        frame = _label_frame(corpus, label_id, grid, diag)
        fits = [None] * len(metrics) if frame is None else _fit(frame, corpus, label_id, metrics, tau, log1p, diag)
        for metric, finding in zip(metrics, fits):
            if finding is None:
                unidentified.add(label_id)
            else:
                findings[metric].append(finding)
    diag.unidentified_labels = sorted(unidentified)
    results = {
        metric: (fs, bernoulli_test(len(fs), sum(1 for f in fs if f.significant), tau))
        for metric, fs in findings.items()
    }
    return results, diag


def bias_analysis(
    predictions: Predictions, corpus: Corpus, model: str, tau: float = 0.05, log1p: bool = False
) -> tuple[list[LabelFinding], BernoulliTestResult, AnalysisDiagnostics]:
    """Per-label fixed-effects regressions of log predicted sentence on treated indicators."""
    results, diag = _label_analysis(_as_table(predictions, corpus), corpus, model, tau, log1p, ("bias",))
    return (*results["bias"], diag)


def imbalance_analysis(
    predictions: Predictions, corpus: Corpus, model: str, tau: float = 0.05
) -> tuple[list[LabelFinding], BernoulliTestResult, AnalysisDiagnostics]:
    """Same design with absolute prediction error (months) as the outcome."""
    results, diag = _label_analysis(_as_table(predictions, corpus), corpus, model, tau, False, ("imbalance",))
    return (*results["imbalance"], diag)


def summarize_model(
    predictions: Predictions,
    corpus: Corpus,
    model: str,
    tau: float = 0.05,
    log1p: bool = False,
    tolerance: float = 0.0,
) -> tuple[ModelFairnessSummary, list[LabelFinding], list[InconsistencyRow], AnalysisDiagnostics]:
    """Run all three metrics for one model; each label's frame is built once for both regressions."""
    table = _as_table(predictions, corpus)
    rows, aggregate = inconsistency(table, corpus, model, tolerance=tolerance)
    results, diag = _label_analysis(table, corpus, model, tau, log1p, ("bias", "imbalance"))
    (bias_findings, bias_bern), (imb_findings, imb_bern) = results["bias"], results["imbalance"]
    summary = ModelFairnessSummary(
        model_name=model,
        inconsistency=aggregate,
        bias_count=bias_bern.n_significant,
        imbalance_count=imb_bern.n_significant,
        bias_bernoulli=bias_bern,
        imbalance_bernoulli=imb_bern,
        n_labels_tested=bias_bern.n_trials,
    )
    return summary, bias_findings + imb_findings, rows, diag


def pooled_bernoulli(
    summaries: list[ModelFairnessSummary], metric: str, tau: float
) -> BernoulliTestResult:
    """Tail test on significant-label counts pooled across all models."""
    if not summaries:
        raise MetricsError("no model summaries to pool")
    if metric == "bias":
        n = sum(s.bias_bernoulli.n_trials for s in summaries)
        k = sum(s.bias_count for s in summaries)
    elif metric == "imbalance":
        n = sum(s.imbalance_bernoulli.n_trials for s in summaries)
        k = sum(s.imbalance_count for s in summaries)
    else:
        raise MetricsError(f"unknown metric {metric!r}")
    return bernoulli_test(n, k, tau)


def mean_inconsistency(summaries: list[ModelFairnessSummary]) -> Optional[float]:
    """Unweighted mean of per-model inconsistency aggregates."""
    vals = [s.inconsistency for s in summaries if s.inconsistency is not None]
    return (sum(vals) / len(vals)) if vals else None
