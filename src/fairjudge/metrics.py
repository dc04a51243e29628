"""The three fairness metrics: inconsistency, bias, and imbalanced inaccuracy.

``summarize`` takes one ``PredictionTable``, each model's months by
corpus key, built once per run, and makes one task per label, which reads
every model's months for the label's variants in corpus order, so outputs
are independent of record order. That read feeds all three metrics: the label's
inconsistency row and its one regression frame, whose bias and imbalance
outcomes share one fit when they keep the same rows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from fairjudge.corpus import JSONL_ENCODER, Corpus, CorpusError, read_jsonl, record_fields
from fairjudge.fanout import fan_out
from fairjudge.gateway import PredictionFormatError, PredictionRecord, read_prediction
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
    """Each model's months for each key of the corpus (see ``Corpus.key_index``): ``months[model, key]``.

    A missing prediction is NaN; ``present`` tells the keys a model
    predicted, if only as null. Models follow sorted names, and the first
    keys are the baselines by doc code. Every prediction is validated (see
    ``_merge``) and kept, whatever labels a run analyzes.
    """

    models: tuple[str, ...]
    months: np.ndarray
    present: np.ndarray

    @classmethod
    def build(cls, records: list[PredictionRecord], corpus: Corpus) -> PredictionTable:
        """The table of in-memory records (see ``_encode_source``)."""
        return cls._merge([_encode_source("records", enumerate(map(record_fields, records), 1), corpus)], corpus)

    @classmethod
    def read(
        cls, paths: Iterable[str | Path], corpus: Corpus, meanwhile: Callable[[], object] = lambda: None
    ) -> PredictionTable:
        """The table of predictions.jsonl files, each streamed line by line in its own task (see ``fan_out``).

        ``meanwhile`` runs in this process while the tasks read, a lone file's
        too, before any of their results is taken, so its errors come first:
        ``analyze`` passes the step that adds the variants to ``corpus`` (see
        ``index_corpus``), which encoding does not need but the merge does.
        """
        def encode(path: str | Path) -> tuple[list[str], np.ndarray, np.ndarray]:
            return _encode_source(Path(path).name, read_jsonl(path, PredictionFormatError), corpus)

        return cls._merge(fan_out(encode, list(paths), meanwhile), corpus)

    @classmethod
    def _merge(cls, sources: list[tuple[list[str], np.ndarray, np.ndarray]], corpus: Corpus) -> PredictionTable:
        """One table of ``_encode_source`` outputs, each row's codes looked up once in ``Corpus.key_index``.

        A key that names no variant of the corpus is a PredictionFormatError
        naming the first such prediction; then a key that a model predicts
        twice is a MetricsError naming, of the first such model in name order,
        the first such key in (doc, label, value) code order, a document's
        baseline after its variants.
        """
        models = tuple(sorted({m for names, _, _ in sources for m in names}))
        index = corpus.key_index()
        n_keys = int(index.max()) + 1
        months = np.full((len(models), n_keys), np.nan)
        cells = []  # each source's rows as flat [model, key] positions
        for i, (names, codes, source_months) in enumerate(sources):
            keys = index[codes[:, 1], codes[:, 2], codes[:, 3]]  # a baseline's (-1, -1) is the extra last slot
            stray = np.flatnonzero(keys < 0)
            if stray.size:  # e.g. a variant key that repeats the document's baseline value
                m, d, l, v = codes[stray[0]].tolist()
                key = (names[m], corpus.doc_ids[d], corpus.labels[l].label_id, corpus.labels[l].values[v])
                raise PredictionFormatError(f"prediction {key!r}: no such variant in the corpus")
            rows = np.array([models.index(m) for m in names], dtype=np.intp)  # source model code -> table row
            cells.append(rows[codes[:, 0]] * n_keys + keys)
            months.ravel()[cells[-1]] = source_months
            sources[i] = codes = None  # frees the codes, though the caller holds the list to the end
        counts = np.bincount(np.concatenate([np.empty(0, np.intp), *cells]), minlength=len(models) * n_keys)
        dup = np.flatnonzero(counts > 1)
        if dup.size:
            repeated = dup[dup // n_keys == dup[0] // n_keys] % n_keys  # the first such model's repeated keys
            d, l, v = np.unravel_index(np.isin(index, repeated).argmax(), index.shape)
            if l == len(corpus.labels):
                raise MetricsError(f"duplicate baseline prediction for doc {corpus.doc_ids[d]!r}")
            key = (corpus.doc_ids[d], corpus.labels[l].label_id, corpus.labels[l].values[v])
            raise MetricsError(f"duplicate variant prediction for {key!r}")
        return cls(models, months, counts.reshape(months.shape) > 0)


def normalized_lines(path: str | Path, corpus: Corpus, meanwhile: Callable[[], object]) -> list[str]:
    """``write_predictions``' lines of a predictions.jsonl file's records, in ``PredictionRecord.sort_key`` order.

    One read checks the file as ``PredictionTable.read([path], corpus,
    meanwhile)`` does, errors and their order included. Each accepted row's
    line is ``write_jsonl``'s line of its ``read_prediction`` record, built
    from the row's fields and ``PredictionRecord``'s defaults instead.
    """
    meanwhile()
    lines, defaults = [], [(f.name, f.default) for f in fields(PredictionRecord)]  # a required field is never absent

    def keeping_lines(rows: Iterable[tuple[int, dict]]) -> Iterator[tuple[int, dict]]:
        for lineno, rec in rows:
            yield lineno, rec  # resumed once _encode_source has accepted rec
            line = {name: rec.get(name, default) for name, default in defaults}
            line["attempt_count"] = int(line["attempt_count"])  # read_prediction's reading of an integral float
            lines.append(JSONL_ENCODER.encode(line) + "\n")

    rows = keeping_lines(read_jsonl(path, PredictionFormatError))
    names, codes, _ = source = _encode_source(Path(path).name, rows, corpus)
    models = PredictionTable._merge([source], corpus).models
    rank = np.array([models.index(m) for m in names], dtype=np.intp)[codes[:, 0]]
    keys = corpus.key_index()[codes[:, 1], codes[:, 2], codes[:, 3]]
    return [lines[i] for i in np.lexsort((keys, codes[:, 1], rank)).tolist()]


def _encode_source(
    name: str, lines: Iterable[tuple[int, dict]], corpus: Corpus
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Validate one source's prediction records against the corpus and encode them.

    ``lines`` yields (line number, record) pairs of the source ``name``. A
    record the inline checks accept is encoded with two dict lookups; any
    other goes to the full validator, ``gateway.read_prediction`` then
    ``Corpus.codes``, which raises or accepts it. The inline checks must
    accept nothing ``read_prediction`` rejects. An unknown doc_id, an
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
            record = read_prediction(rec, f"{name}:{lineno}")
            try:
                doc, label, value = corpus.codes(record.doc_id, record.label_id, record.variant_value)
            except CorpusError as exc:
                key = (record.model_name, record.doc_id, record.label_id, record.variant_value)
                raise PredictionFormatError(f"prediction {key!r}: {exc}") from None
            model, p = seen.setdefault(record.model_name, len(seen)), record.predicted_months
        codes += (model, doc, label, value)
        months.append(p)
    return list(seen), np.array(codes, dtype=np.int32).reshape(-1, 4), np.array(months, dtype=float)


def _inconsistency_row(label_id: str, months: np.ndarray, base: np.ndarray, tolerance: float) -> InconsistencyRow:
    """One label's change proportion from its variants' months and their baselines' months (see ``summarize``)."""
    usable = ~(np.isnan(base) | np.isnan(months))
    w = int(usable.sum())
    changed = int((np.abs(months[usable] - base[usable]) > tolerance).sum())
    p = (changed / w) if w > 0 else None
    return InconsistencyRow(label_id=label_id, p_l=p, w_l=w, n_missing=len(months) - w, n_changed=changed)


def _label_frame(
    corpus: Corpus, label_id: str, docs: np.ndarray, values: np.ndarray, months: np.ndarray, base: np.ndarray,
    diag: AnalysisDiagnostics,
) -> Optional[RegressionFrame]:
    """Rows = variants in (doc_id, value) order, then baselines of the documents with a usable variant.

    ``docs``, ``values`` and ``months`` are the label's variants and one
    model's months for them, ``base`` its baseline months by doc code. y holds
    the predicted months, group_ids the doc codes; each metric swaps in its own outcome.
    """
    seen = ~np.isnan(months)
    diag.n_missing_predictions += int((~seen).sum())
    if not seen.any():
        return None
    base_docs = np.unique(docs[seen])
    base_months = base[base_docs]
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


FitResult = Optional[statcore.RegressionResult]


def _fit(
    frame: RegressionFrame, corpus: Corpus, log1p: bool, diag: AnalysisDiagnostics
) -> tuple[FitResult, FitResult]:
    """One label's (bias, imbalance) regressions, None where the design is unidentified.

    bias      -> ln(predicted months), zero predictions dropped unless log1p;
    imbalance -> |predicted - true| months, every row.
    When both keep the same rows they share one ``fe_regress`` call, so the
    design is factored once; each result is the one a call of its own gives.
    """
    keep = None if log1p else frame.y > 0  # the rows bias keeps
    months = frame.y if keep is None else frame.y[keep]
    diag.n_zero_predictions_dropped += frame.n_obs - len(months)
    bias = _log_each(months, math.log1p if log1p else math.log)
    imbalance = np.abs(frame.y - corpus.true_months[frame.group_ids])
    if keep is None or keep.all():
        return tuple(_regress(frame, [bias, imbalance]))
    bias_frame = RegressionFrame(frame.y[keep], frame.X[keep], frame.group_ids[keep], frame.column_names)
    return _regress(bias_frame, [bias])[0], _regress(frame, [imbalance])[0]


def _regress(frame: RegressionFrame, outcomes: list[np.ndarray]) -> list[FitResult]:
    try:
        return statcore.fe_regress(frame, outcomes)
    except StatError:
        return [None] * len(outcomes)


def _finding(result: FitResult, label_id: str, metric: str, tau: float) -> Optional[LabelFinding]:
    if result is None:
        return None
    identified_ps = [p for p in result.per_coef_p if not math.isnan(p)]  # not empty: fe_regress identifies one
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


# Forking a pool of workers costs about as much as fitting 80,000 rows, and each (model, label)
# fit about as much as 1,500 rows on top of its own, so smaller work is fitted in this process.
_FORK_ROWS, _FIT_ROWS = 80_000, 1_500


def summarize(
    table: PredictionTable,
    corpus: Corpus,
    tau: float = 0.05,
    log1p: bool = False,
    tolerance: float = 0.0,
    labels: Optional[Sequence[str]] = None,
) -> list[tuple[ModelFairnessSummary, list[LabelFinding], list[InconsistencyRow], AnalysisDiagnostics]]:
    """All three metrics for each model of ``table``, in sorted model order, in one pass over ``labels``.

    ``labels`` default to every label of the corpus (see ``Corpus.select_labels``).

    Each label is one task, a ``fan_out`` one when the work is worth a fork
    (see ``_FORK_ROWS``; so call this from the main thread): it gathers the label's months for
    every model from the fork-shared table once, for each model's
    inconsistency row and regression frame, which is fitted for bias and
    imbalance (see ``_fit``). A model's findings are all bias, then all
    imbalance, each in label order, and its ``diag.unidentified_labels``
    lists the labels either metric leaves unidentified.

    A comparison counts as changed when |variant - baseline| exceeds
    ``tolerance`` (default 0: sentences are discrete months), one with a
    missing side is dropped pairwise, and the summary's inconsistency
    weights each label's change proportion by its comparisons.
    """
    if not (0 < tau < 1):
        raise MetricsError(f"tau must be in (0, 1), got {tau}")
    label_ids = corpus.select_labels(labels)
    base = table.months[:, : len(corpus.doc_ids)]  # [model, doc] -> baseline months
    for model, months in zip(table.models, base):
        if np.isnan(months).all():
            raise MetricsError(f"no baseline predictions for model {model!r}")

    def label_task(label_id: str) -> list[tuple[InconsistencyRow, list[Optional[LabelFinding]], AnalysisDiagnostics]]:
        """For each model, the label's inconsistency row, [bias, imbalance] findings and diagnostics."""
        docs, values, keys = corpus.variant_codes(label_id)
        out = []
        for months, model_base in zip(table.months[:, keys], base):
            diag = AnalysisDiagnostics()
            frame = _label_frame(corpus, label_id, docs, values, months, model_base, diag)
            fits = (None, None) if frame is None else _fit(frame, corpus, log1p, diag)
            found = [_finding(result, label_id, metric, tau) for metric, result in zip(("bias", "imbalance"), fits)]
            out.append((_inconsistency_row(label_id, months, model_base[docs], tolerance), found, diag))
        return out

    work = int(table.present.sum()) + _FIT_ROWS * len(table.models) * len(label_ids)  # in rows
    per_label = list((fan_out if work >= _FORK_ROWS else map)(label_task, label_ids))
    results = []
    for m, model in enumerate(table.models):
        by_label = [per_model[m] for per_model in per_label]  # (row, findings, diag) in label order
        rows = [row for row, _, _ in by_label]
        bias, imbalance = ([found[i] for _, found, _ in by_label if found[i] is not None] for i in (0, 1))
        diag = AnalysisDiagnostics(
            unidentified_labels=[row.label_id for row, found, _ in by_label if None in found],
            n_zero_predictions_dropped=sum(d.n_zero_predictions_dropped for _, _, d in by_label),
            n_missing_predictions=sum(d.n_missing_predictions for _, _, d in by_label),
        )
        total_w = sum(r.w_l for r in rows)
        bias_bern = bernoulli_test(len(bias), sum(f.significant for f in bias), tau)
        imb_bern = bernoulli_test(len(imbalance), sum(f.significant for f in imbalance), tau)
        summary = ModelFairnessSummary(
            model_name=model, inconsistency=(sum(r.n_changed for r in rows) / total_w) if total_w > 0 else None,
            bias_count=bias_bern.n_significant, imbalance_count=imb_bern.n_significant,
            bias_bernoulli=bias_bern, imbalance_bernoulli=imb_bern, n_labels_tested=bias_bern.n_trials,
        )
        results.append((summary, bias + imbalance, rows, diag))
    return results


def pooled_bernoulli(tests: list[BernoulliTestResult], tau: float) -> BernoulliTestResult:
    """Tail test on the significant-label counts of ``tests``, e.g. one metric's test of each model, pooled."""
    return bernoulli_test(sum(t.n_trials for t in tests), sum(t.n_significant for t in tests), tau)


def mean_inconsistency(summaries: list[ModelFairnessSummary]) -> Optional[float]:
    """Unweighted mean of per-model inconsistency aggregates."""
    vals = [s.inconsistency for s in summaries if s.inconsistency is not None]
    return (sum(vals) / len(vals)) if vals else None
