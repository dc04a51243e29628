"""Metric tests: inconsistency arithmetic, planted-effect detection, pooling."""

import dataclasses
import math
import os
import random
import re
import tracemalloc

import numpy as np
import pytest

from fairjudge.corpus import (
    CaseDocument,
    Corpus,
    CorpusError,
    CounterfactualVariant,
    LabelDefinition,
    PredictionFormatError,
    PredictionRecord,
    load_corpus,
)
from fairjudge.fixtures import default_label_specs, default_spec, generate_fixture, simulate_predictions, write_fixture
from fairjudge.gateway import write_predictions
from fairjudge.metrics import (
    MetricsError,
    PredictionTable,
    mean_inconsistency,
    pooled_bernoulli,
)
from fairjudge import metrics, statcore
from fairjudge.statcore import RegressionFrame, fe_regress
from prediction_files import read_predictions
from test_corpus import shuffled_corpus

MODEL = "m"


def record(doc_id, months, label_id=None, value=None, model=MODEL):
    return PredictionRecord(
        model_name=model,
        doc_id=doc_id,
        label_id=label_id,
        variant_value=value,
        predicted_months=months,
        raw_response="",
        attempt_count=1,
    )


def comparison_corpus(n_docs_a=10, n_docs_b=30):
    """Two binary labels; label A has variants on the first block, B on the second."""
    labels = [
        LabelDefinition("A", "binary", ("a0", "a1"), "a0"),
        LabelDefinition("B", "binary", ("b0", "b1"), "b0"),
    ]
    docs, variants = [], []
    for i in range(n_docs_a + n_docs_b):
        doc_id = f"d{i:03d}"
        docs.append(CaseDocument(doc_id, "facts", 24.0, {"A": "a0", "B": "b0"}))
        if i < n_docs_a:
            variants.append(CounterfactualVariant(doc_id, "A", "a1", "facts'"))
        else:
            variants.append(CounterfactualVariant(doc_id, "B", "b1", "facts'"))
    return Corpus(labels, docs, variants)


def summarize(records, corpus, model=MODEL, **options):
    """``model``'s result of ``metrics.summarize`` on the table of ``records``."""
    table = PredictionTable.build(records, corpus)
    return metrics.summarize(table, corpus, **options)[table.models.index(model)]


def flip_records(corpus, flips_a, flips_b):
    """Baselines all 10 months; flip the first k variants of each label to 20."""
    records = [record(d.doc_id, 10.0) for d in corpus.documents]
    counts = {"A": 0, "B": 0}
    for label_id, flips in (("A", flips_a), ("B", flips_b)):
        for var in corpus.variants:
            if var.label_id == label_id:
                counts[label_id] += 1
                months = 20.0 if counts[label_id] <= flips else 10.0
                records.append(record(var.doc_id, months, label_id, var.variant_value))
    return records


def test_inconsistency_no_changes_zero():
    corpus = comparison_corpus()
    summary, _, rows, _ = summarize(flip_records(corpus, 0, 0), corpus)
    assert summary.inconsistency == 0.0
    assert all(r.p_l == 0.0 for r in rows)


def test_inconsistency_weighted_aggregate_exact():
    # w = (10, 30), p = (0.1, 0.3) -> (1 + 9) / 40 = 0.25 exactly.
    corpus = comparison_corpus(10, 30)
    summary, _, rows, _ = summarize(flip_records(corpus, 1, 9), corpus)
    by_label = {r.label_id: r for r in rows}
    assert by_label["A"].w_l == 10 and by_label["A"].p_l == 0.1
    assert by_label["B"].w_l == 30 and by_label["B"].p_l == 0.3
    assert summary.inconsistency == 0.25


def test_inconsistency_counts_flips_in_fixture():
    corpus = comparison_corpus(20, 0)
    _, _, rows, _ = summarize(flip_records(corpus, 3, 0), corpus)
    row = next(r for r in rows if r.label_id == "A")
    assert row.p_l == pytest.approx(3 / 20)
    assert row.n_changed == 3


def test_inconsistency_missing_dropped_pairwise():
    corpus = comparison_corpus(10, 0)
    records = flip_records(corpus, 2, 0)
    # Null out one variant prediction: w drops, numerator unaffected elsewhere.
    idx = next(i for i, r in enumerate(records) if r.label_id == "A" and r.predicted_months == 10.0)
    records[idx] = record(records[idx].doc_id, None, "A", records[idx].variant_value)
    _, _, rows, _ = summarize(records, corpus)
    row = next(r for r in rows if r.label_id == "A")
    assert row.w_l == 9
    assert row.n_missing == 1
    assert row.n_changed == 2


def test_inconsistency_requires_baselines():
    corpus = comparison_corpus(2, 0)
    with pytest.raises(MetricsError, match="no baseline"):
        summarize([record("d000", 5.0, "A", "a1")], corpus)


def test_inconsistency_row_order_invariance():
    corpus = comparison_corpus(10, 10)
    records = flip_records(corpus, 2, 5)
    shuffled = records[:]
    random.Random(4).shuffle(shuffled)
    assert summarize(records, corpus) == summarize(shuffled, corpus)


def test_inconsistency_aggregate_is_convex_combination():
    corpus = comparison_corpus(10, 30)
    summary, _, rows, _ = summarize(flip_records(corpus, 4, 3), corpus)
    ps = [r.p_l for r in rows if r.w_l > 0]
    assert min(ps) <= summary.inconsistency <= max(ps)


# --- bias --------------------------------------------------------------------

def planted_fixture(n_docs=120, n_labels=4, effect=0.4, seed=5):
    corpus, _ = generate_fixture(seed=seed, n_docs=n_docs, label_specs=default_label_specs(n_labels))
    records = simulate_predictions(
        corpus, MODEL, seed=seed + 1, bias_effects={"L01": effect},
        noise_sigma=0.2, error_scale=0.0,
    )
    return corpus, records


def test_bias_detects_planted_effect():
    corpus, records = planted_fixture()
    summary, findings, _, diag = summarize(records, corpus, tau=0.05)
    by_label = {f.label_id: f for f in findings if f.metric == "bias"}
    assert by_label["L01"].significant
    assert by_label["L01"].direction_summary[0][1] > 0.2  # positive planted effect
    assert summary.bias_bernoulli.n_trials == 4
    assert diag.unidentified_labels == []


def test_bias_zero_k_gives_p_one():
    corpus, records = planted_fixture(effect=0.0, n_docs=30)
    bern = summarize(records, corpus, tau=0.001)[0].bias_bernoulli
    if bern.n_significant == 0:
        assert bern.p_value == 1.0


def test_bias_document_scaling_invariance():
    corpus, records = planted_fixture(n_docs=60)
    findings1 = [f for f in summarize(records, corpus)[1] if f.metric == "bias"]
    scaled = []
    scale = {d.doc_id: 1.0 + (i % 7) for i, d in enumerate(corpus.documents)}
    for r in records:
        scaled.append(record(r.doc_id, r.predicted_months * scale[r.doc_id], r.label_id, r.variant_value))
    findings2 = [f for f in summarize(scaled, corpus)[1] if f.metric == "bias"]
    for f1, f2 in zip(findings1, findings2):
        assert f1.label_id == f2.label_id
        for (v1, c1), (v2, c2) in zip(f1.direction_summary, f2.direction_summary):
            assert math.isclose(c1, c2, abs_tol=1e-8)


def test_bias_zero_predictions_dropped_by_default():
    corpus = comparison_corpus(6, 0)
    records = flip_records(corpus, 0, 0)
    records[0] = record(records[0].doc_id, 0.0)  # one zero baseline
    _, _, _, diag = summarize(records, corpus)
    assert diag.n_zero_predictions_dropped == 1
    _, _, _, diag1p = summarize(records, corpus, log1p=True)
    assert diag1p.n_zero_predictions_dropped == 0


def test_bias_unidentified_label_excluded_from_n():
    corpus = comparison_corpus(6, 0)  # label B has no variants
    records = flip_records(corpus, 3, 0)
    summary, findings, _, diag = summarize(records, corpus)
    assert "B" in diag.unidentified_labels
    assert summary.bias_bernoulli.n_trials == len([f for f in findings if f.metric == "bias"]) == 1


@pytest.mark.parametrize(
    "route, reason",
    [("one-document", "need >= 2 clusters, got 1"), ("no-baselines", "all groups are singletons")],
)
def test_a_label_the_fit_cannot_identify_is_unidentified_and_untested(monkeypatch, route, reason):
    """Label A's fit raises a StatError; label B's is fitted as usual."""
    corpus = comparison_corpus(10, 30)
    records = flip_records(corpus, 3, 5)
    a_docs = {v.doc_id for v in corpus.variants if v.label_id == "A"}
    if route == "one-document":  # A predicted for d000 alone
        records = [r for r in records if r.label_id != "A" or r.doc_id == "d000"]
    else:  # A's documents lose their baselines, B's keep theirs
        records = [r for r in records if r.label_id is not None or r.doc_id not in a_docs]
    raised = []

    def spy(frame, outcomes):
        try:
            return fe_regress(frame, outcomes)
        except statcore.StatError as exc:
            raised.append(str(exc))
            raise

    monkeypatch.setattr(statcore, "fe_regress", spy)
    summary, findings, _, diag = summarize(records, corpus)
    assert raised and all(reason in message for message in raised)
    assert diag.unidentified_labels == ["A"]
    assert {f.label_id for f in findings} == {"B"}
    assert summary.n_labels_tested == summary.bias_bernoulli.n_trials == summary.imbalance_bernoulli.n_trials == 1


def test_bias_threshold_monotonicity():
    corpus, records = planted_fixture(n_docs=80)
    bern_small = summarize(records, corpus, tau=0.01)[0].bias_bernoulli
    bern_big = summarize(records, corpus, tau=0.05)[0].bias_bernoulli
    assert bern_small.n_significant <= bern_big.n_significant


# --- imbalance ---------------------------------------------------------------

def test_imbalance_perfect_predictor_all_null():
    corpus = comparison_corpus(8, 8)
    records = [record(d.doc_id, d.true_sentence_months) for d in corpus.documents]
    for var in corpus.variants:
        doc = corpus.document(var.doc_id)
        records.append(record(doc.doc_id, doc.true_sentence_months, var.label_id, var.variant_value))
    bern = summarize(records, corpus)[0].imbalance_bernoulli
    assert bern.n_significant == 0
    assert bern.p_value == 1.0


def test_imbalance_detects_error_doubling():
    corpus, _ = generate_fixture(seed=9, n_docs=150, label_specs=default_label_specs(3))
    records = simulate_predictions(
        corpus, MODEL, seed=10, error_multipliers={"L02": 2.0},
        noise_sigma=0.05, error_scale=0.3,
    )
    _, findings, _, _ = summarize(records, corpus)
    by_label = {f.label_id: f for f in findings if f.metric == "imbalance"}
    assert by_label["L02"].significant


# --- pooling and summaries -------------------------------------------------

def summary_with(model, n, k_bias, k_imb):
    from fairjudge.metrics import ModelFairnessSummary
    from fairjudge.statcore import bernoulli_test

    return ModelFairnessSummary(
        model_name=model,
        inconsistency=0.1,
        bias_count=k_bias,
        imbalance_count=k_imb,
        bias_bernoulli=bernoulli_test(n, k_bias, 0.05),
        imbalance_bernoulli=bernoulli_test(n, k_imb, 0.05),
        n_labels_tested=n,
    )


def test_pooled_single_model_identity():
    s = summary_with("a", 65, 27, 19)
    assert pooled_bernoulli([s.bias_bernoulli], 0.05) == s.bias_bernoulli


def test_pooled_across_models_matches_totals():
    summaries = [summary_with("a", 65, 27, 19), summary_with("b", 65, 30, 29),
                 summary_with("c", 65, 30, 35)]
    pooled = pooled_bernoulli([s.bias_bernoulli for s in summaries], 0.05)
    assert pooled.n_trials == 195 and pooled.n_significant == 87
    assert pooled.p_value < 1e-15


def test_pooled_all_zero_is_one():
    summaries = [summary_with("a", 65, 0, 0), summary_with("b", 65, 0, 0)]
    assert pooled_bernoulli([s.bias_bernoulli for s in summaries], 0.05).p_value == 1.0


def test_pooled_tests_of_a_summary_equal_the_test_of_their_totals():
    corpus, _ = generate_fixture(seed=5, n_docs=60, label_specs=default_label_specs(4))
    records = [
        r for i, (model, effect) in enumerate([("a", 0.0), ("b", 0.4), ("c", 0.8)])
        for r in simulate_predictions(corpus, model, seed=6 + i, bias_effects={"L01": effect, "L02": effect},
                                      error_multipliers={"L03": 1 + effect}, noise_sigma=0.2)
    ]
    summaries = [summary for summary, *_ in metrics.summarize(PredictionTable.build(records, corpus), corpus)]
    assert [s.model_name for s in summaries] == ["a", "b", "c"]
    for metric in ("bias", "imbalance"):
        tests = [getattr(s, f"{metric}_bernoulli") for s in summaries]
        n, k = sum(t.n_trials for t in tests), sum(t.n_significant for t in tests)
        assert n == 12 and k > 0
        assert pooled_bernoulli(tests, 0.05) == statcore.bernoulli_test(n, k, 0.05)


def test_summarize_model_counts_match_findings():
    corpus, records = planted_fixture(n_docs=100)
    summary, findings, rows, diag = summarize(records, corpus)
    bias_sig = sum(1 for f in findings if f.metric == "bias" and f.significant)
    imb_sig = sum(1 for f in findings if f.metric == "imbalance" and f.significant)
    assert summary.bias_count == bias_sig == summary.bias_bernoulli.n_significant
    assert summary.imbalance_count == imb_sig
    assert summary.bias_count <= summary.n_labels_tested
    assert mean_inconsistency([summary]) == summary.inconsistency


# --- prediction table ------------------------------------------------------

def test_one_missing_variant_counts_once():
    corpus = comparison_corpus(10, 0)
    records = flip_records(corpus, 2, 0)
    idx = next(i for i, r in enumerate(records) if r.label_id == "A")
    records[idx] = record(records[idx].doc_id, None, "A", records[idx].variant_value)
    _, _, _, diag = summarize(records, corpus)
    assert diag.n_missing_predictions == 1


def test_one_table_serves_every_model():
    corpus, records = planted_fixture(n_docs=40)
    other = [record(r.doc_id, r.predicted_months, r.label_id, r.variant_value, model="n") for r in records]
    table = PredictionTable.build(records + other, corpus)
    assert table.models == (MODEL, "n")
    summary_n, *rest_n = metrics.summarize(table, corpus)[table.models.index("n")]
    summary_m, *rest_m = summarize(records, corpus)
    assert dataclasses.replace(summary_n, model_name=MODEL) == summary_m
    assert rest_n[:2] == rest_m[:2]


def test_table_of_records_leaves_the_records_no_larger():
    """Reading a record's fields gives it no ``__dict__`` to keep (``vars`` did, about 64 bytes a record)."""
    corpus = comparison_corpus(n_docs_a=5000, n_docs_b=5000)
    records = flip_records(corpus, 0, 0)
    assert len(records) == 20000
    PredictionTable.build(records[:10], corpus)  # builds the corpus's lookup tables first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        PredictionTable.build(records, corpus)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 100_000, grown


def test_a_wide_fit_holds_about_three_copies_of_the_design():
    """One fit of a 32-valued label holds its demeaned copy of X, Q and the pivot-ordered kept columns, no more."""
    corpus, _ = generate_fixture(seed=11, n_docs=1000, label_specs=default_label_specs(1, n_values=32))
    table = PredictionTable.build(simulate_predictions(corpus, MODEL, seed=12), corpus)
    (label_id,) = corpus.label_ids
    docs, values, keys = corpus.variant_codes(label_id)
    months = table.months[0]
    diag = metrics.AnalysisDiagnostics()
    frame = metrics._label_frame(corpus, label_id, docs, values, months[keys], months[: len(corpus.doc_ids)], diag)
    assert frame.X.shape[1] == 31 and (frame.y > 0).all()  # so bias and imbalance share one fit
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fits = metrics._fit(frame, corpus, False, diag)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert None not in fits
    assert peak < 3.6 * frame.X.nbytes, peak / frame.X.nbytes


@pytest.mark.parametrize(
    "bad, reason",
    [
        (record("d999", 5.0), "unknown doc_id 'd999'"),
        (record("d000", 5.0, "C", "c1"), "undeclared label 'C'"),
        (record("d000", 5.0, "A", "a9"), "value 'a9' not admissible for label 'A'"),
        (record("d000", 5.0, "A", "a0"), "no such variant in the corpus"),  # the document's baseline value
        (record("d000", 5.0, "B", "b1"), "no such variant in the corpus"),  # B's variants are on other docs
        (record("d000", 5.0, "A", "a0", model="a"), "no such variant in the corpus"),  # seen second, sorted first
    ],
)
def test_table_rejects_records_the_corpus_does_not_know(bad, reason):
    corpus = comparison_corpus(4, 0)
    with pytest.raises(PredictionFormatError) as exc:
        PredictionTable.build(flip_records(corpus, 0, 0) + [bad], corpus)
    assert str(exc.value) == f"prediction {(bad.model_name, bad.doc_id, bad.label_id, bad.variant_value)!r}: {reason}"


@pytest.mark.parametrize("duplicate, message", [(0, "duplicate baseline prediction for doc 'd000'"),
                                                (-1, "duplicate variant prediction for ('d003', 'A', 'a1')")])
def test_duplicate_prediction_keys_rejected(duplicate, message):
    corpus = comparison_corpus(4, 0)
    records = flip_records(corpus, 0, 0)
    with pytest.raises(MetricsError, match=re.escape(message)):
        summarize(records + [records[duplicate]], corpus)


@pytest.mark.parametrize("duplicate, message", [(0, "duplicate baseline prediction for doc 'd000'"),
                                                (-1, "duplicate variant prediction for ('d007', 'B', 'b1')")])
def test_table_rejects_a_repeated_key_of_any_label(tmp_path, duplicate, message):
    """Of two models that repeat a key, the first in name order is reported."""
    corpus = comparison_corpus(4, 4)
    mine = flip_records(corpus, 0, 0)
    later = [dataclasses.replace(r, model_name="z") for r in mine]  # read first, sorted last
    records = later + [later[1]] + mine + [mine[duplicate]]
    write_predictions(records, tmp_path / "p.jsonl")
    with pytest.raises(MetricsError, match=f"^{re.escape(message)}$"):
        PredictionTable.build(records, corpus)
    with pytest.raises(MetricsError, match=f"^{re.escape(message)}$"):
        PredictionTable.read([tmp_path / "p.jsonl"], corpus)


def test_table_names_the_first_repeated_key_in_code_order():
    """Labels and values in declared order, not string order, and a document's baseline after its variants."""
    corpus, _ = shuffled_corpus()
    records = [record(d.doc_id, 12.0) for d in corpus.documents]
    records += [record(v.doc_id, 12.0, v.label_id, v.variant_value) for v in corpus.variants]
    # Every key of d2 and of d10, which sorts first: its baseline, Z=v10, Z=v1 and A=yes, in code order.
    records += [r for r in records if r.doc_id in ("d2", "d10")][::-1]
    with pytest.raises(MetricsError, match=re.escape("duplicate variant prediction for ('d10', 'Z', 'v10')")):
        PredictionTable.build(records, corpus)


def test_label_filter_keeps_only_requested_labels():
    corpus = comparison_corpus(10, 10)
    records = flip_records(corpus, 2, 5)
    table = PredictionTable.build(records, corpus)
    _, _, rows, _ = metrics.summarize(table, corpus, labels=["B"])[table.models.index(MODEL)]
    assert [r.label_id for r in rows] == ["B"]
    assert rows == [r for r in summarize(records, corpus)[2] if r.label_id == "B"]


def test_labels_given_in_any_order_give_the_results_of_every_label():
    corpus = comparison_corpus(10, 10)
    records = flip_records(corpus, 2, 5)
    assert summarize(records, corpus, labels=["B", "A", "B"]) == summarize(records, corpus)
    assert [r.label_id for r in summarize(records, corpus)[2]] == ["A", "B"]


def test_summarize_names_the_first_unknown_label():
    corpus = comparison_corpus(10, 10)
    with pytest.raises(CorpusError, match=r"^unknown label_id 'nope'$"):
        summarize(flip_records(corpus, 2, 5), corpus, labels=["B", "nope", "also-nope"])


def table_reference(records, corpus):
    """(models, months, present) filled one record at a time: a key is the place of its ``Corpus.codes``
    among the documents' baselines, in doc_id order, and then the variants, in ``Corpus.variants`` order."""
    keys = [corpus.codes(doc_id, None, None) for doc_id in corpus.doc_ids]
    keys += [corpus.codes(v.doc_id, v.label_id, v.variant_value) for v in corpus.variants]
    place = {codes: key for key, codes in enumerate(keys)}
    models = sorted({r.model_name for r in records})
    months = np.full((len(models), len(keys)), np.nan)
    present = np.zeros(months.shape, dtype=bool)
    for r in records:
        cell = models.index(r.model_name), place[corpus.codes(r.doc_id, r.label_id, r.variant_value)]
        months[cell] = math.nan if r.predicted_months is None else r.predicted_months
        present[cell] = True
    return tuple(models), months, present


def assert_table_is(table, reference):
    models, months, present = reference
    assert table.models == models
    np.testing.assert_array_equal(table.months, months)
    np.testing.assert_array_equal(table.present, present)


def test_streamed_table_equals_table_of_records(tmp_path):
    spec = dataclasses.replace(default_spec(), stub_models=("stub-b", "stub-c", "stub-a"))
    write_fixture(spec, seed=11, out_dir=tmp_path)
    corpus = load_corpus(tmp_path)
    paths = [tmp_path / f"predictions_{m}.jsonl" for m in spec.stub_models]  # models out of name order
    records = [r for p in paths for r in read_predictions(p)]
    streamed = PredictionTable.read(paths, corpus)
    built = PredictionTable.build(records, corpus)
    assert streamed.models == built.models == ("stub-a", "stub-b", "stub-c")
    assert streamed.present.all()  # every model predicts every key of every label
    for table in (streamed, built):
        assert_table_is(table, table_reference(records, corpus))


def test_read_equals_build_and_a_codes_reference(tmp_path):
    """Shuffled lines over three files, integer, float and null months, value orders unlike string order."""
    corpus, variants = shuffled_corpus()
    rng = random.Random(5)
    keys = [(d.doc_id, None, None) for d in corpus.documents] + [
        (v.doc_id, v.label_id, v.variant_value) for v in variants
    ]
    records = [
        record(doc_id, rng.choice([None, rng.randint(0, 60), rng.uniform(0, 60)]), label_id, value, model=model)
        for model in ("m-b", "m-a") for doc_id, label_id, value in keys
    ]
    rng.shuffle(records)
    del records[::7]  # keys a model does not predict are absent, unlike null predictions
    paths = [tmp_path / f"p{i}.jsonl" for i in range(3)]
    for i, path in enumerate(paths):
        write_predictions(records[i::3], path)
    in_file_order = [r for p in paths for r in read_predictions(p)]
    streamed = PredictionTable.read(paths, corpus)
    built = PredictionTable.build(in_file_order, corpus)
    months = [r.predicted_months for r in in_file_order]
    assert any(isinstance(m, int) for m in months) and None in months
    reference = table_reference(in_file_order, corpus)
    assert reference[0] == ("m-a", "m-b") and not reference[2].all()
    for table in (streamed, built):
        assert_table_is(table, reference)


def loop_reference(records, corpus, model, log1p=False):
    """Row-by-row frames built from dict indexes, one fe_regress call per metric: the reference for the vectorised table path.

    Returns {(label, metric): RegressionResult} and the missing-prediction count.
    """
    mine = [r for r in records if r.model_name == model]
    baseline = {r.doc_id: r.predicted_months for r in mine if r.label_id is None}
    variants = {(r.doc_id, r.label_id, r.variant_value): r.predicted_months for r in mine if r.label_id}
    true = {d.doc_id: d.true_sentence_months for d in corpus.documents}
    results, n_missing = {}, 0
    for label_id in sorted(corpus.label_ids):
        rows = []
        for var in corpus.variants:
            if var.label_id != label_id:
                continue
            months = variants.get((var.doc_id, label_id, var.variant_value))
            n_missing += months is None
            if months is not None:
                rows.append((var.doc_id, var.variant_value, months))
        for doc_id in sorted({d for d, _, _ in rows}):
            n_missing += baseline[doc_id] is None
            if baseline[doc_id] is not None:
                rows.append((doc_id, None, baseline[doc_id]))
        columns = [c for c in corpus.label(label_id).values if any(v == c for _, v, _ in rows)]
        for metric in ("bias", "imbalance"):
            kept = [r for r in rows if metric == "imbalance" or log1p or r[2] > 0]
            log = math.log1p if log1p else math.log
            y = [log(m) if metric == "bias" else abs(m - true[d]) for d, _, m in kept]
            X = [[float(v == c) for c in columns] for _, v, _ in kept]
            groups = np.array([d for d, _, _ in kept])
            results[(label_id, metric)] = fe_regress(RegressionFrame(np.array(y), np.array(X), groups, tuple(columns)))
    return results, n_missing


def test_table_path_equals_loop_reference_exactly():
    corpus, records = planted_fixture(n_docs=60)
    records = [
        dataclasses.replace(r, predicted_months=None if i % 17 == 4 else 0.0 if i % 23 == 6 else r.predicted_months)
        for i, r in enumerate(records)
    ]
    _, findings, _, diag = summarize(records, corpus)
    reference, n_missing = loop_reference(records, corpus, MODEL)
    assert diag.n_missing_predictions == n_missing > 0
    assert diag.n_zero_predictions_dropped > 0
    assert len(findings) == len(reference)
    for f in findings:
        ref = reference[(f.label_id, f.metric)]
        assert f.direction_summary == tuple(zip(ref.column_names, ref.coefficients.tolist()))
        assert f.joint_p == ref.joint_p and f.min_coef_p == min(ref.per_coef_p)


@pytest.mark.parametrize("zeros, log1p", [(False, False), (True, False), (True, True)])
def test_metrics_share_a_fit_only_when_they_keep_the_same_rows(monkeypatch, zeros, log1p):
    corpus, records = planted_fixture(n_docs=60)
    if zeros:  # a zero baseline is in every label's frame
        records = [dataclasses.replace(r, predicted_months=0.0) if r.doc_id == corpus.doc_ids[0] and r.label_id is None else r
                   for r in records]
    fit, calls = statcore.fe_regress, []

    def counted(frame, outcomes):
        calls.append(len(outcomes))
        return fit(frame, outcomes)

    monkeypatch.setattr(statcore, "fe_regress", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)  # the fits run in this process
    _, findings, _, diag = summarize(records, corpus, log1p=log1p)
    monkeypatch.undo()
    # bias drops the zero rows unless log1p, and then each metric is fitted on its own
    assert calls == ([1, 1] if zeros and not log1p else [2]) * len(corpus.labels)
    assert diag.n_zero_predictions_dropped == (len(corpus.labels) if zeros and not log1p else 0)
    reference, _ = loop_reference(records, corpus, MODEL, log1p)
    assert len(findings) == len(reference)
    for f in findings:
        ref = reference[(f.label_id, f.metric)]
        assert f.direction_summary == tuple(zip(ref.column_names, ref.coefficients.tolist()))
        assert f.joint_p == ref.joint_p and f.min_coef_p == min(ref.per_coef_p)
