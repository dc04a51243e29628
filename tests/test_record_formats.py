"""The on-disk record formats: each line is its dataclass's fields, so renaming a field changes the format.

``from_record`` reads them back, checking each field against its annotation.
"""

import json
import math
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairjudge.corpus import (
    CaseDocument,
    Corpus,
    CorpusError,
    CounterfactualVariant,
    LabelDefinition,
    PredictionFormatError,
    PredictionRecord,
    from_record,
    read_prediction,
    read_record,
    save_corpus,
)
from fairjudge.fixtures import FixtureSpec
from fairjudge.gateway import write_predictions
from fairjudge.metrics import InconsistencyRow, LabelFinding, ModelFairnessSummary
from fairjudge.report import ReportBundle, write_report
from fairjudge.statcore import BernoulliTestResult

LABEL = LabelDefinition("gender", "binary", ("female", "male"), "female", "sex of the defendant")
DOCUMENT = CaseDocument("D1", "A theft.", 36.5, {"gender": "female"})
VARIANT = CounterfactualVariant("D1", "gender", "male", "A theft by a man.")
SUMMARY = ModelFairnessSummary(
    "m", 0.25, 1, 0, BernoulliTestResult(2, 1, 0.05, 0.0975), BernoulliTestResult(2, 0, 0.05, 1.0), 2
)


def corpus_line(name):
    def write(tmp_path):
        save_corpus(Corpus([LABEL], [DOCUMENT], [VARIANT]), tmp_path)
        return (tmp_path / name).read_text()

    return write


def prediction_line(tmp_path):
    record = PredictionRecord("m", "D1", "gender", "male", 40.0, '{"sentence_months": 40}', 2)
    write_predictions([record], tmp_path / "predictions.jsonl")
    return (tmp_path / "predictions.jsonl").read_text()


def report(tmp_path):
    finding = LabelFinding("gender", "bias", math.nan, 0.5, False, (("male", 0.25),))
    row = InconsistencyRow("gender", 0.5, 2, 1, 1)
    write_report(ReportBundle([SUMMARY], {"m": [row]}, {}), {"m": [finding]}, tmp_path)


def finding_line(tmp_path):
    report(tmp_path)
    return (tmp_path / "findings.jsonl").read_text()


def summary_entry(*path):
    def write(tmp_path):
        report(tmp_path)
        entry = json.loads((tmp_path / "summary.json").read_text())
        for step in path:
            entry = entry[step]
        return json.dumps(entry, sort_keys=True) + "\n"

    return write


@pytest.mark.parametrize(
    "write, line",
    [
        pytest.param(
            corpus_line("labels.jsonl"),
            '{"description": "sex of the defendant", "kind": "binary", "label_id": "gender", '
            '"reference_value": "female", "values": ["female", "male"]}',
            id="LabelDefinition",
        ),
        pytest.param(
            corpus_line("documents.jsonl"),
            '{"doc_id": "D1", "facts": "A theft.", "label_values": {"gender": "female"}, '
            '"true_sentence_months": 36.5}',
            id="CaseDocument",
        ),
        pytest.param(
            corpus_line("variants.jsonl"),
            '{"doc_id": "D1", "facts": "A theft by a man.", "label_id": "gender", "variant_value": "male"}',
            id="CounterfactualVariant",
        ),
        pytest.param(
            prediction_line,
            '{"attempt_count": 2, "doc_id": "D1", "label_id": "gender", "model_name": "m", '
            '"predicted_months": 40.0, "raw_response": "{\\"sentence_months\\": 40}", "variant_value": "male"}',
            id="PredictionRecord",
        ),
        pytest.param(
            finding_line,
            '{"direction_summary": [["male", 0.25]], "joint_p": null, "label_id": "gender", "metric": "bias", '
            '"min_coef_p": 0.5, "model_name": "m", "significant": false}',
            id="findings.jsonl",
        ),
        pytest.param(
            summary_entry("summaries", 0),
            '{"bias_bernoulli": {"n_significant": 1, "n_trials": 2, "p_value": 0.0975, "threshold": 0.05}, '
            '"bias_count": 1, "imbalance_bernoulli": {"n_significant": 0, "n_trials": 2, "p_value": 1.0, '
            '"threshold": 0.05}, "imbalance_count": 0, "inconsistency": 0.25, "model_name": "m", '
            '"n_labels_tested": 2}',
            id="summary.json-summary",
        ),
        pytest.param(
            summary_entry("inconsistency_rows", "m", 0),
            '{"label_id": "gender", "n_changed": 1, "n_missing": 1, "p_l": 0.5, "w_l": 2}',
            id="summary.json-inconsistency-row",
        ),
    ],
)
def test_record_line_is_exact(tmp_path, write, line):
    assert write(tmp_path) == line + "\n"


TEXT = st.text(max_size=12)  # non-ASCII, quotes, backslashes and control characters included
MONTHS = st.floats(min_value=0, allow_nan=False, allow_infinity=False)


def asdict_lines(records) -> str:
    return "".join(json.dumps(asdict(r), sort_keys=True) + "\n" for r in records)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.builds(
            lambda key, *rest: PredictionRecord(*rest[:2], *(key or (None, None)), *rest[2:]),
            st.none() | st.tuples(TEXT, TEXT),
            TEXT,
            TEXT,
            st.none() | st.integers(0, 10**6) | MONTHS,
            TEXT,
            st.integers(0, 10),
        ),
        max_size=4,
    )
)
def test_write_predictions_writes_asdict_of_each_record(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("predictions") / "p.jsonl"
    write_predictions(records, path)
    assert path.read_text(encoding="utf-8") == asdict_lines(records)


@settings(max_examples=100, deadline=None)
@given(
    label_id=TEXT,
    values=st.lists(TEXT, min_size=2, max_size=2, unique=True),
    texts=st.lists(TEXT, min_size=4, max_size=4),
    months=MONTHS.filter(lambda m: m > 0),
)
def test_save_corpus_writes_asdict_of_each_record(tmp_path_factory, label_id, values, texts, months):
    description, doc_id, facts, variant_facts = texts
    corpus = Corpus(
        [LabelDefinition(label_id, "binary", tuple(values), values[0], description)],
        [CaseDocument(doc_id, facts, months, {label_id: values[0]})],
        [CounterfactualVariant(doc_id, label_id, values[1], variant_facts)],
    )
    root = tmp_path_factory.mktemp("corpus")
    save_corpus(corpus, root)
    for name, records in (("labels", corpus.labels), ("documents", corpus.documents), ("variants", corpus.variants)):
        assert (root / f"{name}.jsonl").read_text(encoding="utf-8") == asdict_lines(records)


FINDING = LabelFinding("gender", "bias", 0.04, 0.03, True, (("male", 0.25), ("other", -0.5)))
ROW = InconsistencyRow("gender", None, 0, 3, 0)
SPEC = FixtureSpec(n_docs=5, labels=(LABEL,), bias_effects={"gender": 0.4}, stub_models=("a", "b"))


def as_json(record) -> dict:
    return json.loads(json.dumps(asdict(record)))


@pytest.mark.parametrize(
    "record", [SUMMARY, SUMMARY.bias_bernoulli, ROW, FINDING, SPEC], ids=lambda r: type(r).__name__
)
def test_from_record_reads_back_what_asdict_writes(record):
    assert from_record(type(record), as_json(record)) == record


def test_from_record_ignores_unknown_keys_and_takes_defaults():
    assert from_record(LabelFinding, dict(as_json(FINDING), model_name="m")) == FINDING
    row = as_json(ROW)
    del row["n_changed"]
    assert from_record(InconsistencyRow, row) == InconsistencyRow("gender", None, 0, 3)
    del row["w_l"]
    with pytest.raises(KeyError, match="w_l"):
        from_record(InconsistencyRow, row)
    with pytest.raises(KeyError, match="n_significant"):  # in a nested record
        from_record(ModelFairnessSummary, dict(as_json(SUMMARY), bias_bernoulli={"n_trials": 2}))


@pytest.mark.parametrize(
    "cls, fields, message",
    [
        (BernoulliTestResult, {"n_trials": True}, "n_trials must be an integer, got True"),
        (BernoulliTestResult, {"p_value": False}, "p_value must be a number, got False"),
        (BernoulliTestResult, {"n_trials": 2.0}, "n_trials must be an integer, got 2.0"),
        (LabelFinding, {"significant": 1}, "significant must be a boolean, got 1"),
        (InconsistencyRow, {"w_l": None}, "w_l must be an integer, got None"),
        (InconsistencyRow, {"p_l": "x"}, "p_l must be a number or null, got 'x'"),
        (LabelFinding, {"direction_summary": [["male"]]},
         "direction_summary[0] must be a list of 2 items, got ['male']"),
        (LabelFinding, {"direction_summary": [["male", 1, 2]]},
         "direction_summary[0] must be a list of 2 items, got ['male', 1, 2]"),
        (LabelFinding, {"direction_summary": [["male", "x"]]}, "direction_summary[0][1] must be a number, got 'x'"),
        (LabelFinding, {"direction_summary": {"male": 1}}, "direction_summary must be a list, got {'male': 1}"),
        (ModelFairnessSummary, {"bias_bernoulli": [2, 1]}, "bias_bernoulli must be an object, got [2, 1]"),
        (FixtureSpec, {"bias_effects": {"gender": "x"}}, "bias_effects['gender'] must be a number, got 'x'"),
        (FixtureSpec, {"stub_models": "ab"}, "stub_models must be a list, got 'ab'"),
        (FixtureSpec, {"labels": [7]}, "labels[0] must be an object, got 7"),
        (InconsistencyRow, {"p_l": True}, "p_l must be a number or null, got True"),
        (BernoulliTestResult, {"p_value": None}, "p_value must be a number, got None"),
        (LabelFinding, {"label_id": None}, "label_id must be a string, got None"),
        (PredictionRecord, {"predicted_months": False}, "predicted_months must be a number or null, got False"),
        (PredictionRecord, {"attempt_count": True}, "attempt_count must be an integer, got True"),
        (PredictionRecord, {"raw_response": None}, "raw_response must be a string, got None"),
    ],
)
def test_from_record_rejects_a_field_not_of_its_type(cls, fields, message):
    record = {FixtureSpec: {}, BernoulliTestResult: as_json(SUMMARY.bias_bernoulli), InconsistencyRow: as_json(ROW),
              LabelFinding: as_json(FINDING), ModelFairnessSummary: as_json(SUMMARY),
              PredictionRecord: {"model_name": "m", "doc_id": "d"}}[cls]
    with pytest.raises(TypeError) as info:
        from_record(cls, dict(record, **fields))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "cls, record",
    [
        (BernoulliTestResult, {"n_trials": 2, "n_significant": 0, "threshold": 0, "p_value": 1}),
        (InconsistencyRow, {"label_id": "gender", "p_l": 1, "w_l": 3, "n_missing": 0}),
        (InconsistencyRow, {"label_id": "gender", "p_l": None, "w_l": 3, "n_missing": 0}),
        (PredictionRecord, {"model_name": "m", "doc_id": "d", "predicted_months": 12, "attempt_count": 1}),
        (PredictionRecord, {"model_name": "m", "doc_id": "d", "predicted_months": None}),
    ],
    ids=["int-number", "int-optional-number", "null-optional-number", "int-months", "null-months"],
)
def test_from_record_takes_an_integer_as_a_number_and_needs_an_object(cls, record):
    """An integer for a number field is kept as an integer, and null for an Optional field as null."""
    read = from_record(cls, record)
    assert read == cls(**record)
    assert {name: type(getattr(read, name)) for name in record} == {name: type(v) for name, v in record.items()}
    with pytest.raises(TypeError, match=rf"^{cls.__name__} must be an object, got \[\]$"):
        from_record(cls, [])


def test_read_record_names_every_missing_field_first():
    with pytest.raises(CorpusError, match=r"^documents\.jsonl:4: missing fields \['facts', 'true_sentence_months'\]$"):
        read_record(CaseDocument, {"doc_id": 1}, "documents.jsonl:4", CorpusError)


def test_a_prediction_line_may_omit_all_but_its_key():
    assert read_prediction({"model_name": "m", "doc_id": "D1"}, "p.jsonl:1") == PredictionRecord("m", "D1")
    with pytest.raises(PredictionFormatError, match=r"^p\.jsonl:1: missing fields \['model_name'\]$"):
        read_prediction({"doc_id": 7}, "p.jsonl:1")
    with pytest.raises(PredictionFormatError, match=r"^p\.jsonl:1: label_id and variant_value must be both"):
        read_prediction({"model_name": "m", "doc_id": "D1", "label_id": "gender"}, "p.jsonl:1")
