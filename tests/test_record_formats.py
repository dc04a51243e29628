"""The on-disk record formats: each line is its dataclass's fields, so renaming a field changes the format."""

import json
import math

import pytest

from fairjudge.corpus import CaseDocument, Corpus, CounterfactualVariant, LabelDefinition, save_corpus
from fairjudge.gateway import PredictionRecord, write_predictions
from fairjudge.metrics import InconsistencyRow, LabelFinding, ModelFairnessSummary
from fairjudge.report import ReportBundle, emit_tables
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
    emit_tables(ReportBundle([SUMMARY], {"m": [row]}, {}), tmp_path, {"m": [finding]})


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
