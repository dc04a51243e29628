"""Report tests: tables, HTML, golden determinism, lossless write/read round trip."""

import csv
import dataclasses
import json
import math

import pytest

from fairjudge.metrics import InconsistencyRow, LabelFinding, ModelFairnessSummary
from fairjudge.report import SUMMARY_CSV_COLUMNS, ReportBundle, read_report, write_report
from fairjudge.statcore import bernoulli_test


def make_summary(model, inconsistency=0.134, n=65, k_bias=27, k_imb=19):
    return ModelFairnessSummary(
        model_name=model,
        inconsistency=inconsistency,
        bias_count=k_bias,
        imbalance_count=k_imb,
        bias_bernoulli=bernoulli_test(n, k_bias, 0.05),
        imbalance_bernoulli=bernoulli_test(n, k_imb, 0.05),
        n_labels_tested=n,
    )


def make_bundle(models=("glm", "qwen", "gemini")):
    summaries = [make_summary(m, inconsistency=0.1 + 0.01 * i) for i, m in enumerate(sorted(models))]
    rows = {
        m: [InconsistencyRow("L01", 0.25, 20, 1, 5), InconsistencyRow("L02", None, 0, 3, 0)]
        for m in models
    }
    from fairjudge.metrics import pooled_bernoulli

    pooled = {
        "bias": pooled_bernoulli([s.bias_bernoulli for s in summaries], 0.05),
        "imbalance": pooled_bernoulli([s.imbalance_bernoulli for s in summaries], 0.05),
    }
    return ReportBundle(
        summaries=summaries,
        inconsistency_rows=rows,
        pooled=pooled,
        run_metadata={"tool_version": "test", "timestamp": ""},
    )


def findings_for(models):
    return {
        m: [
            LabelFinding("L01", "bias", 0.003, 0.001, True, (("v1", 0.4),)),
            LabelFinding("L01", "imbalance", 0.4, 0.2, False, (("v1", -1.2),)),
        ]
        for m in models
    }


def test_summary_csv_columns_and_rows(tmp_path):
    write_report(make_bundle(), findings_for(["glm", "qwen", "gemini"]), tmp_path)
    with (tmp_path / "summary.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == SUMMARY_CSV_COLUMNS
    assert len(rows) == 4
    assert [r[0] for r in rows[1:]] == ["gemini", "glm", "qwen"]  # model-name order
    # Display convention: deep-tail p shows as 0.00, exact value in JSON.
    assert rows[1][3] == "0.00"
    data = json.loads((tmp_path / "summary.json").read_text())
    assert 0 < data["summaries"][0]["bias_bernoulli"]["p_value"] < 1e-10


def test_empty_findings_header_only_csv(tmp_path):
    write_report(make_bundle(models=("solo",)), {}, tmp_path)
    lines = (tmp_path / "labels_bias.csv").read_text().strip().splitlines()
    assert len(lines) == 1  # header only


def test_golden_tables_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        write_report(make_bundle(), findings_for(["glm", "qwen", "gemini"]), out)
    for name in ("summary.csv", "summary.json", "findings.jsonl", "labels_bias.csv",
                 "labels_imbalance.csv", "labels_inconsistency.csv", "report.html"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_html_three_chart_containers_single_model(tmp_path):
    write_report(make_bundle(models=("solo",)), {}, tmp_path)
    html_text = (tmp_path / "report.html").read_text()
    assert html_text.count('class="chart"') == 3
    assert "<svg" in html_text
    assert "http://" not in html_text and "https://" not in html_text  # self-contained


def embedded_json(html_text):
    start = html_text.index('id="report-data">') + len('id="report-data">')
    return json.loads(html_text[start : html_text.index("</script>", start)])


def test_html_embedded_json_round_trips(tmp_path):
    write_report(make_bundle(), {}, tmp_path)
    html_text = (tmp_path / "report.html").read_text()
    assert embedded_json(html_text) == json.loads((tmp_path / "summary.json").read_text())


def test_html_names_cannot_end_the_data_block(tmp_path):
    write_report(make_bundle(models=("</script><b>x", "a&b")), {}, tmp_path)
    html_text = (tmp_path / "report.html").read_text()
    assert html_text.count("</script>") == 1
    assert embedded_json(html_text) == json.loads((tmp_path / "summary.json").read_text())


def test_report_lossless_round_trip(tmp_path):
    bundle, findings = make_bundle(), findings_for(["glm", "qwen", "gemini"])
    findings["glm"].append(LabelFinding("L02", "bias", math.nan, 0.5, False, ()))
    write_report(bundle, findings, tmp_path)
    restored, restored_findings = read_report(tmp_path / "summary.json")
    assert restored.summaries == sorted(bundle.summaries, key=lambda s: s.model_name)
    assert restored.pooled == bundle.pooled
    assert restored.inconsistency_rows == bundle.inconsistency_rows
    assert restored.run_metadata == bundle.run_metadata
    nan_finding = restored_findings["glm"].pop()  # NaN != NaN, so this one is compared field by field
    assert math.isnan(nan_finding.joint_p)
    assert nan_finding == dataclasses.replace(findings["glm"].pop(), joint_p=nan_finding.joint_p)
    assert restored_findings == findings


def test_bundle_rejects_unknown_models():
    with pytest.raises(ValueError):
        ReportBundle(
            summaries=[make_summary("a")],
            inconsistency_rows={"ghost": []},
            pooled={},
        )
