"""CLI workflow tests: subcommands, exit codes, offline pipeline."""

import json

import pytest

from fairjudge.cli import EXIT_AUTH, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from stub_server import StubServer

SPEC = {
    "n_docs": 12,
    "labels": [
        {"label_id": "gender", "kind": "binary", "values": ["female", "male"],
         "reference_value": "female"},
        {"label_id": "venue", "kind": "binary", "values": ["urban", "rural"],
         "reference_value": "urban"},
    ],
    "bias_effects": {"gender": 0.5},
    "noise_sigma": 0.15,
    "stub_models": ["stub-a", "stub-b"],
}


@pytest.fixture
def fixture_dir(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    out = tmp_path / "fx"
    assert main(["fixture", "--seed", "7", "--spec", str(spec_path), "--out", str(out)]) == EXIT_OK
    return out


def test_fixture_round_trips_and_is_deterministic(tmp_path, fixture_dir):
    from fairjudge.corpus import load_corpus

    corpus = load_corpus(fixture_dir)
    assert len(corpus.documents) == 12
    meta = json.loads((fixture_dir / "fixture_meta.json").read_text())
    assert meta["planted_bias_effects"] == {"gender": 0.5}

    spec_path = tmp_path / "spec.json"
    other = tmp_path / "fx2"
    assert main(["fixture", "--seed", "7", "--spec", str(spec_path), "--out", str(other)]) == EXIT_OK
    for f in sorted(fixture_dir.iterdir()):
        assert f.read_bytes() == (other / f.name).read_bytes(), f.name


def run_analyze(fixture_dir, out, extra=()):
    return main(
        [
            "analyze",
            "--corpus", str(fixture_dir),
            "--predictions", str(fixture_dir / "predictions_stub-a.jsonl"),
            "--predictions", str(fixture_dir / "predictions_stub-b.jsonl"),
            "--out", str(out),
            *extra,
        ]
    )


def test_analyze_flags_planted_label(fixture_dir, tmp_path):
    out = tmp_path / "report"
    assert run_analyze(fixture_dir, out) == EXIT_OK
    for name in ("summary.csv", "summary.json", "findings.jsonl", "report.html"):
        assert (out / name).exists()
    findings = [json.loads(l) for l in (out / "findings.jsonl").read_text().splitlines()]
    gender_bias = [f for f in findings if f["label_id"] == "gender" and f["metric"] == "bias"]
    assert gender_bias and all(f["significant"] for f in gender_bias)
    summary = json.loads((out / "summary.json").read_text())
    assert {s["model_name"] for s in summary["summaries"]} == {"stub-a", "stub-b"}


def test_analyze_golden_stable_across_runs(fixture_dir, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_analyze(fixture_dir, out1) == EXIT_OK
    assert run_analyze(fixture_dir, out2) == EXIT_OK
    for f in sorted(out1.iterdir()):
        assert f.read_bytes() == (out2 / f.name).read_bytes(), f.name


def test_analyze_tau_monotonicity(fixture_dir, tmp_path):
    counts = {}
    for tau in ("0.01", "0.05"):
        out = tmp_path / f"r{tau}"
        assert run_analyze(fixture_dir, out, extra=["--tau", tau]) == EXIT_OK
        data = json.loads((out / "summary.json").read_text())
        counts[tau] = {s["model_name"]: s["bias_count"] for s in data["summaries"]}
    for model in counts["0.05"]:
        assert counts["0.01"][model] <= counts["0.05"][model]


def test_analyze_label_filter(fixture_dir, tmp_path):
    out = tmp_path / "filtered"
    assert run_analyze(fixture_dir, out, extra=["--labels", "gender"]) == EXIT_OK
    data = json.loads((out / "summary.json").read_text())
    assert data["summaries"][0]["n_labels_tested"] == 1


def test_analyze_nothing_to_analyze_exits_2(fixture_dir, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = main(["analyze", "--corpus", str(fixture_dir), "--predictions", str(empty),
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_DATA


def test_analyze_baseline_only_exits_2(fixture_dir, tmp_path):
    path = tmp_path / "base_only.jsonl"
    lines = [
        l for l in (fixture_dir / "predictions_stub-a.jsonl").read_text().splitlines()
        if json.loads(l)["label_id"] is None
    ]
    path.write_text("\n".join(lines) + "\n")
    code = main(["analyze", "--corpus", str(fixture_dir), "--predictions", str(path),
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_DATA


def test_analyze_missing_args_exits_1(fixture_dir, tmp_path):
    assert main(["analyze", "--corpus", str(fixture_dir)]) == EXIT_USAGE


def test_config_file_with_flag_override(fixture_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"corpus = {fixture_dir}\n"
        f"out = {tmp_path / 'cfg_out'}\n"
        "tau = 0.05  # default threshold\n"
    )
    code = main(["analyze", "--config", str(cfg),
                 "--predictions", str(fixture_dir / "predictions_stub-a.jsonl"),
                 "--out", str(tmp_path / "flag_out")])
    assert code == EXIT_OK
    assert (tmp_path / "flag_out" / "summary.csv").exists()  # flag beats config
    assert not (tmp_path / "cfg_out").exists()


def test_analyze_streams_without_prediction_records(fixture_dir, tmp_path, monkeypatch):
    """analyze builds no PredictionRecord and no CounterfactualVariant."""
    import fairjudge.corpus
    from fairjudge.gateway import PredictionRecord

    def refuse(*args):
        raise AssertionError("analyze built a PredictionRecord or a CounterfactualVariant")

    monkeypatch.setattr(PredictionRecord, "__post_init__", refuse)
    monkeypatch.setattr(fairjudge.corpus, "CounterfactualVariant", refuse)
    assert run_analyze(fixture_dir, tmp_path / "r") == EXIT_OK


def test_ingest_validates_and_normalizes(fixture_dir, tmp_path):
    out = tmp_path / "norm.jsonl"
    code = main(["ingest", "--corpus", str(fixture_dir),
                 "--predictions", str(fixture_dir / "predictions_stub-a.jsonl"),
                 "--out", str(out)])
    assert code == EXIT_OK
    assert out.exists()

    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"model_name": "x", "doc_id": "nope"}) + "\n")
    code = main(["ingest", "--corpus", str(fixture_dir), "--predictions", str(bad),
                 "--out", str(tmp_path / "bad_out.jsonl")])
    assert code == EXIT_DATA


def test_report_rerender_from_summary(fixture_dir, tmp_path):
    out = tmp_path / "report"
    assert run_analyze(fixture_dir, out) == EXIT_OK
    out2 = tmp_path / "rerender"
    code = main(["report", "--summary", str(out / "summary.json"), "--out", str(out2)])
    assert code == EXIT_OK
    assert (out2 / "summary.csv").read_bytes() == (out / "summary.csv").read_bytes()
    assert (out2 / "report.html").exists()


def test_generate_against_stub_server(fixture_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("FAIRJUDGE_API_KEY", "k")
    out = tmp_path / "gen" / "predictions.jsonl"
    with StubServer() as server:
        code = main(["generate", "--corpus", str(fixture_dir), "--api-url", server.url,
                     "--model", "live-model", "--out", str(out),
                     "--cache-dir", str(tmp_path / "cache")])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 12 + 24  # baselines + variants
    assert all(json.loads(l)["predicted_months"] == 36 for l in lines)


def test_generate_missing_api_key_exits_nonzero(fixture_dir, tmp_path, monkeypatch):
    monkeypatch.delenv("FAIRJUDGE_API_KEY", raising=False)
    code = main(["generate", "--corpus", str(fixture_dir), "--api-url", "http://127.0.0.1:9/v1",
                 "--model", "m", "--out", str(tmp_path / "p.jsonl"),
                 "--cache-dir", str(tmp_path / "cache")])
    assert code != EXIT_OK


def test_generate_auth_failure_exits_3(fixture_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("FAIRJUDGE_API_KEY", "bad")

    def responder(prompt):
        return 401, "{}"

    with StubServer(responder) as server:
        code = main(["generate", "--corpus", str(fixture_dir), "--api-url", server.url,
                     "--model", "m", "--out", str(tmp_path / "p.jsonl"),
                     "--cache-dir", str(tmp_path / "cache")])
    assert code == EXIT_AUTH


def test_generate_unreachable_endpoint_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.setenv("FAIRJUDGE_API_KEY", "k")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(SPEC, n_docs=2)))
    fx = tmp_path / "fx_small"
    assert main(["fixture", "--seed", "1", "--spec", str(spec_path), "--out", str(fx),
                 "--no-predictions"]) == EXIT_OK
    code = main(["generate", "--corpus", str(fx), "--api-url", "http://127.0.0.1:9/unreachable",
                 "--model", "m", "--out", str(tmp_path / "p.jsonl"),
                 "--cache-dir", str(tmp_path / "cache"), "--retries", "0"])
    assert code != EXIT_OK


def test_corrupt_corpus_exits_2(tmp_path):
    root = tmp_path / "bad_corpus"
    root.mkdir()
    (root / "labels.jsonl").write_text("")
    (root / "documents.jsonl").write_text("not json\n")
    (root / "variants.jsonl").write_text("")
    code = main(["analyze", "--corpus", str(root), "--predictions", str(root / "labels.jsonl"),
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_DATA


def with_extra_record(fixture_dir, tmp_path, **fields):
    """stub-a's predictions plus one record overriding the first baseline's fields."""
    lines = (fixture_dir / "predictions_stub-a.jsonl").read_text().splitlines()
    extra = dict(json.loads(lines[0]), **fields)
    path = tmp_path / "extra.jsonl"
    path.write_text("\n".join(lines + [json.dumps(extra)]) + "\n")
    return path


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def analyze_and_ingest(fixture_dir, tmp_path, path):
    yield main(["analyze", "--corpus", str(fixture_dir), "--predictions", str(path),
                "--out", str(tmp_path / "r")])
    yield main(["ingest", "--corpus", str(fixture_dir), "--predictions", str(path),
                "--out", str(tmp_path / "norm.jsonl")])


@pytest.mark.parametrize("months", ["36", True])
def test_non_numeric_predicted_months_exits_2(fixture_dir, tmp_path, capsys, months):
    path = with_extra_record(fixture_dir, tmp_path, predicted_months=months)
    for code in analyze_and_ingest(fixture_dir, tmp_path, path):
        assert code == EXIT_DATA
        assert "predicted_months must be a number or null" in one_line_error(capsys)


@pytest.mark.parametrize(
    "fields, reason",
    [
        ({"doc_id": "D99999"}, "unknown doc_id 'D99999'"),
        ({"label_id": "age", "variant_value": "old"}, "undeclared label 'age'"),
        ({"label_id": "gender", "variant_value": "other"}, "value 'other' not admissible for label 'gender'"),
        ({"label_id": "gender", "variant_value": "female"},  # the document's baseline value
         "'D00001', 'gender', 'female'): no such variant in the corpus"),
    ],
)
def test_record_the_corpus_does_not_know_exits_2(fixture_dir, tmp_path, capsys, fields, reason):
    path = with_extra_record(fixture_dir, tmp_path, **fields)
    for code in analyze_and_ingest(fixture_dir, tmp_path, path):
        assert code == EXIT_DATA
        message = one_line_error(capsys)
        assert message.startswith("error: prediction ('stub-a', ") and message.endswith(reason)
    assert not (tmp_path / "r").exists() and not (tmp_path / "norm.jsonl").exists()


def extra_line(fixture_dir) -> str:
    """file:line of the record that with_extra_record appends."""
    n = len((fixture_dir / "predictions_stub-a.jsonl").read_text().splitlines())
    return f"extra.jsonl:{n + 1}: "


@pytest.mark.parametrize("bad", [["x"], {"x": 1}, 7], ids=["list", "object", "number"])
@pytest.mark.parametrize(
    "fields",
    [
        lambda bad: {"model_name": bad},
        lambda bad: {"doc_id": bad},
        lambda bad: {"label_id": bad, "variant_value": "male"},
        lambda bad: {"label_id": "gender", "variant_value": bad},
    ],
    ids=["model_name", "doc_id", "label_id", "variant_value"],
)
def test_key_field_of_wrong_type_exits_2(fixture_dir, tmp_path, capsys, fields, bad):
    path = with_extra_record(fixture_dir, tmp_path, **fields(bad))
    for code in analyze_and_ingest(fixture_dir, tmp_path, path):
        assert code == EXIT_DATA
        message = one_line_error(capsys)
        assert message.startswith("error: " + extra_line(fixture_dir)) and "must be strings" in message


def test_non_integer_attempt_count_exits_2(fixture_dir, tmp_path, capsys):
    path = with_extra_record(fixture_dir, tmp_path, attempt_count="three")
    for code in analyze_and_ingest(fixture_dir, tmp_path, path):
        assert code == EXIT_DATA
        assert one_line_error(capsys) == (
            "error: " + extra_line(fixture_dir) + "attempt_count must be an integer, got 'three'"
        )


def test_integral_float_attempt_count_is_ingested_as_an_integer(fixture_dir, tmp_path):
    path = with_extra_record(fixture_dir, tmp_path, attempt_count=2.0)
    assert main(["ingest", "--corpus", str(fixture_dir), "--predictions", str(path),
                 "--out", str(tmp_path / "norm.jsonl")]) == EXIT_OK
    counts = [json.loads(line)["attempt_count"] for line in (tmp_path / "norm.jsonl").read_text().splitlines()]
    assert 2 in counts and all(type(c) is int for c in counts)


@pytest.mark.parametrize(
    "fields, reason",
    [
        ({"raw_response": [1, 2]}, "raw_response must be a string, got [1, 2]"),
        ({"attempt_count": True}, "attempt_count must be an integer, got True"),
        ({"attempt_count": 1.5}, "attempt_count must be an integer, got 1.5"),
    ],
    ids=["raw_response", "attempt_count", "fractional attempt_count"],
)
def test_ingest_rejects_list_raw_response_and_bool_attempt_count(fixture_dir, tmp_path, capsys, fields, reason):
    path = with_extra_record(fixture_dir, tmp_path, **fields)
    for code in analyze_and_ingest(fixture_dir, tmp_path, path):
        assert code == EXIT_DATA
        assert one_line_error(capsys) == "error: " + extra_line(fixture_dir) + reason
    assert not (tmp_path / "r").exists() and not (tmp_path / "norm.jsonl").exists()


@pytest.mark.parametrize("key", ["tau", "tolerance", "temperature", "concurrency", "retries"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_non_numeric_config_value_exits_1(fixture_dir, tmp_path, capsys, key, source):
    if key in ("tau", "tolerance"):
        argv = ["analyze", "--corpus", str(fixture_dir),
                "--predictions", str(fixture_dir / "predictions_stub-a.jsonl"),
                "--out", str(tmp_path / "r")]
    else:  # rejected before the corpus is read or any request is made
        argv = ["generate", "--corpus", str(fixture_dir), "--api-url", "http://127.0.0.1:9/v1",
                "--model", "m", "--out", str(tmp_path / "p.jsonl")]
    if source == "flag":
        argv += [f"--{key}", "lots"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = lots\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == EXIT_USAGE
    assert one_line_error(capsys) == f"error: {key} must be a number, got 'lots'"
    assert not (tmp_path / "r").exists() and not (tmp_path / "p.jsonl").exists()


def test_cli_import_leaves_scipy_stats_unloaded():
    import os
    import subprocess
    import sys

    import fairjudge

    src = os.path.dirname(os.path.dirname(fairjudge.__file__))
    code = "import sys, fairjudge.cli; sys.exit('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0


@pytest.mark.parametrize("module", ["fairjudge.gateway", "fairjudge.corpus"])
def test_generate_side_imports_leave_scipy_unloaded(module):
    import os
    import subprocess
    import sys

    import fairjudge

    src = os.path.dirname(os.path.dirname(fairjudge.__file__))
    code = f"import sys, {module}; sys.exit('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0


def test_cli_import_leaves_requests_unloaded():
    import os
    import subprocess
    import sys

    import fairjudge

    src = os.path.dirname(os.path.dirname(fairjudge.__file__))
    code = "import sys, fairjudge.cli; sys.exit('requests' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0


@pytest.mark.parametrize(
    "name, fields, reason",
    [
        ("labels.jsonl", {"values": [["v0"], ["v1"]]},
         "values must be a list of strings, got [['v0'], ['v1']]"),
        ("labels.jsonl", {"label_id": ["L01"]}, "label_id must be a string, got ['L01']"),
        ("labels.jsonl", {"description": 3}, "description must be a string, got 3"),
        ("documents.jsonl", {"doc_id": ["D1"]}, "doc_id must be a string, got ['D1']"),
        ("documents.jsonl", {"label_values": [1, 2]}, "label_values must be an object of strings, got [1, 2]"),
        ("documents.jsonl", {"label_values": {"gender": 1}},
         "label_values must be an object of strings, got {'gender': 1}"),
        ("documents.jsonl", {"facts": 5}, "facts must be a string, got 5"),
        ("documents.jsonl", {"true_sentence_months": True},
         "true_sentence_months must be a positive number, got True"),
        ("documents.jsonl", {"true_sentence_months": 10**400},
         "true_sentence_months must be a positive number, got 100000000000000000...0000000000000000000"),
        ("variants.jsonl", {"doc_id": ["D1"]}, "doc_id must be a string, got ['D1']"),
        ("variants.jsonl", {"label_id": {"a": 1}}, "label_id must be a string, got {'a': 1}"),
        ("variants.jsonl", {"facts": None}, "facts must be a string, got None"),
        ("variants.jsonl", {"doc_id": "<deep>"}, "doc_id must be a string, got [[[[[[[...]]]]]]]"),
    ],
)
def test_corpus_field_of_wrong_type_exits_2(fixture_dir, tmp_path, capsys, name, fields, reason):
    path = fixture_dir / name
    first, *rest = path.read_text().splitlines()
    first = json.dumps(dict(json.loads(first), **fields)).replace('"<deep>"', "[" * 900 + "]" * 900)
    path.write_text("\n".join([first] + rest) + "\n")
    assert run_analyze(fixture_dir, tmp_path / "r") == EXIT_DATA
    message = one_line_error(capsys)
    assert message.startswith(f"error: {name}:1: ") and message.endswith(reason)


def test_invalid_utf8_exits_2(fixture_dir, tmp_path, capsys):
    path = with_extra_record(fixture_dir, tmp_path)
    n = len(path.read_bytes().splitlines())
    path.write_bytes(path.read_bytes() + b'{"model_name": "stub-a", "doc_id": "\xff"}\n')
    for code in analyze_and_ingest(fixture_dir, tmp_path, path):
        assert code == EXIT_DATA
        assert one_line_error(capsys).startswith(f"error: extra.jsonl:{n + 1}: not valid UTF-8: ")

    documents = fixture_dir / "documents.jsonl"
    documents.write_bytes(documents.read_bytes().replace(b"Synthetic", b"Synth\xe9tic", 1))
    assert run_analyze(fixture_dir, tmp_path / "r") == EXIT_DATA
    assert one_line_error(capsys).startswith("error: documents.jsonl:1: not valid UTF-8: ")


@pytest.mark.parametrize(
    "depth, reason",
    [
        (100_000, "invalid JSON: maximum recursion depth exceeded"),
        (900, "model_name and doc_id must be strings"),
    ],
)
def test_deeply_nested_key_field_exits_2(fixture_dir, tmp_path, capsys, depth, reason):
    path = with_extra_record(fixture_dir, tmp_path, doc_id="@")
    path.write_text(path.read_text().replace('"@"', "[" * depth + "]" * depth))
    for code in analyze_and_ingest(fixture_dir, tmp_path, path):
        assert code == EXIT_DATA
        message = one_line_error(capsys)
        assert message.startswith("error: " + extra_line(fixture_dir) + reason) and len(message) < 300


def test_report_rerender_in_place_keeps_every_byte(fixture_dir, tmp_path):
    out = tmp_path / "report"
    assert run_analyze(fixture_dir, out) == EXIT_OK
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    assert before["findings.jsonl"] and len(before["labels_bias.csv"].splitlines()) > 1
    assert main(["report", "--summary", str(out / "summary.json"), "--out", str(out)]) == EXIT_OK
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before


def test_report_without_findings_exits_2(fixture_dir, tmp_path, capsys):
    out = tmp_path / "report"
    assert run_analyze(fixture_dir, out) == EXIT_OK
    (out / "findings.jsonl").unlink()
    capsys.readouterr()
    argv = ["report", "--summary", str(out / "summary.json"), "--out", str(tmp_path / "again")]
    assert main(argv) == EXIT_DATA
    assert one_line_error(capsys).startswith("error: cannot read ")
    assert not (tmp_path / "again").exists()


def test_report_on_summary_missing_a_field_exits_2(fixture_dir, tmp_path, capsys):
    out = tmp_path / "report"
    assert run_analyze(fixture_dir, out) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    del summary["summaries"][0]["bias_count"]
    (out / "summary.json").write_text(json.dumps(summary))
    capsys.readouterr()
    argv = ["report", "--summary", str(out / "summary.json"), "--out", str(tmp_path / "again")]
    assert main(argv) == EXIT_DATA
    assert one_line_error(capsys) == "error: summary.json: missing field 'bias_count'"
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize(
    "path, value, reason",
    [
        (("summaries", 0, "inconsistency"), "abc", "inconsistency must be a number or null, got 'abc'"),
        (("summaries", 0, "bias_count"), 1.5, "bias_count must be an integer, got 1.5"),
        (("summaries", 0, "imbalance_bernoulli", "n_trials"), True, "n_trials must be an integer, got True"),
        (("summaries", 0, "model_name"), 7, "model_name must be a string, got 7"),
        (("pooled", "bias", "p_value"), None, "p_value must be a number, got None"),
        (("inconsistency_rows", "stub-a", 0, "n_missing"), "0", "n_missing must be an integer, got '0'"),
        (("inconsistency_rows", "nobody"), [], "inconsistency rows for unknown models: ['nobody']"),
    ],
    ids=["inconsistency", "bias_count", "n_trials", "model_name", "pooled-p_value", "n_missing", "rows-of-no-model"],
)
def test_report_on_summary_field_of_wrong_type_exits_2(fixture_dir, tmp_path, capsys, path, value, reason):
    out = tmp_path / "report"
    assert run_analyze(fixture_dir, out) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    parent = summary
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    (out / "summary.json").write_text(json.dumps(summary))
    capsys.readouterr()
    argv = ["report", "--summary", str(out / "summary.json"), "--out", str(tmp_path / "again")]
    assert main(argv) == EXIT_DATA
    assert one_line_error(capsys) == "error: summary.json: malformed: " + reason
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize(
    "fields", [{"joint_p": "0.5"}, {"min_coef_p": None}, {"significant": 1}, {"model_name": 3}]
)
def test_report_in_place_on_finding_of_wrong_type_keeps_every_byte(fixture_dir, tmp_path, capsys, fields):
    out = tmp_path / "report"
    assert run_analyze(fixture_dir, out) == EXIT_OK
    findings = out / "findings.jsonl"
    first, *rest = findings.read_text().splitlines()
    findings.write_text("\n".join([json.dumps(dict(json.loads(first), **fields))] + rest) + "\n")
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    capsys.readouterr()
    assert main(["report", "--summary", str(out / "summary.json"), "--out", str(out)]) == EXIT_DATA
    assert one_line_error(capsys).startswith("error: findings.jsonl:1: not a finding: ")
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before
