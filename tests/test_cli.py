"""CLI workflow tests: subcommands, exit codes, offline pipeline."""

import dataclasses
import errno
import itertools
import json
import random
import sys

import pytest

import fairjudge.metrics
from fairjudge.cli import EXIT_AUTH, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from fairjudge.corpus import read_jsonl, save_corpus
from fairjudge.gateway import PredictionRecord, write_predictions
from stub_server import StubServer
from test_corpus import shuffled_corpus

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


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"n_docs": "x"}', "n_docs must be an integer, got 'x'"),
        ('{"bias_effects": {"L01": "x"}}', "bias_effects['L01'] must be a number, got 'x'"),
        ('{"labels": [{"label_id": "L01"}]}', "missing field 'values'"),
        ("[]", "spec must be an object, got []"),
        ('{"n_docs": 5', "Expecting ',' delimiter: line 1 column 13 (char 12)"),
        ('{"stub_models": "ab"}', "stub_models must be a list, got 'ab'"),
        ('{"n_doc": 5}', "unknown fields ['n_doc']"),
        ('{"labels": [{"label_id": "a", "values": ["x", "y"], "refrence_value": "y"}]}',
         "labels[0]: unknown fields ['refrence_value']"),
    ],
    ids=["n_docs", "bias_effects", "label-without-values", "not-an-object", "invalid-JSON", "stub_models",
         "unknown-key", "unknown-label-key"],
)
def test_malformed_fixture_spec_exits_1_with_one_line(tmp_path, capsys, text, reason):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    assert main(["fixture", "--spec", str(spec), "--out", str(tmp_path / "fx")]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [f"error: {spec}: {reason}"]
    assert not (tmp_path / "fx").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--docs", "0", "n_docs must be >= 1, got 0"),
        ("--docs", "-3", "n_docs must be >= 1, got -3"),
    ],
    ids=["negative seed", "no docs", "negative docs"],
)
def test_negative_fixture_seed_exits_1_with_one_line(tmp_path, capsys, flag, value, message):
    assert main(["fixture", flag, value, "--out", str(tmp_path / "fx")]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "fx").exists()


def test_fixture_spec_of_no_docs_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"n_docs": 0}')
    assert main(["fixture", "--spec", str(spec), "--out", str(tmp_path / "fx")]) == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == ["error: n_docs must be >= 1, got 0"]


@pytest.mark.parametrize(
    "label, reason",
    [
        ({"kind": "ordinal", "values": ["a", "b"]}, "kind must be categorical or binary, got 'ordinal'"),
        ({"values": ["a"]}, "needs >= 2 distinct value codes"),
        ({"values": []}, "needs >= 2 distinct value codes"),
    ],
)
def test_fixture_spec_label_of_bad_values_exits_2(tmp_path, capsys, label, reason):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"labels": [dict(label, label_id="L01")]}))
    assert main(["fixture", "--spec", str(spec), "--out", str(tmp_path / "fx")]) == EXIT_DATA
    assert one_line_error(capsys) == f"error: label 'L01': {reason}"


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


@pytest.mark.parametrize(
    "keep, labels, reason",
    [
        (lambda rec: False, [], "prediction files contain no records"),
        (lambda rec: rec["label_id"] is None, [], "predictions cover zero labels"),
        (lambda rec: rec["label_id"] != "venue", ["--labels", "venue"],
         "no variant predictions for the requested labels"),
    ],
    ids=["no records", "baselines only", "no variant of the requested label"],
)
def test_analyze_nothing_to_analyze_exits_2(fixture_dir, tmp_path, capsys, keep, labels, reason):
    lines = (fixture_dir / "predictions_stub-a.jsonl").read_text().splitlines()
    path = tmp_path / "p.jsonl"
    path.write_text("".join(line + "\n" for line in lines if keep(json.loads(line))))
    code = main(["analyze", "--corpus", str(fixture_dir), "--predictions", str(path), *labels,
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_DATA
    assert one_line_error(capsys) == f"error: nothing to analyze: {reason}"
    assert not (tmp_path / "r").exists()


def test_analyze_missing_args_exits_1(fixture_dir, tmp_path):
    assert main(["analyze", "--corpus", str(fixture_dir)]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--api-url", "http://127.0.0.1:9/v1", "--model", "m", "--out", "p.jsonl"],
         "generate requires --corpus, --api-url, --model, and --out"),
        (["analyze", "--out", "r", "--corpus", "."], "analyze requires at least one --predictions file"),
    ],
    ids=["generate", "analyze"],
)
def test_missing_required_setting_exits_1_with_one_line(fixture_dir, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(fixture_dir)
    assert main(argv) == EXIT_USAGE
    assert one_line_error(capsys) == "error: " + message


def test_config_line_without_equals_exits_1_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("tau = 0.05\ntau 0.01  # no '='\n")
    assert main(["analyze", "--config", str(cfg)]) == EXIT_USAGE
    assert one_line_error(capsys) == "error: config line 2: expected key=value, got 'tau 0.01'"


def test_config_file_with_flag_override(fixture_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# blank and comment lines are skipped\n"
        "\n"
        f"corpus = {fixture_dir}\n"
        "   \n"
        "  # indented comment\n"
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


def pad_variant_facts(root, size=3000):
    """Lengthen every variant's facts in a bundle to about ``size`` bytes of UTF-8 text."""
    path = root / "variants.jsonl"
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    filler = " Der Angeklagte äußerte sich nicht zur Tat."
    path.write_text(
        "".join(json.dumps(dict(r, facts=r["facts"] + filler * (size // len(filler.encode()))),
                           ensure_ascii=False) + "\n" for r in rows),
        encoding="utf-8",
    )


def test_long_case_facts_change_no_output_and_little_memory(tmp_path):
    """analyze keeps the variants' codes, not their facts, so case length costs it no memory."""
    import shutil
    import tracemalloc

    from fairjudge.corpus import index_corpus

    short, long = tmp_path / "short", tmp_path / "long"
    assert main(["fixture", "--seed", "5", "--docs", "200", "--out", str(short)]) == EXIT_OK
    shutil.copytree(short, long)
    pad_variant_facts(long)
    assert (long / "variants.jsonl").stat().st_size > 2_000_000

    peaks = {}
    for root in (short, long):
        predictions = short / "predictions_stub-model.jsonl"
        out = tmp_path / f"out_{root.name}"
        assert main(["analyze", "--corpus", str(root), "--predictions", str(predictions), "--out", str(out)]) == 0
        tracemalloc.start()
        try:
            _, load_variants = index_corpus(root)
            load_variants()
            peaks[root.name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    names = ["summary.csv", "findings.jsonl", "labels_bias.csv", "labels_imbalance.csv", "labels_inconsistency.csv"]
    for name in names:
        assert (tmp_path / "out_long" / name).read_bytes() == (tmp_path / "out_short" / name).read_bytes(), name
    assert peaks["long"] < 1.1 * peaks["short"], peaks


def test_ingest_validates_and_normalizes(fixture_dir, tmp_path, monkeypatch):
    checked = []  # the lines that reach the full validator
    typed_reader = fairjudge.metrics.read_prediction
    monkeypatch.setattr(
        fairjudge.metrics, "read_prediction", lambda rec, where: checked.append(rec) or typed_reader(rec, where)
    )
    out = tmp_path / "norm.jsonl"
    code = main(["ingest", "--corpus", str(fixture_dir),
                 "--predictions", str(fixture_dir / "predictions_stub-a.jsonl"),
                 "--out", str(out)])
    assert code == EXIT_OK
    assert out.read_bytes() == (fixture_dir / "predictions_stub-a.jsonl").read_bytes()
    assert checked == []  # every line of a valid file passes the inline checks

    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"model_name": "x", "doc_id": "nope"}) + "\n")
    code = main(["ingest", "--corpus", str(fixture_dir), "--predictions", str(bad),
                 "--out", str(tmp_path / "bad_out.jsonl")])
    assert code == EXIT_DATA

    # Three models' shuffled lines, whose label and value strings sort against their declared
    # order, give write_predictions' bytes of their records in sort_key order.
    corpus, variants = shuffled_corpus()
    save_corpus(corpus, tmp_path / "shuffled")
    rng = random.Random(3)
    keys = [(d.doc_id, None, None) for d in corpus.documents] + [
        (v.doc_id, v.label_id, v.variant_value) for v in variants
    ]
    records, lines = [], []
    for model in ("m-c", "m-a", "m-b"):
        for i, (doc_id, label_id, value) in enumerate(keys):
            months = rng.choice([None, rng.randint(0, 60), rng.uniform(0, 60)])
            records.append(PredictionRecord(model, doc_id, label_id, value, months, "" if i % 5 else f"r{i}", i % 4))
            fields = dataclasses.asdict(records[-1])
            if i % 5:
                del fields["raw_response"]
            if i % 3 == 0:
                fields["attempt_count"] = float(fields["attempt_count"])
            if i % 2 == 0:
                fields["note"] = "an unknown key"
            lines.append(json.dumps(fields) + "\n")
    # Edge rows of a fourth model, each with the record read_prediction makes of it.
    (doc_a, _, _), (doc_b, _, _), variant = keys[0], keys[1], keys[-1]
    for fields, record in [
        # orjson reads an integer above 2**64 as a float, which read_prediction reads as an integer.
        ({"model_name": "m-0", "doc_id": doc_a, "label_id": None, "variant_value": None, "attempt_count": 2**64 + 1,
          "predicted_months": -0.0}, PredictionRecord("m-0", doc_a, predicted_months=-0.0, attempt_count=2**64)),
        ({"model_name": "m-0", "doc_id": doc_b, "predicted_months": None}, PredictionRecord("m-0", doc_b)),
        ({"model_name": "m-0", "doc_id": variant[0], "label_id": variant[1], "variant_value": variant[2],
          "predicted_months": -0.0, "attempt_count": 3.0}, PredictionRecord("m-0", *variant, -0.0, "", 3)),
    ]:
        records.append(record)
        lines.append(json.dumps(fields) + "\n")
    rng.shuffle(lines)
    (tmp_path / "mixed.jsonl").write_text("".join(lines))
    assert any(type(r.predicted_months) is int for r in records)
    write_predictions(sorted(records, key=PredictionRecord.sort_key), tmp_path / "oracle.jsonl")
    checked.clear()
    assert main(["ingest", "--corpus", str(tmp_path / "shuffled"), "--predictions", str(tmp_path / "mixed.jsonl"),
                 "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()
    # Only the lines whose attempt_count reads as a float, which the inline checks pass on, reach the full validator.
    floats = [rec for _, rec in read_jsonl(tmp_path / "mixed.jsonl", ValueError)
              if type(rec.get("attempt_count")) is float]
    assert checked == floats and any(rec["attempt_count"] == 2**64 for rec in floats)

    (tmp_path / "blank.jsonl").write_text("\n  \n\t\n")
    assert main(["ingest", "--corpus", str(fixture_dir), "--predictions", str(tmp_path / "blank.jsonl"),
                 "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == b""


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


@pytest.mark.parametrize("command", ["analyze", "generate"])
def test_non_utf8_config_file_exits_1_with_one_line(tmp_path, capsys, command):
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"tau = 0.05\n\xff\n")
    assert main([command, "--config", str(cfg)]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        "error: cannot read config file: 'utf-8' codec can't decode byte 0xff in position 11: invalid start byte"
    ]


@pytest.mark.parametrize("command", ["analyze", "generate"])
def test_config_file_with_a_byte_order_mark_reads_its_first_key(tmp_path, capsys, command):
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"\xef\xbb\xbftau = 0.05\ntaus = 0.01\n")
    assert main([command, "--config", str(cfg)]) == EXIT_USAGE
    assert one_line_error(capsys) == "error: config line 2: unknown key 'taus'"


@pytest.mark.parametrize(
    "source, content, reason",
    [
        ("config", None, "No such file or directory"),
        ("config", b"\xff{facts}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ("flag", b"\xff{facts}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ],
    ids=["missing in config", "not UTF-8 in config", "not UTF-8 as flag"],
)
def test_unreadable_template_exits_1_before_any_request(
    fixture_dir, tmp_path, capsys, monkeypatch, source, content, reason
):
    monkeypatch.setenv("FAIRJUDGE_API_KEY", "k")
    template = tmp_path / "template.txt"
    if content is not None:
        template.write_bytes(content)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"template_file = {template}\n" if source == "config" else "")
    out = tmp_path / "gen" / "p.jsonl"
    with StubServer() as server:
        argv = ["generate", "--config", str(cfg), "--corpus", str(fixture_dir), "--api-url", server.url,
                "--model", "m", "--out", str(out), "--cache-dir", str(tmp_path / "cache")]
        if source == "flag":
            argv += ["--template-file", str(template)]
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        assert server.request_count == 0
    assert capsys.readouterr().err.splitlines() == [f"error: cannot read template file {template}: {reason}"]
    assert not out.exists()


def test_malformed_cache_entries_are_asked_again(fixture_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("FAIRJUDGE_API_KEY", "k")
    cache = tmp_path / "cache"
    out = tmp_path / "p.jsonl"
    argv = ["generate", "--corpus", str(fixture_dir), "--model", "m", "--out", str(out), "--cache-dir", str(cache)]
    with StubServer() as server:
        assert main(argv + ["--api-url", server.url]) == EXIT_OK
        first = out.read_bytes()
        asked = server.request_count
        entries = [json.loads(line) for line in (cache / "cache.jsonl").read_text().splitlines()]
        entries[0][1]["content"] = 5
        entries[1][1]["attempts"] = "x"
        entries[2][1]["attempts"] = True
        del entries[3][1]["content"]
        (cache / "cache.jsonl").write_text("".join(json.dumps(e) + "\n" for e in entries))
        assert main(argv + ["--api-url", server.url]) == EXIT_OK
        assert server.request_count == asked + 4  # only the four malformed entries are asked again
    assert out.read_bytes() == first


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


@pytest.mark.parametrize("command", ["analyze", "ingest", "generate"])
def test_missing_corpus_directory_exits_2_with_one_line(fixture_dir, tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("FAIRJUDGE_API_KEY", "k")
    missing = tmp_path / "no-such-corpus"
    predictions = str(fixture_dir / "predictions_stub-a.jsonl")
    argv = {
        "analyze": ["--predictions", predictions, "--out", str(tmp_path / "r")],
        "ingest": ["--predictions", predictions, "--out", str(tmp_path / "norm.jsonl")],
        "generate": ["--api-url", "http://127.0.0.1:9/v1", "--model", "m", "--out", str(tmp_path / "p.jsonl")],
    }[command]
    assert main([command, "--corpus", str(missing), *argv]) == EXIT_DATA
    assert one_line_error(capsys) == f"error: corpus directory not found: {missing}"


def test_repeated_label_id_exits_2_with_one_line(fixture_dir, tmp_path, capsys):
    labels = fixture_dir / "labels.jsonl"
    first = labels.read_text().splitlines()[0]
    labels.write_text(labels.read_text() + first + "\n")
    for code in analyze_and_ingest(fixture_dir, tmp_path, fixture_dir / "predictions_stub-a.jsonl"):
        assert code == EXIT_DATA
        assert one_line_error(capsys) == "error: duplicate label_id 'gender'"
    assert not (tmp_path / "r").exists() and not (tmp_path / "norm.jsonl").exists()


def with_extra_record(fixture_dir, tmp_path, **fields):
    """stub-a's predictions plus one record overriding the first baseline's fields."""
    lines = (fixture_dir / "predictions_stub-a.jsonl").read_text().splitlines()
    extra = dict(json.loads(lines[0]), **fields)
    path = tmp_path / "extra.jsonl"
    path.write_text("\n".join(lines + [json.dumps(extra)]) + "\n")
    return path


@pytest.mark.parametrize("command", ["analyze", "generate"])
def test_misspelled_config_key_exits_1_with_one_line(tmp_path, capsys, command):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("tau = 0.01\nmodel = m\ntaus = 0.01\n")  # a key of each command, then one of none
    assert main([command, "--config", str(cfg)]) == EXIT_USAGE
    assert one_line_error(capsys) == "error: config line 3: unknown key 'taus'"


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def analyze_and_ingest(fixture_dir, tmp_path, path):
    yield main(["analyze", "--corpus", str(fixture_dir), "--predictions", str(path),
                "--out", str(tmp_path / "r")])
    yield main(["ingest", "--corpus", str(fixture_dir), "--predictions", str(path),
                "--out", str(tmp_path / "norm.jsonl")])


@pytest.mark.parametrize(
    "repeat, reason",
    [([0], "duplicate baseline prediction for doc 'D00001'"),
     ([-1], "duplicate variant prediction for ('D00012', 'venue', 'rural')"),
     # D00001's baseline and its gender variant: of one document's keys, the baseline is named last.
     ([0, 1], "duplicate variant prediction for ('D00001', 'gender', 'male')")],
    ids=["baseline", "variant", "baseline-and-variant"],
)
def test_repeated_prediction_key_exits_2_in_ingest_as_in_analyze(fixture_dir, tmp_path, capsys, repeat, reason):
    lines = (fixture_dir / "predictions_stub-a.jsonl").read_text().splitlines()
    path = tmp_path / "repeated.jsonl"
    path.write_text("\n".join(lines + [lines[i] for i in repeat]) + "\n")
    for code in analyze_and_ingest(fixture_dir, tmp_path, path):
        assert code == EXIT_DATA
        assert capsys.readouterr().err.splitlines()[-1] == "error: " + reason  # analyze names its model first
    assert not (tmp_path / "r").exists() and not (tmp_path / "norm.jsonl").exists()


def test_analyze_labels_rejects_a_repeated_key_of_another_label(fixture_dir, tmp_path, capsys):
    lines = (fixture_dir / "predictions_stub-a.jsonl").read_text().splitlines()
    path = tmp_path / "repeated.jsonl"
    path.write_text("\n".join(lines + [lines[-1]]) + "\n")  # a venue key
    argv = ["analyze", "--corpus", str(fixture_dir), "--predictions", str(path), "--labels", "gender",
            "--out", str(tmp_path / "r")]
    assert main(argv) == EXIT_DATA
    assert one_line_error(capsys) == "error: duplicate variant prediction for ('D00012', 'venue', 'rural')"
    assert not (tmp_path / "r").exists()


def test_unknown_label_comes_before_predictions_and_requests(fixture_dir, tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    labels = ["--labels", "gender,nope,also-nope"]
    argv = ["analyze", "--corpus", str(fixture_dir), "--predictions", str(bad), "--out", str(tmp_path / "r")]
    assert main(argv + labels) == EXIT_DATA
    assert one_line_error(capsys) == "error: unknown label_id 'nope'"
    monkeypatch.setenv("FAIRJUDGE_API_KEY", "k")
    with StubServer() as server:
        argv = ["generate", "--corpus", str(fixture_dir), "--api-url", server.url, "--model", "m",
                "--out", str(tmp_path / "gen" / "p.jsonl"), "--cache-dir", str(tmp_path / "cache")]
        assert main(argv + labels) == EXIT_DATA
    assert one_line_error(capsys) == "error: unknown label_id 'nope'"
    assert server.request_count == 0


@pytest.mark.parametrize("command", ["analyze", "ingest"])
def test_unknown_label_comes_before_a_malformed_variant(fixture_dir, tmp_path, capsys, command):
    """Errors keep their order: labels and documents, then --labels, then variants.jsonl, then the predictions."""
    variants = fixture_dir / "variants.jsonl"
    variants.write_text("not json\n" + variants.read_text())
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    out = tmp_path / ("r" if command == "analyze" else "norm.jsonl")
    argv = [command, "--corpus", str(fixture_dir), "--predictions", str(bad), "--out", str(out)]
    if command == "analyze":  # ingest takes no --labels
        assert main(argv + ["--labels", "gender,nope"]) == EXIT_DATA
        assert one_line_error(capsys) == "error: unknown label_id 'nope'"
        argv += ["--labels", "gender"]
    assert main(argv) == EXIT_DATA
    assert one_line_error(capsys).startswith("error: variants.jsonl:1: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "generate"])
def test_labels_value_that_names_no_label_means_every_label(fixture_dir, tmp_path, monkeypatch, command):
    monkeypatch.setenv("FAIRJUDGE_API_KEY", "k")
    outputs, requests = [], []
    for name, extra in (("all", []), ("comma", ["--labels", " , "])):
        out = tmp_path / name
        if command == "analyze":
            assert run_analyze(fixture_dir, out, extra) == EXIT_OK
        else:
            with StubServer() as server:
                argv = ["generate", "--corpus", str(fixture_dir), "--api-url", server.url, "--model", "m",
                        "--out", str(out / "p.jsonl"), "--cache-dir", str(out / "cache"), *extra]
                assert main(argv) == EXIT_OK
            requests.append(server.request_count)
        outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.is_file()})
    assert outputs[0] == outputs[1]
    if command == "analyze":
        assert json.loads(outputs[1]["summary.json"])["run_metadata"]["label_filter"] is None
    else:
        assert requests == [12 + 24] * 2  # baselines + variants of both labels


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


@pytest.mark.parametrize(
    "first, reason",
    [
        ({"model_name": "m", "doc_id": "NOPE"}, "prediction ('m', 'NOPE', None, None): unknown doc_id 'NOPE'"),
        ({"model_name": "m", "doc_id": "D00001", "label_id": "gender", "variant_value": "other"},
         "prediction ('m', 'D00001', 'gender', 'other'): value 'other' not admissible for label 'gender'"),
    ],
    ids=["unknown-doc", "inadmissible-value"],
)
def test_ingest_reports_the_first_fault_that_analyze_reports(fixture_dir, tmp_path, capsys, first, reason):
    """Line 1 names a key the corpus does not know and line 2 is malformed: both commands name line 1."""
    path = tmp_path / "order.jsonl"
    path.write_text(json.dumps(first) + "\n" + json.dumps({"model_name": 5, "doc_id": "D00001"}) + "\n")
    for code in analyze_and_ingest(fixture_dir, tmp_path, path):
        assert code == EXIT_DATA
        assert one_line_error(capsys) == "error: " + reason
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
        assert message.startswith("error: " + extra_line(fixture_dir)) and "must be a string" in message


def test_non_integer_attempt_count_exits_2(fixture_dir, tmp_path, capsys):
    path = with_extra_record(fixture_dir, tmp_path, attempt_count="three")
    for code in analyze_and_ingest(fixture_dir, tmp_path, path):
        assert code == EXIT_DATA
        assert one_line_error(capsys) == (
            "error: " + extra_line(fixture_dir) + "attempt_count must be an integer, got 'three'"
        )


def test_integral_float_attempt_count_is_ingested_as_an_integer(fixture_dir, tmp_path):
    first, *rest = (fixture_dir / "predictions_stub-a.jsonl").read_text().splitlines()
    path = tmp_path / "p.jsonl"  # the first record rewritten, as a repeated key is an error
    path.write_text("\n".join([json.dumps(dict(json.loads(first), attempt_count=2.0))] + rest) + "\n")
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
        ({"attempt_count": "3"}, "attempt_count must be an integer, got '3'"),
    ],
    ids=["raw_response", "attempt_count", "fractional attempt_count", "string attempt_count"],
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


@pytest.mark.parametrize(
    "key, value, reason",
    [
        ("tolerance", "nan", "tolerance must be finite and >= 0, got nan"),
        ("tolerance", "inf", "tolerance must be finite and >= 0, got inf"),
        ("tolerance", "-5", "tolerance must be finite and >= 0, got -5.0"),
        ("tau", "nan", "tau must be in (0, 1), got nan"),
        ("temperature", "nan", "temperature must be finite and >= 0, got nan"),
        ("temperature", "inf", "temperature must be finite and >= 0, got inf"),
        ("temperature", "-1", "temperature must be finite and >= 0, got -1.0"),
    ],
    ids=["tolerance-nan", "tolerance-inf", "tolerance-negative", "tau-nan", "temperature-nan", "temperature-inf",
         "temperature-negative"],
)
def test_non_finite_or_negative_config_value_exits_1(fixture_dir, tmp_path, capsys, key, value, reason):
    if key in ("tau", "tolerance"):
        argv = ["analyze", "--corpus", str(fixture_dir),
                "--predictions", str(fixture_dir / "predictions_stub-a.jsonl"), "--out", str(tmp_path / "r")]
    else:  # rejected before the corpus is read or any request is made
        argv = ["generate", "--corpus", str(fixture_dir), "--api-url", "http://127.0.0.1:9/v1",
                "--model", "m", "--out", str(tmp_path / "p.jsonl")]
    assert main(argv + [f"--{key}", value]) == EXIT_USAGE
    assert one_line_error(capsys) == "error: " + reason
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
         "values[0] must be a string, got ['v0']"),
        ("labels.jsonl", {"label_id": ["L01"]}, "label_id must be a string, got ['L01']"),
        ("labels.jsonl", {"description": 3}, "description must be a string, got 3"),
        ("documents.jsonl", {"doc_id": ["D1"]}, "doc_id must be a string, got ['D1']"),
        ("documents.jsonl", {"label_values": [1, 2]}, "label_values must be an object, got [1, 2]"),
        ("documents.jsonl", {"label_values": {"gender": 1}},
         "label_values['gender'] must be a string, got 1"),
        ("documents.jsonl", {"facts": 5}, "facts must be a string, got 5"),
        ("documents.jsonl", {"true_sentence_months": True},
         "true_sentence_months must be a number, got True"),
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
        (900, "doc_id must be a string, got [[[[[[[...]]]]]]]"),
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


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 100_000 + "]" * 100_000, "error: cannot read {path}: maximum recursion depth exceeded"),
        ("[]", "error: summary.json: malformed: ReportBundle must be an object, got []"),
    ],
    ids=["nested too deep", "not an object"],
)
def test_report_on_summary_of_bad_json_exits_2(fixture_dir, tmp_path, capsys, text, message):
    out = tmp_path / "report"
    assert run_analyze(fixture_dir, out) == EXIT_OK
    (out / "summary.json").write_text(text)
    capsys.readouterr()
    argv = ["report", "--summary", str(out / "summary.json"), "--out", str(tmp_path / "again")]
    assert main(argv) == EXIT_DATA
    assert one_line_error(capsys).startswith(message.format(path=out / "summary.json"))
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
    "fields",
    [
        {"joint_p": "0.5"}, {"min_coef_p": None}, {"significant": 1}, {"model_name": 3},
        {"direction_summary": ["ab"]}, {"direction_summary": [["v1", "x"]]},
    ],
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


def failing_on_call(n, fn):
    """``fn``, but its ``n``th call raises OSError(ENOSPC), as a disk that fills up mid-write does."""
    calls = itertools.count(1)

    def wrapper(*args):
        if next(calls) == n:
            raise OSError(errno.ENOSPC, "No space left on device")
        return fn(*args)

    return wrapper


def failing_at_line(n):
    """``open``, but a file it opens for writing raises OSError(ENOSPC) at its ``n``th line of a ``writelines``."""
    def opener(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if "w" in mode:
            def writelines(lines):
                for i, line in enumerate(lines, 1):
                    if i == n:
                        raise OSError(errno.ENOSPC, "No space left on device")
                    fh.write(line)

            fh.writelines = writelines
        return fh

    return opener


@pytest.mark.parametrize("command", ["report", "ingest"])
def test_rewrite_in_place_that_fails_partway_keeps_every_byte(fixture_dir, tmp_path, capsys, monkeypatch, command):
    """A write that fails at its third line leaves the files it reads, and every other file, as they were."""
    import fairjudge.corpus
    import fairjudge.report

    out = tmp_path / "report"
    assert run_analyze(fixture_dir, out) == EXIT_OK
    preds = tmp_path / "preds" / "p.jsonl"
    preds.parent.mkdir()
    preds.write_bytes((fixture_dir / "predictions_stub-a.jsonl").read_bytes())
    if command == "report":
        target, folder = out, out
        argv = ["report", "--summary", str(out / "summary.json"), "--out", str(out)]
        monkeypatch.setattr(fairjudge.report, "_finding_dict", failing_on_call(3, fairjudge.report._finding_dict))
    else:
        target, folder = preds, preds.parent
        argv = ["ingest", "--corpus", str(fixture_dir), "--predictions", str(preds), "--out", str(preds)]
        monkeypatch.setattr(fairjudge.corpus, "open", failing_at_line(3), raising=False)
    before = {f.name: f.read_bytes() for f in folder.iterdir()}
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    assert one_line_error(capsys) == f"error: cannot write {target}: No space left on device"
    assert {f.name: f.read_bytes() for f in folder.iterdir()} == before


@pytest.mark.parametrize(
    "command, out, reason",
    [
        ("fixture", "blocker/x", "Not a directory"),
        ("generate", "blocker/p.jsonl", "File exists"),
        ("ingest", "blocker/p.jsonl", "File exists"),
        ("ingest", ".", "Is a directory"),
        ("analyze", "blocker/x", "Not a directory"),
        ("analyze", "blocker", "File exists"),
        ("report", "blocker/x", "Not a directory"),
        ("report", "blocker", "File exists"),
    ],
)
def test_unwritable_out_exits_1_with_one_line(fixture_dir, tmp_path, capsys, command, out, reason):
    assert run_analyze(fixture_dir, tmp_path / "r") == EXIT_OK
    (tmp_path / "blocker").write_text("a regular file\n")
    out = str(tmp_path / out)
    preds = str(fixture_dir / "predictions_stub-a.jsonl")
    argv = {
        "fixture": ["fixture", "--out", out],
        "generate": ["generate", "--corpus", str(fixture_dir), "--api-url", "http://127.0.0.1:9/v1",
                     "--model", "m", "--out", out],
        "ingest": ["ingest", "--corpus", str(fixture_dir), "--predictions", preds, "--out", out],
        "analyze": ["analyze", "--corpus", str(fixture_dir), "--predictions", preds, "--out", out],
        "report": ["report", "--summary", str(tmp_path / "r" / "summary.json"), "--out", out],
    }[command]
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error: ")] == [err[-1]]
    assert err[-1].startswith(f"error: cannot write {out}: {reason}")
    assert not any("Traceback" in line for line in err)


@pytest.mark.parametrize(
    "cache, reason",
    [
        ("blocker", "File exists"),
        ("blocker/x", "Not a directory"),
        ("cache", "Is a directory ({cache}/cache.jsonl)"),
    ],
    ids=["regular file", "under a regular file", "cache.jsonl a directory"],
)
def test_unwritable_cache_dir_exits_1_with_one_line(fixture_dir, tmp_path, capsys, monkeypatch, cache, reason):
    """The cache is opened before any request, so the unreachable endpoint is never asked."""
    monkeypatch.setenv("FAIRJUDGE_API_KEY", "x")
    (tmp_path / "blocker").write_text("a regular file\n")
    (tmp_path / "cache" / "cache.jsonl").mkdir(parents=True)
    cache = str(tmp_path / cache)
    argv = ["generate", "--corpus", str(fixture_dir), "--api-url", "http://127.0.0.1:9/v1", "--model", "m",
            "--out", str(tmp_path / "o" / "p.jsonl"), "--cache-dir", cache]
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: cannot write {cache}: {reason.format(cache=cache)}"]
    assert not (tmp_path / "o" / "p.jsonl").exists()


def test_unwritable_audit_log_exits_1_with_one_line(fixture_dir, tmp_path, capsys, monkeypatch):
    """The audit log is opened with the cache, before any request."""
    monkeypatch.setenv("FAIRJUDGE_API_KEY", "x")
    cache = tmp_path / "cache"
    (cache / "audit.jsonl").mkdir(parents=True)
    with StubServer() as server:
        argv = ["generate", "--corpus", str(fixture_dir), "--api-url", server.url, "--model", "m",
                "--out", str(tmp_path / "p.jsonl"), "--cache-dir", str(cache)]
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        assert server.request_count == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: cannot write {cache}: Is a directory ({cache / 'audit.jsonl'})"]


@pytest.mark.parametrize("poisoned", ["reply", "cache line"])
def test_deeply_nested_json_ends_in_one_error_line(fixture_dir, tmp_path, capsys, monkeypatch, poisoned):
    """A reply body or a cache line nested past the recursion limit is malformed, not a traceback."""
    monkeypatch.setenv("FAIRJUDGE_API_KEY", "x")
    deep = "[" * 200000
    cache = tmp_path / "cache"
    cache.mkdir()
    if poisoned == "cache line":
        (cache / "cache.jsonl").write_text(deep + "\n")
    with StubServer(lambda prompt: (200, deep.encode())) as server:
        api_url = server.url if poisoned == "reply" else "http://127.0.0.1:9/v1"
        argv = ["generate", "--corpus", str(fixture_dir), "--api-url", api_url, "--model", "m",
                "--out", str(tmp_path / "p.jsonl"), "--cache-dir", str(cache), "--retries", "0"]
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: no record produced a usable prediction; endpoint unreachable or misconfigured"]


@pytest.mark.parametrize("tty", [False, True])
def test_generate_shows_progress_only_on_a_terminal(fixture_dir, tmp_path, capsys, monkeypatch, tty):
    """A failed run that is not on a terminal leaves one stderr line: its error."""
    monkeypatch.setenv("FAIRJUDGE_API_KEY", "x")
    argv = ["generate", "--corpus", str(fixture_dir), "--api-url", "http://127.0.0.1:9/v1", "--model", "m",
            "--out", str(tmp_path / "p.jsonl"), "--cache-dir", str(tmp_path / "cache"), "--retries", "0"]
    capsys.readouterr()
    monkeypatch.setattr(sys.stderr, "isatty", lambda: tty)
    assert main(argv) == EXIT_USAGE
    n = 36  # 12 documents and one variant of each for each of two labels
    shown = "".join(f"\r{done}/{n} records" for done in range(1, n + 1)) + "\n" if tty else ""
    error = "error: no record produced a usable prediction; endpoint unreachable or misconfigured\n"
    assert capsys.readouterr().err == shown + error
