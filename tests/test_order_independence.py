"""`analyze` outputs do not depend on record order, on the order of --predictions files,
or on the number of worker processes."""

import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairjudge.cli import EXIT_OK, main

SPEC = {
    "n_docs": 16,
    "labels": [
        {"label_id": "gender", "kind": "binary", "values": ["female", "male"],
         "reference_value": "female"},
        {"label_id": "court", "kind": "categorical", "values": ["urban", "rural", "military"],
         "reference_value": "urban"},
    ],
    "bias_effects": {"gender": 0.5},
    "noise_sigma": 0.15,
    "stub_models": ["stub-a", "stub-b", "stub-c"],
}


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """Fixture corpus and per-model prediction lines, with missing and zero predictions mixed in."""
    root = tmp_path_factory.mktemp("order")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    corpus = root / "fx"
    assert main(["fixture", "--seed", "5", "--spec", str(spec_path), "--out", str(corpus)]) == EXIT_OK
    files = {}
    for model in SPEC["stub_models"]:
        records = [json.loads(l) for l in (corpus / f"predictions_{model}.jsonl").read_text().splitlines()]
        for i, rec in enumerate(records):
            if i % 11 == 3:
                rec["predicted_months"] = None
            elif i % 13 == 5:
                rec["predicted_months"] = 0.0
        files[model] = [json.dumps(rec) for rec in records]
    reference = analyze(corpus, list(files.items()), root)
    diagnostics = json.loads(reference["summary.json"])["run_metadata"]["diagnostics"]
    assert all(d["n_missing_predictions"] and d["n_zero_predictions_dropped"] for d in diagnostics.values())
    return corpus, files, reference


def analyze(corpus: Path, files: list[tuple[str, list[str]]], work: Path) -> dict[str, bytes]:
    args = []
    for name, lines in files:
        path = work / f"{name}.jsonl"
        path.write_text("\n".join(lines) + "\n")
        args += ["--predictions", str(path)]
    out = work / "out"
    assert main(["analyze", "--corpus", str(corpus), *args, "--out", str(out)]) == EXIT_OK
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_analyze_bytes_independent_of_record_and_file_order(bundle, data):
    corpus, files, reference = bundle
    with tempfile.TemporaryDirectory() as work_dir:
        file_order = data.draw(st.permutations(sorted(files)))
        shuffled = [(model, data.draw(st.permutations(files[model]))) for model in file_order]
        assert analyze(corpus, shuffled, Path(work_dir)) == reference


def test_analyze_bytes_independent_of_worker_count(bundle, tmp_path, monkeypatch):
    """One CPU runs every file's read and every model's fit in-process; two fan them out."""
    corpus, files, reference = bundle
    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
        work = tmp_path / f"cpus{cpus}"
        work.mkdir()
        outputs.append(analyze(corpus, list(files.items()), work))
    assert outputs[0] == outputs[1] == reference
