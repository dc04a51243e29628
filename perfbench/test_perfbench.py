"""Self-test of the benchmark: every workload at a tiny size, and its checks.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_prints_every_metric_with_unit(workload, trace, section):
    result = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["error_rate"]["value"] == 0


def test_requests_per_record_is_exact():
    first, second = (
        bench("--workload", "generate-cold", "--seed", "4", "--seconds", "0", "--trace", "1")
        for _ in range(2)
    )
    ratio = first["metrics"]["requests_per_record"]["value"]
    assert ratio > 1.0
    assert ratio == second["metrics"]["requests_per_record"]["value"]
    reasks = first["metrics"]["gateway.strict_reasks"]["value"]
    assert first["metrics"]["gateway.http_requests"]["value"] == 84 + reasks


def test_wrong_stub_answer_fails_the_check():
    result = bench("--workload", "generate-cold", "--seed", "3", "--seconds", "0", "--trace", "1",
                   "--stub-wrong-share", "0.2")
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["error_rate"]["value"] > 0


def test_missing_wrapped_attribute_reports_zero_calls(monkeypatch):
    for module_name, class_name, attr, _ in tracing.WRAPS:
        owner = importlib.import_module(module_name)
        owner = getattr(owner, class_name) if class_name else owner
        monkeypatch.setattr(owner, attr, getattr(owner, attr))  # restored after the test
    metrics_module = importlib.import_module("fairjudge.metrics")
    monkeypatch.delattr(metrics_module, "_index_predictions")

    tracer = tracing.Tracer()
    tracer.install()
    assert tracer.missing == ["fairjudge.metrics._index_predictions"]
    layers = tracing.layer_metrics(tracer.export()["spans"])
    assert layers["metrics.index_predictions_calls"] == 0


def test_self_time_subtracts_overlapping_children():
    spans = [
        (1, "root", 0.0, 10.0, None, None),
        (2, "a", 1.0, 4.0, 1, None),
        (3, "b", 3.0, 6.0, 1, None),  # overlaps a, as pool threads do
        (4, "c", 2.0, 3.0, 2, None),  # grandchild: already inside a
    ]
    assert tracing.self_time(spans, {"root"}) == pytest.approx(5.0)
