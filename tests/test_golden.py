"""The committed golden outputs: each case's analyze run, and a report re-render, against tests/golden/out.

Every token but a float must match exactly. Floats match to a relative
1e-12, since numpy and scipy are not pinned and BLAS kernels differ by CPU,
so the last digits of a fit may differ between machines. A change that moves
an output on purpose rewrites the goldens with ``tests/golden/regen.py``.
"""

import math
import re

import pytest

from fairjudge.cli import EXIT_OK, main
from golden.regen import CASES, OUTPUTS, analyze_args

# A decimal or exponent literal that is not part of a longer word, version or hex string.
FLOAT = re.compile(r"(?<![\w.])(-?\d+(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+))(?![\w.])")
REL_TOL = 1e-12


def assert_same_text(got: str, expected: str, name: str) -> None:
    got_parts, expected_parts = FLOAT.split(got), FLOAT.split(expected)
    assert len(got_parts) == len(expected_parts), f"{name}: the float literals differ in number"
    for i, (g, e) in enumerate(zip(got_parts, expected_parts)):
        if i % 2 == 0:  # text between float literals
            assert g == e, f"{name}: {g[:200]!r} != {e[:200]!r}"
        else:
            assert math.isclose(float(g), float(e), rel_tol=REL_TOL, abs_tol=0.0), f"{name}: {g} != {e}"


def golden_files(case):
    files = sorted((OUTPUTS / case).iterdir())
    assert len(files) == 7
    return files


@pytest.mark.parametrize("case", CASES)
def test_analyze_matches_golden(tmp_path, case):
    assert main(analyze_args(case, tmp_path)) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in golden_files(case)]
    for expected in golden_files(case):
        text = (tmp_path / expected.name).read_text(encoding="utf-8")
        assert_same_text(text, expected.read_text(encoding="utf-8"), f"{case}/{expected.name}")


@pytest.mark.parametrize("case", CASES)
def test_report_rerenders_golden_bytes(tmp_path, case):
    assert main(["report", "--summary", str(OUTPUTS / case / "summary.json"), "--out", str(tmp_path)]) == EXIT_OK
    for expected in golden_files(case):
        assert (tmp_path / expected.name).read_bytes() == expected.read_bytes(), f"{case}/{expected.name}"


@pytest.mark.parametrize(
    "got, same",
    [("p 0.5000000000001 x", True), ("p 0.500000000001 x", False), ("p 0.5 y", False), ("p 1e-01 x", False)],
)
def test_comparison_tolerates_only_float_noise(got, same):
    try:
        assert_same_text(got, "p 0.5 x", "t")
    except AssertionError:
        assert not same
    else:
        assert same
