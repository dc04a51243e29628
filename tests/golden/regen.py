"""Rewrite the golden outputs under ``tests/golden/out`` from the committed inputs.

    PYTHONPATH=src python tests/golden/regen.py           # the outputs of every case
    PYTHONPATH=src python tests/golden/regen.py --inputs  # rebuild the inputs first

A change that moves an output on purpose runs this and shows the diff of
``out/``. The inputs under ``inputs/`` are committed rather than drawn when
the tests run, because NEP 19 does not keep numpy's Generator streams stable
across releases; ``--inputs`` rebuilds them with the installed numpy, so it
is for a change of the cases, not of the program.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
INPUTS = GOLDEN / "inputs"
OUTPUTS = GOLDEN / "out"

# case -> (corpus directory, prediction files, extra analyze flags), all under INPUTS.
CASES = {
    "default": ("seed11", ["seed11/predictions_stub-model.jsonl"], []),
    "log1p": ("seed11", ["seed11/predictions_stub-model.jsonl"], ["--log1p"]),
    "labels": ("seed11", ["seed11/predictions_stub-model.jsonl"], ["--labels", "L03,L01", "--tolerance", "2"]),
    # Every 19th prediction is 0 months, so bias and imbalance keep different rows and are fitted apart.
    "zeros": ("seed11", ["seed11/predictions_zeros.jsonl"], []),
    # One 4-valued label (a joint Wald test of three treated values), two models in two files (a pooled test).
    "categorical": ("categorical", ["categorical/predictions_cat-a.jsonl", "categorical/predictions_cat-b.jsonl"], []),
}


def analyze_args(case: str, out_dir: Path) -> list[str]:
    """The ``fairjudge`` arguments of one case's analyze run, writing to ``out_dir``."""
    corpus, predictions, extra = CASES[case]
    args = ["analyze", "--corpus", str(INPUTS / corpus), "--out", str(out_dir), *extra]
    for path in predictions:
        args += ["--predictions", str(INPUTS / path)]
    return args


def write_inputs() -> None:
    from fairjudge.corpus import LabelDefinition
    from fairjudge.fixtures import FixtureSpec, default_spec, write_fixture

    shutil.rmtree(INPUTS, ignore_errors=True)
    write_fixture(default_spec(), seed=11, out_dir=INPUTS / "seed11")
    lines = (INPUTS / "seed11" / "predictions_stub-model.jsonl").read_text(encoding="utf-8").splitlines()
    zeroed = [
        json.dumps(dict(json.loads(line), predicted_months=0), sort_keys=True) if i % 19 == 18 else line
        for i, line in enumerate(lines)
    ]
    (INPUTS / "seed11" / "predictions_zeros.jsonl").write_text("\n".join(zeroed) + "\n", encoding="utf-8")
    court = LabelDefinition("court", "categorical", ("urban", "rural", "capital", "border"), "urban", "trial venue")
    spec = FixtureSpec(n_docs=30, labels=(court,), bias_effects={"court": 0.3}, stub_models=("cat-a", "cat-b"))
    write_fixture(spec, seed=11, out_dir=INPUTS / "categorical")
    for meta in INPUTS.glob("*/fixture_meta.json"):  # analyze does not read it
        meta.unlink()


def write_outputs() -> None:
    from fairjudge.cli import EXIT_OK, main

    shutil.rmtree(OUTPUTS, ignore_errors=True)
    for case in CASES:
        if main(analyze_args(case, OUTPUTS / case)) != EXIT_OK:
            raise SystemExit(f"analyze failed on case {case!r}")


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--inputs"]):
        raise SystemExit(__doc__)
    if sys.argv[1:]:
        write_inputs()
    write_outputs()
