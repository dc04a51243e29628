"""Seeded benchmark inputs, built with fairjudge's public fixture functions."""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path

from fairjudge.corpus import save_corpus
from fairjudge.fixtures import default_label_specs, generate_fixture, simulate_predictions
from fairjudge.gateway import write_predictions

BIAS_LABEL = "L01"
ERROR_LABEL = "L02"
BIAS_EFFECT = 0.4
ERROR_MULTIPLIER = 2.0
NULL_SHARE = 0.01


def build_corpus(seed: int, n_docs: int, n_labels: int, n_values: int, out_dir: Path):
    """Write a corpus with one planted bias label and one planted error label."""
    corpus, _ = generate_fixture(
        seed=seed,
        n_docs=n_docs,
        label_specs=default_label_specs(n_labels, n_values),
        effect_plan={BIAS_LABEL: BIAS_EFFECT},
        error_plan={ERROR_LABEL: ERROR_MULTIPLIER},
    )
    save_corpus(corpus, out_dir)
    return corpus


def model_names(n_models: int) -> list[str]:
    return [f"model-{m:02d}" for m in range(n_models)]


def build_predictions(seed: int, corpus, n_models: int, out_dir: Path) -> tuple[list[Path], int]:
    """One integer-month predictions file per model, ~1% of records set to null.

    Returns the files and the total record count.
    """
    rng = random.Random(seed)
    paths, n_records = [], 0
    for m, model in enumerate(model_names(n_models)):
        records = simulate_predictions(
            corpus,
            model,
            seed=seed + 1000 * (m + 1),
            bias_effects={BIAS_LABEL: BIAS_EFFECT},
            error_multipliers={ERROR_LABEL: ERROR_MULTIPLIER},
            integer_months=True,
        )
        records = [
            dataclasses.replace(r, predicted_months=None, raw_response="")
            if rng.random() < NULL_SHARE
            else r
            for r in records
        ]
        path = out_dir / f"predictions_{model}.jsonl"
        write_predictions(records, path)
        paths.append(path)
        n_records += len(records)
    return paths, n_records
