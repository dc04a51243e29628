"""Synthetic corpora and stub predictors for offline runs and calibration tests."""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from fairjudge.corpus import (
    CaseDocument,
    Corpus,
    CorpusError,
    CounterfactualVariant,
    LabelDefinition,
    from_record,
    save_corpus,
)
from fairjudge.gateway import PredictionRecord, write_predictions


@dataclass(frozen=True)
class FixtureSpec:
    """Recipe for a synthetic corpus and its stub predictor."""

    n_docs: int = 20
    labels: tuple[LabelDefinition, ...] = ()
    bias_effects: dict[str, float] = field(default_factory=dict)  # label_id -> additive log-sentence effect
    error_multipliers: dict[str, float] = field(default_factory=dict)  # label_id -> error scale factor
    noise_sigma: float = 0.25
    sentence_log_mean: float = math.log(36.0)
    sentence_log_sigma: float = 0.8
    stub_models: tuple[str, ...] = ("stub-model",)

    @staticmethod
    def from_json(path: str | Path) -> "FixtureSpec":
        """The spec of a JSON object of its fields (see ``corpus.from_record``), which names no other key.

        A label's ``kind`` defaults to categorical and its ``reference_value`` to its first value.
        """
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if type(raw) is not dict:
            raise TypeError(f"spec must be an object, got {reprlib.repr(raw)}")
        _check_keys(FixtureSpec, raw, "")
        if type(raw.get("labels")) is list:
            raw = {**raw, "labels": [_with_label_defaults(label, i) for i, label in enumerate(raw["labels"])]}
        return from_record(FixtureSpec, raw)


def _check_keys(cls: type, record: dict, where: str) -> None:
    """Raise ValueError if ``record`` has a key that names no field of ``cls``, which ``from_record`` would ignore."""
    unknown = sorted(set(record) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"{where}unknown fields {unknown}")


def _with_label_defaults(label, index: int):
    if type(label) is not dict:
        return label  # from_record rejects it
    _check_keys(LabelDefinition, label, f"labels[{index}]: ")
    values = label.get("values")
    first = values[0] if type(values) is list and values else ""  # with no values, the label's own check fails
    return {"kind": "categorical", "reference_value": first, **label}


def default_label_specs(n_labels: int, n_values: int = 2) -> tuple[LabelDefinition, ...]:
    """Generic labels L01..Lnn with value codes v0 (reference), v1, ..."""
    values = tuple(f"v{i}" for i in range(n_values))
    kind = "binary" if n_values == 2 else "categorical"
    return tuple(
        LabelDefinition(
            label_id=f"L{i + 1:02d}",
            kind=kind,
            values=values,
            reference_value="v0",
            description=f"synthetic label {i + 1}",
        )
        for i in range(n_labels)
    )


def default_spec() -> FixtureSpec:
    """Shipped offline demo: 30 documents, 4 labels, one planted bias."""
    return FixtureSpec(
        n_docs=30,
        labels=default_label_specs(4),
        bias_effects={"L01": 0.4},
        error_multipliers={"L02": 2.0},
    )


def generate_fixture(
    seed: int,
    n_docs: int,
    label_specs: tuple[LabelDefinition, ...] | list[LabelDefinition],
    effect_plan: Optional[dict] = None,
    error_plan: Optional[dict] = None,
    sentence_log_mean: float = math.log(36.0),
    sentence_log_sigma: float = 0.8,
) -> tuple[Corpus, dict]:
    """Deterministic-in-seed synthetic corpus plus metadata recording planted effects.

    Documents get log-normal sentences (sentencing data is right-skewed);
    each document carries the reference value for every label and one
    variant per non-reference value.
    """
    if n_docs < 1:
        raise CorpusError(f"n_docs must be >= 1, got {n_docs}")
    labels = tuple(label_specs)
    if not labels:
        raise CorpusError("at least one label spec is required")
    effect_plan = dict(effect_plan or {})
    error_plan = dict(error_plan or {})
    for plan in (effect_plan, error_plan):
        for label_id, size in plan.items():
            if label_id not in {l.label_id for l in labels}:
                raise CorpusError(f"planted effect references unknown label {label_id!r}")
            if not math.isfinite(size):
                raise CorpusError(f"planted effect for {label_id!r} is not finite")

    rng = np.random.default_rng(seed)
    sentences = np.exp(rng.normal(sentence_log_mean, sentence_log_sigma, size=n_docs))

    documents = []
    variants = []
    for i in range(n_docs):
        doc_id = f"D{i + 1:05d}"
        label_values = {lab.label_id: lab.reference_value for lab in labels}
        facts = f"Synthetic case {doc_id}: " + "; ".join(
            f"{k}={v}" for k, v in sorted(label_values.items())
        )
        documents.append(
            CaseDocument(
                doc_id=doc_id,
                facts=facts,
                true_sentence_months=round(float(sentences[i]), 3),
                label_values=label_values,
            )
        )
        for lab in labels:
            for value in lab.values:
                if value == lab.reference_value:
                    continue
                variants.append(
                    CounterfactualVariant(
                        doc_id=doc_id,
                        label_id=lab.label_id,
                        variant_value=value,
                        facts=facts.replace(
                            f"{lab.label_id}={lab.reference_value}",
                            f"{lab.label_id}={value}",
                        ),
                    )
                )

    corpus = Corpus(list(labels), documents, variants)
    meta = {
        "seed": seed,
        "n_docs": n_docs,
        "labels": [lab.label_id for lab in labels],
        "planted_bias_effects": effect_plan,
        "planted_error_multipliers": error_plan,
    }
    return corpus, meta


def simulate_predictions(
    corpus: Corpus,
    model_name: str,
    seed: int,
    bias_effects: Optional[dict] = None,
    error_multipliers: Optional[dict] = None,
    noise_sigma: float = 0.25,
    error_scale: float = 0.2,
    integer_months: bool = False,
) -> list[PredictionRecord]:
    """Stub predictor standing in for an LLM.

    Baseline log-prediction = log(true sentence) + bias-free noise; a
    variant of label l additionally gets the planted log effect for l and
    its error noise scaled by the planted multiplier. With no plans this
    is a pure document effect plus i.i.d. log-normal noise.
    """
    bias_effects = dict(bias_effects or {})
    error_multipliers = dict(error_multipliers or {})
    rng = np.random.default_rng(seed)
    records: list[PredictionRecord] = []

    def predict(true_months: float, log_effect: float, err_mult: float) -> float:
        noise = rng.normal(0.0, noise_sigma)
        err = err_mult * error_scale * abs(rng.normal())
        months = math.exp(math.log(true_months) + log_effect + noise) + true_months * err
        if integer_months:
            months = float(max(0, round(months)))
        return months

    def emit(doc, label_id, variant_value, log_effect, err_mult):
        months = predict(doc.true_sentence_months, log_effect, err_mult)
        records.append(
            PredictionRecord(
                model_name=model_name,
                doc_id=doc.doc_id,
                label_id=label_id,
                variant_value=variant_value,
                predicted_months=months,
                raw_response=json.dumps({"sentence_months": months}),
                attempt_count=1,
            )
        )

    for doc in corpus.documents:
        emit(doc, None, None, 0.0, 1.0)
    for var in corpus.variants:
        doc = corpus.document(var.doc_id)
        emit(
            doc,
            var.label_id,
            var.variant_value,
            float(bias_effects.get(var.label_id, 0.0)),
            float(error_multipliers.get(var.label_id, 1.0)),
        )
    records.sort(key=PredictionRecord.sort_key)
    return records


def write_fixture(spec: FixtureSpec, seed: int, out_dir: str | Path, with_predictions: bool = True) -> dict:
    """Materialize a fixture bundle: corpus files, metadata, optional stub predictions."""
    out = Path(out_dir)
    corpus, meta = generate_fixture(
        seed=seed,
        n_docs=spec.n_docs,
        label_specs=spec.labels or default_label_specs(4),
        effect_plan=spec.bias_effects,
        error_plan=spec.error_multipliers,
        sentence_log_mean=spec.sentence_log_mean,
        sentence_log_sigma=spec.sentence_log_sigma,
    )
    save_corpus(corpus, out)
    meta["stub_models"] = list(spec.stub_models)
    meta["noise_sigma"] = spec.noise_sigma
    (out / "fixture_meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if with_predictions:
        for m, model in enumerate(spec.stub_models):
            records = simulate_predictions(
                corpus,
                model,
                seed=seed + 1000 * (m + 1),
                bias_effects=spec.bias_effects,
                error_multipliers=spec.error_multipliers,
                noise_sigma=spec.noise_sigma,
            )
            write_predictions(records, out / f"predictions_{model}.jsonl")
    return meta
