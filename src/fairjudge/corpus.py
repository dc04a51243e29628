"""Corpus data model: case documents, label annotations, and counterfactual variants.

A corpus lives in a directory of three JSONL files (``labels.jsonl``,
``documents.jsonl``, ``variants.jsonl``), one record per line, UTF-8. The
corpus is immutable after load and safe to share across worker threads.
"""

from __future__ import annotations

import functools
import hashlib
import json
import reprlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np
import orjson


class CorpusError(Exception):
    """Malformed corpus bundle: bad record, missing file, or broken reference."""


@dataclass(frozen=True)
class LabelDefinition:
    """One extra-legal factor, with its admissible value codes."""

    label_id: str
    kind: str  # "categorical" or "binary"
    values: tuple[str, ...]
    reference_value: str
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("categorical", "binary"):
            raise CorpusError(f"label {self.label_id!r}: kind must be categorical or binary, got {self.kind!r}")
        if len(set(self.values)) < 2 or len(set(self.values)) != len(self.values):
            raise CorpusError(f"label {self.label_id!r}: needs >= 2 distinct value codes")
        if self.reference_value not in self.values:
            raise CorpusError(
                f"label {self.label_id!r}: reference value {self.reference_value!r} not in {list(self.values)}"
            )


@dataclass(frozen=True)
class CaseDocument:
    """One judicial fact pattern; the unit of fixed effect and clustering."""

    doc_id: str
    facts: str
    true_sentence_months: float
    label_values: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        s = self.true_sentence_months
        # The chained comparison also rejects NaN and integers too large for a float.
        if isinstance(s, bool) or not isinstance(s, (int, float)) or not 0 < s <= sys.float_info.max:
            raise CorpusError(
                f"document {self.doc_id!r}: true_sentence_months must be a positive number, "
                f"got {reprlib.repr(s)}"
            )


@dataclass(frozen=True)
class CounterfactualVariant:
    """A document copy with exactly one label's value altered."""

    doc_id: str
    label_id: str
    variant_value: str
    facts: str


class Corpus:
    """Validated, indexed collection of labels, documents, and variants."""

    def __init__(
        self,
        labels: list[LabelDefinition],
        documents: list[CaseDocument],
        variants: list[CounterfactualVariant],
    ) -> None:
        self.labels = list(labels)
        self.documents = list(documents)
        self.variants = list(variants)
        self._labels_by_id: dict[str, LabelDefinition] = {}
        self._docs_by_id: dict[str, CaseDocument] = {}
        self._variants_by_label: dict[str, list[CounterfactualVariant]] = {}
        self._validate()
        self._index()

    def _validate(self) -> None:
        if not self.documents:
            raise CorpusError("corpus contains no documents")
        for lab in self.labels:
            if lab.label_id in self._labels_by_id:
                raise CorpusError(f"duplicate label_id {lab.label_id!r}")
            self._labels_by_id[lab.label_id] = lab
        for doc in self.documents:
            if doc.doc_id in self._docs_by_id:
                raise CorpusError(f"duplicate doc_id {doc.doc_id!r}")
            for label_id, value in doc.label_values.items():
                lab = self._labels_by_id.get(label_id)
                if lab is None:
                    raise CorpusError(f"document {doc.doc_id!r} references undeclared label {label_id!r}")
                if value not in lab.values:
                    raise CorpusError(
                        f"document {doc.doc_id!r}: value {value!r} not admissible for label {label_id!r}"
                    )
            self._docs_by_id[doc.doc_id] = doc
        seen: set[tuple[str, str, str]] = set()
        for var in self.variants:
            doc = self._docs_by_id.get(var.doc_id)
            if doc is None:
                raise CorpusError(f"variant references unknown doc_id {var.doc_id!r}")
            lab = self._labels_by_id.get(var.label_id)
            if lab is None:
                raise CorpusError(f"variant for {var.doc_id!r} references undeclared label {var.label_id!r}")
            if var.variant_value not in lab.values:
                raise CorpusError(
                    f"variant for {var.doc_id!r}: value {var.variant_value!r} not admissible for label {var.label_id!r}"
                )
            baseline = doc.label_values.get(var.label_id)
            if baseline is not None and var.variant_value == baseline:
                raise CorpusError(
                    f"variant for {var.doc_id!r}/{var.label_id!r} repeats the document's baseline value {baseline!r}"
                )
            key = (var.doc_id, var.label_id, var.variant_value)
            if key in seen:
                raise CorpusError(f"duplicate variant {key!r}")
            seen.add(key)
            self._variants_by_label.setdefault(var.label_id, []).append(var)

    def _index(self) -> None:
        """Integer codes for the prediction table.

        A doc code is the rank of its doc_id in sorted order, so codes sort
        like the ids, and indexes ``doc_ids`` and ``true_months``; a label
        code is its position in ``labels``; a value code is its position in
        the label's declared values.
        """
        self.doc_ids = tuple(sorted(self._docs_by_id))
        self._doc_codes = {doc_id: i for i, doc_id in enumerate(self.doc_ids)}
        self.true_months = np.array([self._docs_by_id[d].true_sentence_months for d in self.doc_ids])
        self._label_codes = {lab.label_id: i for i, lab in enumerate(self.labels)}
        self._value_codes = [{v: i for i, v in enumerate(lab.values)} for lab in self.labels]
        for variants in self._variants_by_label.values():
            variants.sort(key=lambda v: (v.doc_id, v.variant_value))

    @functools.cached_property
    def _variant_codes(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        # Built on first use, so the arrays are not resident while predictions are read.
        codes = {}
        for lab, values in zip(self.labels, self._value_codes):
            variants = self._variants_by_label.get(lab.label_id, [])
            codes[lab.label_id] = (
                np.fromiter((self._doc_codes[v.doc_id] for v in variants), np.intp, len(variants)),
                np.fromiter((values[v.variant_value] for v in variants), np.intp, len(variants)),
            )
        return codes

    @property
    def label_ids(self) -> list[str]:
        return [lab.label_id for lab in self.labels]

    def label(self, label_id: str) -> LabelDefinition:
        try:
            return self._labels_by_id[label_id]
        except KeyError:
            raise CorpusError(f"unknown label_id {label_id!r}") from None

    def document(self, doc_id: str) -> CaseDocument:
        try:
            return self._docs_by_id[doc_id]
        except KeyError:
            raise CorpusError(f"unknown doc_id {doc_id!r}") from None

    def label_code(self, label_id: str) -> int:
        self.label(label_id)  # raises on unknown label
        return self._label_codes[label_id]

    def codes(self, doc_id: str, label_id: str | None, value: str | None) -> tuple[int, int, int]:
        """(doc, label, value) codes of a prediction key; label and value are -1 for a baseline."""
        doc = self._doc_codes.get(doc_id)
        if doc is None:
            raise CorpusError(f"unknown doc_id {doc_id!r}")
        if label_id is None:
            return doc, -1, -1
        label = self._label_codes.get(label_id)
        if label is None:
            raise CorpusError(f"undeclared label {label_id!r}")
        code = self._value_codes[label].get(value)
        if code is None:
            raise CorpusError(f"value {value!r} not admissible for label {label_id!r}")
        return doc, label, code

    def variant_codes(self, label_id: str) -> tuple[np.ndarray, np.ndarray]:
        """(doc codes, value codes) of one label's variants, in (doc_id, variant_value) order."""
        self.label(label_id)  # raises on unknown label
        return self._variant_codes[label_id]

    def enumerate_variants(self, label_id: str) -> list[tuple[CaseDocument, CounterfactualVariant]]:
        """All (baseline document, variant) pairs for one label, in (doc_id, variant_value) order."""
        self.label(label_id)  # raises on unknown label
        return [(self._docs_by_id[v.doc_id], v) for v in self._variants_by_label.get(label_id, [])]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.documents == other.documents
            and sorted(self.variants, key=_variant_key) == sorted(other.variants, key=_variant_key)
        )

    def __repr__(self) -> str:
        return (
            f"Corpus(labels={len(self.labels)}, documents={len(self.documents)}, "
            f"variants={len(self.variants)})"
        )


def _variant_key(v: CounterfactualVariant) -> tuple[str, str, str]:
    return (v.doc_id, v.label_id, v.variant_value)


# A line with more opening brackets than this may nest deeper than orjson's
# parser can recurse on the C stack (it crashes past about 130k levels), so
# it goes to json.loads, which raises RecursionError from about this depth.
_MAX_DEPTH = 1000


def read_jsonl(path: str | Path, error: type[Exception]) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, record)`` for each non-blank line of a UTF-8 JSON Lines file.

    Lines are split on ``\\n`` only. orjson decodes each line; ``json.loads``
    decides the lines orjson rejects, so the accepted input and the error
    messages are the standard library's. Errors are ``error("file:line: ...")``.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    name = path.name
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        if not line.strip():
            continue
        try:
            if len(line) > _MAX_DEPTH and line.count(b"[") + line.count(b"{") > _MAX_DEPTH:
                raise ValueError  # json.loads decides this line
            record = orjson.loads(line)
        except ValueError:  # orjson.JSONDecodeError is a ValueError
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{name}:{lineno}: not valid UTF-8: {exc}") from None
            if not text.strip():  # e.g. a line of U+2028 or U+00A0
                continue
            try:
                record = json.loads(text)
            except (ValueError, RecursionError) as exc:  # ValueError: also an over-long integer
                raise error(f"{name}:{lineno}: invalid JSON: {exc}") from None
        if not isinstance(record, dict):
            raise error(f"{name}:{lineno}: record is not an object")
        yield lineno, record


def _require(record: dict, fields: list[str], where: str) -> None:
    missing = [f for f in fields if f not in record]
    if missing:
        raise CorpusError(f"{where}: missing fields {missing}")


def _require_strings(record: dict, fields: list[str], where: str) -> None:
    for name in fields:
        value = record.get(name, "")  # presence is _require's check
        if not isinstance(value, str):
            raise CorpusError(f"{where}: {name} must be a string, got {reprlib.repr(value)}")


def load_corpus(path: str | Path) -> Corpus:
    """Load and validate a corpus bundle directory."""
    root = Path(path)
    if not root.is_dir():
        raise CorpusError(f"corpus directory not found: {root}")

    labels: list[LabelDefinition] = []
    for lineno, rec in read_jsonl(root / "labels.jsonl", CorpusError):
        where = f"labels.jsonl:{lineno}"
        _require(rec, ["label_id", "kind", "values", "reference_value"], where)
        _require_strings(rec, ["label_id", "kind", "reference_value", "description"], where)
        values = rec["values"]
        if not (isinstance(values, list) and all(isinstance(v, str) for v in values)):
            raise CorpusError(f"{where}: values must be a list of strings, got {reprlib.repr(values)}")
        try:
            labels.append(
                LabelDefinition(
                    label_id=rec["label_id"],
                    kind=rec["kind"],
                    values=tuple(values),
                    reference_value=rec["reference_value"],
                    description=rec.get("description", ""),
                )
            )
        except CorpusError as exc:
            raise CorpusError(f"{where}: {exc}") from None

    documents: list[CaseDocument] = []
    for lineno, rec in read_jsonl(root / "documents.jsonl", CorpusError):
        where = f"documents.jsonl:{lineno}"
        _require(rec, ["doc_id", "facts", "true_sentence_months"], where)
        _require_strings(rec, ["doc_id", "facts"], where)
        label_values = rec.get("label_values", {})
        if not (isinstance(label_values, dict) and all(isinstance(v, str) for v in label_values.values())):
            raise CorpusError(
                f"{where}: label_values must be an object of strings, got {reprlib.repr(label_values)}"
            )
        try:
            documents.append(
                CaseDocument(
                    doc_id=rec["doc_id"],
                    facts=rec["facts"],
                    true_sentence_months=rec["true_sentence_months"],
                    label_values=dict(label_values),
                )
            )
        except CorpusError as exc:
            raise CorpusError(f"{where}: {exc}") from None

    variants: list[CounterfactualVariant] = []
    fields = ["doc_id", "label_id", "variant_value", "facts"]
    for lineno, rec in read_jsonl(root / "variants.jsonl", CorpusError):
        where = f"variants.jsonl:{lineno}"
        _require(rec, fields, where)
        _require_strings(rec, fields, where)
        variants.append(
            CounterfactualVariant(
                doc_id=rec["doc_id"],
                label_id=rec["label_id"],
                variant_value=rec["variant_value"],
                facts=rec["facts"],
            )
        )

    return Corpus(labels, documents, variants)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus bundle; output is deterministic for equal corpora."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    with (root / "labels.jsonl").open("w", encoding="utf-8") as fh:
        for lab in corpus.labels:
            fh.write(
                json.dumps(
                    {
                        "label_id": lab.label_id,
                        "kind": lab.kind,
                        "values": list(lab.values),
                        "reference_value": lab.reference_value,
                        "description": lab.description,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    with (root / "documents.jsonl").open("w", encoding="utf-8") as fh:
        for doc in corpus.documents:
            fh.write(
                json.dumps(
                    {
                        "doc_id": doc.doc_id,
                        "facts": doc.facts,
                        "true_sentence_months": doc.true_sentence_months,
                        "label_values": doc.label_values,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    with (root / "variants.jsonl").open("w", encoding="utf-8") as fh:
        for var in sorted(corpus.variants, key=_variant_key):
            fh.write(
                json.dumps(
                    {
                        "doc_id": var.doc_id,
                        "label_id": var.label_id,
                        "variant_value": var.variant_value,
                        "facts": var.facts,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def corpus_digest(path: str | Path) -> str:
    """SHA-256 over the three bundle files, for run provenance."""
    h = hashlib.sha256()
    root = Path(path)
    for name in ("labels.jsonl", "documents.jsonl", "variants.jsonl"):
        f = root / name
        if f.exists():
            h.update(name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()
