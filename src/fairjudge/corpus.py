"""Corpus data model: case documents, label annotations, and counterfactual variants.

A corpus lives in a directory of three JSONL files (``labels.jsonl``,
``documents.jsonl``, ``variants.jsonl``), one record per line, UTF-8. The
corpus is immutable after load and safe to share across worker threads.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import reprlib
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

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
    """Validated, indexed collection of labels, documents, and variants.

    ``documents`` are held in doc code order, which is doc_id order, and
    variants in (doc_id, label_id, variant_value) order, compared as
    strings: the one canonical order of the corpus, in which ``variants``
    and ``save_corpus`` give them. Variants are held as columns of doc,
    label and value codes (see ``codes``) plus their facts; ``variants``
    builds the objects from them on first use. A corpus from
    ``index_corpus`` is indexed only until its variants step has run, and
    then holds the code columns without the facts, which ``analyze`` never
    reads, and no document objects (``documents`` is None); ``variants``
    and ``document`` need them, so only ``load_corpus`` and ``Corpus(...)``
    give a corpus they work on. ``variant_codes`` gives one
    label's variants as codes and keys (see ``key_index``), in the order
    of ``variants`` filtered by label.
    """

    def __init__(
        self,
        labels: list[LabelDefinition],
        documents: list[CaseDocument],
        variants: list[CounterfactualVariant],
    ) -> None:
        self._index(labels, documents, keep_documents=True)
        self._encode_variants("variants", enumerate(map(record_fields, variants), start=1), keep_facts=True)

    def _index(self, labels: list[LabelDefinition], documents: Iterable[CaseDocument], keep_documents: bool) -> None:
        """Validate labels and documents and assign the integer codes of the prediction table.

        Documents are taken one at a time: each one's row (its place in
        ``documents``), months and baseline value codes are recorded, and the
        object itself is kept only with ``keep_documents``. A doc code is the
        rank of its doc_id in sorted order, so codes sort like the ids, and
        indexes ``doc_ids``, ``true_months`` and ``documents`` (None when not
        kept); a label code is its position in ``labels``; a value code is
        its position in the label's declared values. The first fault in file
        order is the one reported.
        """
        self.labels = list(labels)
        self.digest: Optional[str] = None  # SHA-256 of the bundle files, set by index_corpus's second step
        self._variant_columns: Optional[np.ndarray] = None  # set by _encode_variants
        self._variant_facts: Optional[list[str]] = None  # set by _encode_variants when it keeps the facts
        self._label_codes: dict[str, int] = {}
        for label, lab in enumerate(self.labels):
            if self._label_codes.setdefault(lab.label_id, label) != label:
                raise CorpusError(f"duplicate label_id {lab.label_id!r}")
        # (label_id, variant_value) -> (label, value) codes; (None, None) is a baseline.
        self.key_codes = {
            (lab.label_id, v): (label, i) for label, lab in enumerate(self.labels) for i, v in enumerate(lab.values)
        }
        self.key_codes[None, None] = (-1, -1)
        rows: dict[str, int] = {}  # doc_id -> row
        months: list[float] = []
        baselines: list[int] = []  # each row's value code of every label, -1 where it has none
        kept: list[CaseDocument] = []
        for doc in documents:
            if rows.setdefault(doc.doc_id, len(months)) != len(months):
                raise CorpusError(f"duplicate doc_id {doc.doc_id!r}")
            values = [-1] * len(self.labels)
            for key in doc.label_values.items():
                codes = self.key_codes.get(key)
                if codes is None:
                    raise CorpusError(f"document {doc.doc_id!r}: {self._key_fault(*key)}")
                values[codes[0]] = codes[1]
            months.append(doc.true_sentence_months)
            baselines += values
            if keep_documents:
                kept.append(doc)
        if not rows:
            raise CorpusError("corpus contains no documents")
        self.doc_ids = tuple(sorted(rows))
        self.doc_codes = {doc_id: i for i, doc_id in enumerate(self.doc_ids)}  # doc_id -> doc code
        order = [rows[doc_id] for doc_id in self.doc_ids]  # doc code -> row
        self.documents: Optional[list[CaseDocument]] = [kept[row] for row in order] if keep_documents else None
        self.true_months = np.array(months)[order]
        # [doc, label] -> value code
        self._baselines = np.array(baselines, np.intp).reshape(len(order), len(self.labels))[order]
        n_values = max((len(lab.values) for lab in self.labels), default=0)
        # The dense [doc, label, value] layout of keys; the extra last label and value slot holds the baselines.
        self.grid_shape = (len(self.doc_ids), len(self.labels) + 1, n_values + 1)

    def _key_fault(self, label_id: str | None, value: str | None) -> str:
        """Why a (label_id, value) key is not in ``key_codes``."""
        if label_id in self._label_codes:
            return f"value {value!r} not admissible for label {label_id!r}"
        return f"undeclared label {label_id!r}"

    def _encode_variants(self, name: str, lines: Iterable[tuple[int, dict]], keep_facts: bool) -> None:
        """Validate variant records (``file:line`` of ``name`` for field errors) and store them as columns.

        A record with string fields whose doc and (label, value) are known is
        encoded with two dict lookups; any other goes through ``read_record``
        and ``codes``, which raise. The inline checks must accept nothing
        ``read_record`` rejects. Every record's facts are checked, but kept
        only with ``keep_facts``. Repeats are found on the code columns (see
        ``_sort_variants``); before a record's error is raised, the records
        above it are checked for repeats, so the first fault in file order is
        the one reported.
        """
        doc_codes, key_codes = self.doc_codes, self.key_codes
        codes: list[int] = []  # flat (doc, label, value) triples
        facts: list[str] = []
        try:
            for lineno, rec in lines:
                try:
                    doc = doc_codes[rec["doc_id"]]
                    label, value = key_codes[rec["label_id"], rec["variant_value"]]
                    text = rec["facts"]
                    checked = label >= 0 and type(text) is str
                except (KeyError, TypeError):
                    checked = False
                if not checked:
                    variant = read_record(CounterfactualVariant, rec, f"{name}:{lineno}", CorpusError)
                    key = (variant.doc_id, variant.label_id, variant.variant_value)
                    try:
                        doc, label, value = self.codes(*key)
                    except CorpusError as exc:
                        raise CorpusError(f"variant {key!r}: {exc}") from None
                    text = variant.facts
                codes += (doc, label, value)
                if keep_facts:
                    facts.append(text)
        except CorpusError:  # a repeat in the rows above the faulty line comes first
            self._sort_variants(np.array(codes, dtype=np.intp).reshape(-1, 3))
            raise
        columns = np.array(codes, dtype=np.intp).reshape(-1, 3)
        del codes  # the list, before the sort allocates
        order = self._sort_variants(columns)
        self._variant_columns = columns[order].T.copy()  # rows: doc, label and value codes
        self._variant_columns.flags.writeable = False
        if keep_facts:
            self._variant_facts = [facts[i] for i in order.tolist()]
        # Each label's rows, in column order.
        label = self._variant_columns[1]
        bounds = np.bincount(label, minlength=len(self.labels)).cumsum()[:-1]
        self._label_rows = np.split(np.argsort(label, kind="stable"), bounds)

    def _sort_variants(self, columns: np.ndarray) -> np.ndarray:
        """The canonical order of variant rows of (doc, label, value) codes: by doc, then (label_id, value).

        Raises the CorpusError of the first row, in row order, whose key is
        its document's baseline or that of a row above it.
        """
        rank = np.zeros(self.grid_shape[1:], np.intp)  # [label, value] -> rank of (label_id, value) as strings
        for r, key in enumerate(sorted(key for key in self.key_codes if key[0] is not None)):
            rank[self.key_codes[key]] = r
        doc, label, value = columns.T
        order = np.lexsort((rank[label, value], doc))
        # lexsort is stable, so equal keys sit together in row order and each but the first is a repeat.
        ordered = columns[order]
        repeats = order[1:][(ordered[1:] == ordered[:-1]).all(axis=1)]
        faults = np.concatenate([repeats, np.flatnonzero(self._baselines[doc, label] == value)])
        if faults.size:
            doc_code, label_code, value_code = columns[faults.min()].tolist()
            lab = self.labels[label_code]
            doc_id, label_id, value_id = self.doc_ids[doc_code], lab.label_id, lab.values[value_code]
            if self._baselines[doc_code, label_code] == value_code:
                raise CorpusError(
                    f"variant for {doc_id!r}/{label_id!r} repeats the document's baseline value {value_id!r}"
                )
            raise CorpusError(f"duplicate variant {(doc_id, label_id, value_id)!r}")
        return order

    @functools.cached_property
    def variants(self) -> list[CounterfactualVariant]:
        """The variants as objects, facts included, in canonical order; built on first use."""
        if self._variant_facts is None:
            raise CorpusError("corpus was indexed without its variant facts; read it with load_corpus")
        labels = self.labels
        return [
            CounterfactualVariant(self.doc_ids[d], labels[l].label_id, labels[l].values[v], facts)
            for d, l, v, facts in zip(*self._variant_columns.tolist(), self._variant_facts)
        ]

    @property
    def label_ids(self) -> list[str]:
        return [lab.label_id for lab in self.labels]

    def label(self, label_id: str) -> LabelDefinition:
        return self.labels[self.label_code(label_id)]

    def document(self, doc_id: str) -> CaseDocument:
        if self.documents is None:
            raise CorpusError("corpus was indexed without its documents; read it with load_corpus")
        return self.documents[self.codes(doc_id, None, None)[0]]

    def label_code(self, label_id: str) -> int:
        try:
            return self._label_codes[label_id]
        except KeyError:
            raise CorpusError(f"unknown label_id {label_id!r}") from None

    def select_labels(self, label_ids: Optional[Sequence[str]] = None) -> tuple[str, ...]:
        """The labels a run covers, sorted: ``label_ids``, or every label when that is None or empty.

        An unknown label is a CorpusError naming the first one in the order given.
        """
        for label_id in label_ids or ():
            self.label_code(label_id)
        return tuple(sorted(set(label_ids or self.label_ids)))

    def codes(self, doc_id: str, label_id: str | None, value: str | None) -> tuple[int, int, int]:
        """(doc, label, value) codes of a prediction key; label and value are -1 for a baseline."""
        doc = self.doc_codes.get(doc_id)
        if doc is None:
            raise CorpusError(f"unknown doc_id {doc_id!r}")
        codes = self.key_codes.get((label_id, value))
        if codes is None:
            raise CorpusError(self._key_fault(label_id, value))
        return (doc, *codes)

    def variant_codes(self, label_id: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(doc codes, value codes, keys) of one label's variants, in (doc_id, variant_value) order."""
        rows = self._label_rows[self.label_code(label_id)]
        return self._variant_columns[0, rows], self._variant_columns[2, rows], len(self.doc_ids) + rows

    def key_index(self) -> np.ndarray:
        """An array of ``grid_shape``: the number of the key of [doc, label, value] codes (see ``codes``), or -1.

        Keys are numbered from 0 in canonical order: each document's baseline (label and value code -1, the
        extra last slot), by doc code, then the variants in the order of ``variants``.
        """
        n_docs = len(self.doc_ids)
        index = np.full(self.grid_shape, -1, np.intp)
        index[:, -1, -1] = np.arange(n_docs)
        index[tuple(self._variant_columns)] = np.arange(n_docs, n_docs + self._variant_columns.shape[1])
        return index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        # Equal labels and documents give equal codes, and the columns are in canonical order. Corpora of
        # different kinds (indexed only, codes only, full) differ: array_equal is False for None and
        # an array, and so is == for None and a list of facts or documents.
        return (
            self.labels == other.labels
            and self.doc_ids == other.doc_ids
            and np.array_equal(self.true_months, other.true_months)
            and np.array_equal(self._baselines, other._baselines)
            and self.documents == other.documents
            and np.array_equal(self._variant_columns, other._variant_columns)
            and self._variant_facts == other._variant_facts
        )

    def __repr__(self) -> str:
        if self._variant_columns is None:
            variants = "variants not loaded"
        else:
            variants = f"variants={self._variant_columns.shape[1]}"
            if self._variant_facts is None:
                variants += ", codes only"
        return f"Corpus(labels={len(self.labels)}, documents={len(self.doc_ids)}, {variants})"


# read_jsonl's read buffer: reading holds about this many bytes plus the longest line.
_BUFFER_SIZE = 1 << 20

# A line with more opening brackets than this may nest deeper than orjson's
# parser can recurse on the C stack (it crashes past about 130k levels), so
# it goes to json.loads, which raises RecursionError from about this depth.
_MAX_DEPTH = 1000

# The line write_jsonl and ingest write: JSONL_ENCODER.encode(fields) + "\n", i.e. json.dumps(fields, sort_keys=True).
JSONL_ENCODER = json.JSONEncoder(sort_keys=True)


def read_jsonl(path: str | Path, error: type[Exception], digest=None) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, record)`` for each non-blank line of a UTF-8 JSON Lines file.

    The file is read through a buffer of ``_BUFFER_SIZE`` bytes and split on
    ``\\n`` only, one line at a time, so reading holds the buffer and one
    line whatever the file's size. orjson decodes each line; ``json.loads``
    decides the lines orjson rejects, so the accepted input and the error
    messages are the standard library's. Errors are ``error("file:line:
    ...")``, and ``error("cannot read ...")`` when the file cannot be opened
    or read. A hashlib ``digest`` is updated with the file name, then with
    each line's bytes as it is read, which is the hash of the file's bytes.
    """
    path = Path(path)
    name = path.name
    if digest is not None:
        digest.update(name.encode())
    try:
        with open(path, "rb", buffering=_BUFFER_SIZE) as fh:
            for lineno, line in enumerate(fh, start=1):  # lines keep their b"\n"
                if digest is not None:
                    digest.update(line)
                if not line.strip():
                    continue
                try:
                    if len(line) > _MAX_DEPTH and line.count(b"[") + line.count(b"{") > _MAX_DEPTH:
                        raise ValueError  # json.loads decides this line
                    record = orjson.loads(line)
                except ValueError:  # orjson.JSONDecodeError is a ValueError
                    if line.endswith(b"\n"):  # so positions in the messages are those of the line alone
                        line = line[:-1]
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
    except OSError as exc:  # opening, or reading partway through
        raise error(f"cannot read {path}: {exc}") from exc


# The JSON types of scalar fields; json.loads yields exactly these types, so a bool is no integer here.
_SCALARS = {str: "a string", int: "an integer", float: "a number", bool: "a boolean"}


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, object, bool, Optional[type], tuple[type, ...]], ...]:
    """(name, annotation, required, item, exact) of each dataclass field; ``item`` is X of a dict[str, X] of scalars."""
    hints = typing.get_type_hints(cls)
    schema = []
    for f in dataclasses.fields(cls):
        tp = hints[f.name]
        args = typing.get_args(tp)
        item = args[1] if typing.get_origin(tp) is dict and args[1] in _SCALARS else None
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        # The types whose values _from_json returns unchanged; Optional[X]'s args are (X, NoneType).
        exact = args if typing.get_origin(tp) is typing.Union else (tp,)
        schema.append((f.name, tp, required, item, (*exact, int) if float in exact else exact))
    return tuple(schema)


def from_record(cls: type, record: dict):
    """The ``cls`` dataclass of its ``asdict`` form, each field checked against its annotation (see ``_from_json``).

    Keys that name no field are ignored, and a field's default covers its
    absence. A missing field raises ``KeyError(name)``, and a field not of
    its JSON type ``TypeError("<name> must be <JSON type>, got <value>")``,
    where an item inside a container is named with its index or key, as in
    ``labels[0]`` or ``bias_effects['L01']``. A value ``_from_json`` returns
    unchanged, or a dict[str, X] of values of type X, is taken after one
    type check. That keeps a corpus read as fast as hand-written checks; a
    prediction line gets here only if ``metrics._encode_source``'s do not accept it.
    """
    if type(record) is not dict:
        raise TypeError(f"{cls.__name__} must be an object, got {reprlib.repr(record)}")
    kwargs = {}
    for name, tp, required, item, exact in _fields(cls):
        if name in record:
            value = record[name]
            if type(value) in exact:
                kwargs[name] = value
            elif item is not None and type(value) is dict and all(type(v) is item for v in value.values()):
                kwargs[name] = dict(value)
            else:
                kwargs[name] = _from_json(tp, value, name)
        elif required:
            raise KeyError(name)
    return cls(**kwargs)


def read_record(
    cls: type, record: dict, where: str, error: type[Exception], invalid: type[Exception] = CorpusError
):
    """``from_record(cls, record)`` of the record at ``where`` (``file:line``); a fault is ``error("<where>: ...")``.

    ``invalid`` is the error of ``cls``'s own value checks. A record that
    lacks required fields names them all, whatever else is wrong with it:
    ``missing fields ['doc_id', 'facts']``.
    """
    try:
        return from_record(cls, record)
    except (KeyError, TypeError, invalid) as exc:
        missing = [name for name, _, required, _, _ in _fields(cls) if required and name not in record]
        raise error(f"{where}: {f'missing fields {missing}' if missing else exc}") from None


def _from_json(tp, value, name: str, or_null: str = ""):
    """A JSON ``value`` as type ``tp``, or a TypeError naming it ``name`` (an item: with its index or key).

    ``tp`` is str, int, float (also from an integer), bool, Optional[X], tuple[X, ...], tuple[X, Y] or
    list[X] (from a list), dict or dict[str, X] (from an object), or a dataclass (see ``from_record``).
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    fixed = origin is tuple and args[-1] is not Ellipsis
    if origin is typing.Union:  # Optional[X]: args are (X, NoneType)
        return None if value is None else _from_json(args[0], value, name, " or null")
    if tp in _SCALARS:
        what, ok = _SCALARS[tp], type(value) is tp or tp is float and type(value) is int
    elif dataclasses.is_dataclass(tp) or tp is dict or origin is dict:
        what, ok = "an object", type(value) is dict
    elif origin in (tuple, list):
        what = f"a list of {len(args)} items" if fixed else "a list"
        ok = type(value) is list and (not fixed or len(value) == len(args))
    else:
        raise NotImplementedError(f"from_record cannot read a field of type {tp!r}")
    if not ok:
        raise TypeError(f"{name} must be {what}{or_null}, got {reprlib.repr(value)}")
    if dataclasses.is_dataclass(tp):
        return from_record(tp, value)
    if origin is dict:
        return {k: _from_json(args[1], v, f"{name}[{k!r}]") for k, v in value.items()}
    if origin in (tuple, list):
        items = zip(args if fixed else itertools.repeat(args[0]), value)
        return origin(_from_json(t, v, f"{name}[{i}]") for i, (t, v) in enumerate(items))
    return value


def load_corpus(path: str | Path) -> Corpus:
    """Load and validate a corpus bundle directory, facts included; ``digest`` is the SHA-256 of its files."""
    corpus, load_variants = index_corpus(path, keep_facts=True)
    load_variants()
    return corpus


def index_corpus(path: str | Path, keep_facts: bool = False) -> tuple[Corpus, Callable[[], None]]:
    """The two steps of ``load_corpus``: the corpus of its labels and documents, and the call that adds its variants.

    The first step validates ``labels.jsonl`` and ``documents.jsonl`` and
    assigns the codes, which is all that encoding predictions needs
    (``Corpus.codes``, ``doc_codes``, ``key_codes``). The second validates
    ``variants.jsonl``, adds its code columns to the corpus and sets
    ``digest``; until it has returned, nothing that reads the variants may
    be called. Documents are read into the index one line at a time. It
    keeps the documents and the variants' facts only with ``keep_facts``,
    so by default memory does not grow with case length, and
    ``Corpus.variants`` and ``Corpus.document`` raise.
    """
    root = Path(path)
    if not root.is_dir():
        raise CorpusError(f"corpus directory not found: {root}")
    digest = hashlib.sha256()

    labels = [
        read_record(LabelDefinition, rec, f"labels.jsonl:{lineno}", CorpusError)
        for lineno, rec in read_jsonl(root / "labels.jsonl", CorpusError, digest)
    ]
    documents = (
        read_record(CaseDocument, rec, f"documents.jsonl:{lineno}", CorpusError)
        for lineno, rec in read_jsonl(root / "documents.jsonl", CorpusError, digest)
    )
    corpus = Corpus.__new__(Corpus)
    corpus._index(labels, documents, keep_facts)

    def load_variants() -> None:
        lines = read_jsonl(root / "variants.jsonl", CorpusError, digest)
        corpus._encode_variants("variants.jsonl", lines, keep_facts)
        corpus.digest = digest.hexdigest()

    return corpus, load_variants


def record_fields(r) -> dict:
    """A flat dataclass record's fields by name: ``asdict(r)``, without the copy.

    Each field is read with ``getattr``. ``asdict`` deep-copies every
    record, and ``vars`` gives each record on CPython 3.11 a ``__dict__``
    that it keeps, about 64 bytes a record.
    """
    return {name: getattr(r, name) for name, _, _, _, _ in _fields(type(r))}


def replace_file(path: str | Path, write: Callable[[typing.TextIO], object], newline: Optional[str] = None) -> None:
    """Replace the UTF-8 text file ``path`` whole with what ``write(fh)`` writes, never truncating it in place.

    ``write`` fills a temporary file beside ``path``, which ``os.replace``
    then moves over it, so a write that fails partway leaves ``path`` as it
    was. On error the temporary file is removed, and an OSError that names
    it names ``path`` instead.
    """
    import os  # here, not at module level, so that importing fairjudge costs what it did

    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            exc.filename = str(path)
        raise


def write_jsonl(records: Iterable, path: str | Path) -> None:
    """Write one line per flat dataclass record: ``json.dumps(asdict(r), sort_keys=True)`` (see ``record_fields``).

    The file is replaced whole (see ``replace_file``).
    """
    replace_file(path, lambda fh: fh.writelines(JSONL_ENCODER.encode(record_fields(r)) + "\n" for r in records))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus bundle, one record per line with its dataclass fields; deterministic for equal corpora."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    for name, records in (("labels", corpus.labels), ("documents", corpus.documents), ("variants", corpus.variants)):
        write_jsonl(records, root / f"{name}.jsonl")
