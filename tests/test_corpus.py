"""Corpus loading, validation, enumeration, and fixture determinism."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from fairjudge.corpus import (
    CaseDocument,
    Corpus,
    CorpusError,
    CounterfactualVariant,
    LabelDefinition,
    index_corpus,
    load_corpus,
    save_corpus,
)
from fairjudge.fixtures import default_label_specs, generate_fixture
from fairjudge.gateway import PredictionFormatError, PredictionRecord
from fairjudge.metrics import PredictionTable


def write_bundle(root: Path, labels, documents, variants):
    root.mkdir(parents=True, exist_ok=True)
    (root / "labels.jsonl").write_text("\n".join(json.dumps(r) for r in labels) + "\n")
    (root / "documents.jsonl").write_text("\n".join(json.dumps(r) for r in documents) + "\n")
    (root / "variants.jsonl").write_text("\n".join(json.dumps(r) for r in variants) + ("\n" if variants else ""))


LABELS = [
    {"label_id": "gender", "kind": "binary", "values": ["female", "male"], "reference_value": "female"},
    {"label_id": "court", "kind": "categorical", "values": ["urban", "rural", "military"],
     "reference_value": "urban"},
]
DOCS = [
    {"doc_id": "d1", "facts": "case one", "true_sentence_months": 12,
     "label_values": {"gender": "female", "court": "urban"}},
    {"doc_id": "d2", "facts": "case two", "true_sentence_months": 48,
     "label_values": {"gender": "female", "court": "urban"}},
    {"doc_id": "d3", "facts": "case three", "true_sentence_months": 6,
     "label_values": {"gender": "male"}},
]
VARIANTS = [
    {"doc_id": "d1", "label_id": "gender", "variant_value": "male", "facts": "case one (male)"},
    {"doc_id": "d2", "label_id": "gender", "variant_value": "male", "facts": "case two (male)"},
    {"doc_id": "d1", "label_id": "court", "variant_value": "rural", "facts": "case one (rural)"},
    {"doc_id": "d1", "label_id": "court", "variant_value": "military", "facts": "case one (military)"},
]


@pytest.fixture
def bundle(tmp_path):
    root = tmp_path / "corpus"
    write_bundle(root, LABELS, DOCS, VARIANTS)
    return root


def test_load_counts_fixture_bundle(bundle):
    corpus = load_corpus(bundle)
    assert len(corpus.documents) == 3
    assert len(corpus.labels) == 2
    assert len(corpus.variants) == 4


def test_empty_documents_file_rejected(tmp_path):
    root = tmp_path / "corpus"
    write_bundle(root, LABELS, [], [])
    with pytest.raises(CorpusError, match="no documents"):
        load_corpus(root)


def test_variant_with_unknown_doc_named_in_error(tmp_path):
    root = tmp_path / "corpus"
    bad = VARIANTS + [{"doc_id": "ghost", "label_id": "gender", "variant_value": "male", "facts": "x"}]
    write_bundle(root, LABELS, DOCS, bad)
    with pytest.raises(CorpusError, match="ghost"):
        load_corpus(root)


def test_malformed_record_reports_line_number(tmp_path):
    root = tmp_path / "corpus"
    write_bundle(root, LABELS, DOCS, VARIANTS)
    (root / "documents.jsonl").write_text('{"doc_id": "d1"}\nnot json\n')
    with pytest.raises(CorpusError, match="documents.jsonl:1"):
        load_corpus(root)


def test_inadmissible_label_value_rejected(tmp_path):
    root = tmp_path / "corpus"
    docs = [dict(DOCS[0], label_values={"gender": "unknown"})]
    write_bundle(root, LABELS, docs, [])
    with pytest.raises(CorpusError, match="unknown"):
        load_corpus(root)


def test_variant_equal_to_baseline_rejected(tmp_path):
    root = tmp_path / "corpus"
    bad = [{"doc_id": "d1", "label_id": "gender", "variant_value": "female", "facts": "x"}]
    write_bundle(root, LABELS, DOCS, bad)
    with pytest.raises(CorpusError, match="baseline"):
        load_corpus(root)


def test_duplicate_variant_rejected(tmp_path):
    root = tmp_path / "corpus"
    write_bundle(root, LABELS, DOCS, VARIANTS + [VARIANTS[0]])
    with pytest.raises(CorpusError, match="duplicate variant"):
        load_corpus(root)


def test_round_trip_serialization(bundle, tmp_path):
    corpus = load_corpus(bundle)
    out = tmp_path / "copy"
    save_corpus(corpus, out)
    assert load_corpus(out) == corpus


@pytest.mark.parametrize(
    "variant, message",
    [
        ({"variant_value": "female"}, "variant for 'd1'/'gender' repeats the document's baseline value 'female'"),
        ({}, "duplicate variant ('d1', 'gender', 'male')"),
        ({"label_id": None, "variant_value": None}, "variants.jsonl:5: label_id must be a string, got None"),
    ],
    ids=["baseline value", "duplicate", "null label"],
)
def test_variant_faults_keep_their_messages(tmp_path, variant, message):
    root = tmp_path / "corpus"
    write_bundle(root, LABELS, DOCS, VARIANTS + [dict(VARIANTS[0], **variant)])
    with pytest.raises(CorpusError) as exc:
        load_corpus(root)
    assert str(exc.value) == message


GHOST = {"doc_id": "ghost", "label_id": "gender", "variant_value": "male", "facts": "x"}
BASELINE_REPEAT = {"doc_id": "d1", "label_id": "gender", "variant_value": "female", "facts": "x"}


def corpus_fault(root: Path, how: str, documents=DOCS, variants=VARIANTS) -> str:
    """The CorpusError message of a corpus, loaded through ``index_corpus`` or built with ``Corpus(...)``."""
    with pytest.raises(CorpusError) as exc:
        if how == "index_corpus":
            write_bundle(root, LABELS, documents, variants)
            _, load_variants = index_corpus(root)
            load_variants()
        else:
            labels = [LabelDefinition(**dict(r, values=tuple(r["values"]))) for r in LABELS]
            docs = [CaseDocument(**r) for r in documents]
            Corpus(labels, docs, [CounterfactualVariant(**r) for r in variants])
    return str(exc.value)


KEY_FAULTS = {
    "unknown doc": (("ghost", "gender", "male"), "unknown doc_id 'ghost'"),
    "undeclared label": (("d1", "age", "male"), "undeclared label 'age'"),
    "inadmissible value": (("d1", "gender", "other"), "value 'other' not admissible for label 'gender'"),
}
RECORD_PATHS = [("document", "index_corpus"), ("document", "Corpus"), ("variant", "index_corpus"),
                ("variant", "Corpus"), ("prediction", "PredictionTable.build")]


@pytest.mark.parametrize(
    "record, how, key, fault",
    [
        pytest.param(record, how, *KEY_FAULTS[name], id=f"{record} via {how}: {name}")
        for record, how in RECORD_PATHS
        for name in KEY_FAULTS
        if not (record == "document" and name == "unknown doc")  # a document's own doc_id is known
    ],
)
def test_reference_faults_have_one_wording(tmp_path, record, how, key, fault):
    """A key that references no document, label or value of the corpus: one fault, prefixed with its record."""
    doc_id, label_id, value = key
    root = tmp_path / "corpus"
    if record == "document":
        docs = [dict(DOCS[0], label_values={label_id: value}), *DOCS[1:]]
        assert corpus_fault(root, how, documents=docs) == f"document 'd1': {fault}"
    elif record == "variant":
        variant = {"doc_id": doc_id, "label_id": label_id, "variant_value": value, "facts": "x"}
        assert corpus_fault(root, how, variants=[*VARIANTS, variant]) == f"variant {key!r}: {fault}"
    else:
        write_bundle(root, LABELS, DOCS, VARIANTS)
        prediction = PredictionRecord("m", doc_id, label_id, value, 5.0)
        with pytest.raises(PredictionFormatError) as exc:
            PredictionTable.build([prediction], load_corpus(root))
        assert str(exc.value) == f"prediction {('m', *key)!r}: {fault}"


@pytest.mark.parametrize("how", ["index_corpus", "Corpus"])
@pytest.mark.parametrize(
    "variants, message",
    [
        ([VARIANTS[0], VARIANTS[1], VARIANTS[0], VARIANTS[2], GHOST], "duplicate variant ('d1', 'gender', 'male')"),
        ([VARIANTS[0], GHOST, VARIANTS[1], VARIANTS[0]],
         "variant ('ghost', 'gender', 'male'): unknown doc_id 'ghost'"),
        ([VARIANTS[0], BASELINE_REPEAT, VARIANTS[0]],
         "variant for 'd1'/'gender' repeats the document's baseline value 'female'"),
        ([BASELINE_REPEAT, BASELINE_REPEAT],
         "variant for 'd1'/'gender' repeats the document's baseline value 'female'"),
    ],
    ids=["duplicate at 3 before unknown doc at 5", "unknown doc at 2 before duplicate at 4",
         "baseline repeat at 2 before duplicate at 3", "repeated baseline repeat"],
)
def test_first_variant_fault_in_file_order_wins(tmp_path, variants, message, how):
    assert corpus_fault(tmp_path / "corpus", how, variants=variants) == message


@pytest.mark.parametrize("how", ["index_corpus", "Corpus"])
def test_first_duplicate_doc_id_in_file_order_wins(tmp_path, how):
    # d2 repeats before d1 does, though d1 sorts first.
    assert corpus_fault(tmp_path / "corpus", how, documents=[*DOCS[1::-1], *DOCS[1::-1]]) == "duplicate doc_id 'd2'"


def test_duplicate_before_a_malformed_line_wins(tmp_path):
    root = tmp_path / "corpus"
    write_bundle(root, LABELS, DOCS, VARIANTS + [VARIANTS[0]])
    with (root / "variants.jsonl").open("a") as fh:
        fh.write("not json\n")
    with pytest.raises(CorpusError) as exc:
        load_corpus(root)
    assert str(exc.value) == "duplicate variant ('d1', 'gender', 'male')"


def test_duplicate_doc_id_before_a_malformed_line_wins(tmp_path):
    root = tmp_path / "corpus"
    write_bundle(root, LABELS, DOCS + [DOCS[0]], VARIANTS)
    with (root / "documents.jsonl").open("a") as fh:
        fh.write("not json\n")
    with pytest.raises(CorpusError) as exc:
        load_corpus(root)
    assert str(exc.value) == "duplicate doc_id 'd1'"


def shuffled_corpus(seed=0):
    """Documents and variants in no sorted order, and declared value orders unlike string order.

    Returns the corpus and the variants it was built from.
    """
    rng = random.Random(seed)
    labels = [
        LabelDefinition("Z", "categorical", ("v2", "v10", "v1"), "v2"),
        LabelDefinition("A", "binary", ("yes", "no"), "no"),
    ]
    docs, variants = [], []
    for i in rng.sample(range(12), 12):
        doc_id = f"d{i}"  # "d10" sorts before "d2"
        base = {"Z": ("v2", "v10")[i % 2], "A": "no"}
        docs.append(CaseDocument(doc_id, f"case {i}", 6.0 + i, base))
        variants += [CounterfactualVariant(doc_id, "Z", v, f"case {i}, Z={v}") for v in ("v2", "v10", "v1")
                     if v != base["Z"]]
        if i % 3:
            variants.append(CounterfactualVariant(doc_id, "A", "yes", f"case {i}, A=yes"))
    rng.shuffle(variants)
    return Corpus(labels, docs, variants), variants


def test_columnar_variants_round_trip_in_string_order(tmp_path):
    corpus, variants = shuffled_corpus()
    save_corpus(corpus, tmp_path)
    loaded = load_corpus(tmp_path)
    assert loaded == corpus
    key = lambda v: (v.doc_id, v.label_id, v.variant_value)
    assert sorted(loaded.variants, key=key) == sorted(corpus.variants, key=key) == sorted(variants, key=key)
    for label_id in corpus.label_ids:
        label = corpus.label(label_id)
        expected = sorted((v.doc_id, v.variant_value) for v in variants if v.label_id == label_id)
        for c in (corpus, loaded):
            docs, values, keys = c.variant_codes(label_id)
            assert [(c.doc_ids[d], label.values[v]) for d, v in zip(docs, values)] == expected
            variants_of_keys = [c.variants[k - len(c.doc_ids)] for k in keys]  # the baselines' keys come first
            assert [(v.doc_id, v.variant_value) for v in variants_of_keys] == expected
    assert corpus.variant_codes("Z")[1][:3].tolist() == [2, 1, 2]  # d0: v1, v10; d1: v1
    assert Corpus(corpus.labels, corpus.documents, variants[1:]) != corpus

    digest = hashlib.sha256()
    for name in ("labels.jsonl", "documents.jsonl", "variants.jsonl"):
        digest.update(name.encode())
        digest.update((tmp_path / name).read_bytes())
    assert loaded.digest == digest.hexdigest() and corpus.digest is None


def test_documents_and_variants_are_held_in_canonical_order():
    corpus, variants = shuffled_corpus()
    assert [d.doc_id for d in corpus.documents] == list(corpus.doc_ids) == sorted(f"d{i}" for i in range(12))
    assert corpus.variants == sorted(variants, key=lambda v: (v.doc_id, v.label_id, v.variant_value))


def label_keys(corpus, label_id):
    """(doc_id, variant_value) of one label's variants, from its code arrays, in their order."""
    docs, values, _ = corpus.variant_codes(label_id)
    label = corpus.label(label_id)
    return [(corpus.doc_ids[d], label.values[v]) for d, v in zip(docs, values)]


def test_enumerate_variants_order_and_coverage(bundle):
    corpus = load_corpus(bundle)
    gender = [("d1", "male"), ("d2", "male")]
    # 3-value label: d1 has two non-baseline variants.
    court = [("d1", "military"), ("d1", "rural")]
    assert label_keys(corpus, "gender") == gender
    assert label_keys(corpus, "court") == court
    for label_id, keys in (("gender", gender), ("court", court)):
        assert [(v.doc_id, v.variant_value) for v in corpus.variants if v.label_id == label_id] == keys


def test_enumerate_unknown_label_raises(bundle):
    corpus = load_corpus(bundle)
    with pytest.raises(CorpusError, match="^unknown label_id 'nope'$"):
        corpus.variant_codes("nope")


def test_variant_codes_follow_enumeration_order(bundle):
    corpus = load_corpus(bundle)
    for label_id in corpus.label_ids:
        assert label_keys(corpus, label_id) == [
            (v.doc_id, v.variant_value) for v in corpus.variants if v.label_id == label_id
        ]
    # Court values are coded in declared order, not in enumeration order.
    assert corpus.variant_codes("court")[1].tolist() == [2, 1]
    # Keys 0-2 are the baselines; d1's court variants come before its gender variant, as strings sort.
    assert [corpus.variant_codes(label_id)[2].tolist() for label_id in ("court", "gender")] == [[3, 4], [5, 6]]
    with pytest.raises(CorpusError):
        corpus.variant_codes("nope")


def test_key_index_numbers_each_baseline_then_each_variant(bundle):
    corpus = load_corpus(bundle)
    index = corpus.key_index()
    keys = [(doc_id, None, None) for doc_id in corpus.doc_ids]
    keys += [(v.doc_id, v.label_id, v.variant_value) for v in corpus.variants]
    assert len(keys) == 7
    assert [index[corpus.codes(*key)] for key in keys] == list(range(7))
    assert (index >= 0).sum() == 7  # any other codes name no key, such as a document's own baseline value:
    assert index[corpus.codes("d1", "gender", "female")] == -1


def test_codes_map_prediction_keys(bundle):
    corpus = load_corpus(bundle)
    assert corpus.doc_ids == ("d1", "d2", "d3")
    assert corpus.codes("d2", None, None) == (1, -1, -1)
    assert corpus.codes("d3", "court", "military") == (2, 1, 2)
    for key, reason in [(("d9", None, None), "unknown doc_id"), (("d1", "age", "old"), "undeclared label"),
                        (("d1", "court", "sea"), "not admissible")]:
        with pytest.raises(CorpusError, match=reason):
            corpus.codes(*key)


def test_enumerate_variants_partitions_corpus(bundle):
    corpus = load_corpus(bundle)
    union = []
    for label_id in corpus.label_ids:
        union.extend((doc_id, label_id, value) for doc_id, value in label_keys(corpus, label_id))
    assert sorted(union) == sorted((v.doc_id, v.label_id, v.variant_value) for v in corpus.variants)
    assert len(union) == len(set(union))


def test_label_definition_invariants():
    with pytest.raises(CorpusError):
        LabelDefinition("x", "binary", ("a",), "a")
    with pytest.raises(CorpusError):
        LabelDefinition("x", "binary", ("a", "b"), "c")
    with pytest.raises(CorpusError):
        LabelDefinition("x", "weird", ("a", "b"), "a")


def test_document_requires_positive_sentence():
    with pytest.raises(CorpusError):
        CaseDocument("d", "facts", 0)


# --- generate_fixture ------------------------------------------------------

def test_fixture_deterministic_in_seed(tmp_path):
    specs = default_label_specs(2)
    c1, _ = generate_fixture(seed=1, n_docs=10, label_specs=specs)
    c2, _ = generate_fixture(seed=1, n_docs=10, label_specs=specs)
    a, b = tmp_path / "a", tmp_path / "b"
    save_corpus(c1, a)
    save_corpus(c2, b)
    for name in ("labels.jsonl", "documents.jsonl", "variants.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert len(c1.documents) == 10


def test_fixture_differs_across_seeds(tmp_path):
    specs = default_label_specs(2)
    c1, _ = generate_fixture(seed=1, n_docs=10, label_specs=specs)
    c2, _ = generate_fixture(seed=2, n_docs=10, label_specs=specs)
    a, b = tmp_path / "a", tmp_path / "b"
    save_corpus(c1, a)
    save_corpus(c2, b)
    assert (a / "documents.jsonl").read_bytes() != (b / "documents.jsonl").read_bytes()


def test_fixture_metadata_records_planted_effects():
    _, meta = generate_fixture(seed=1, n_docs=5, label_specs=default_label_specs(2),
                               effect_plan={"L01": 0.3})
    assert meta["planted_bias_effects"] == {"L01": 0.3}


def test_fixture_rejects_bad_plan():
    with pytest.raises(CorpusError):
        generate_fixture(seed=1, n_docs=5, label_specs=default_label_specs(1),
                         effect_plan={"nope": 0.3})
    with pytest.raises(CorpusError):
        generate_fixture(seed=1, n_docs=0, label_specs=default_label_specs(1))


def corpus_kinds(root: Path) -> dict:
    """The three kinds of corpus of one bundle: indexed only, codes only (``index_corpus``) and full."""
    indexed, _ = index_corpus(root)
    codes, load_variants = index_corpus(root)
    load_variants()
    return {"indexed": indexed, "codes": codes, "full": load_corpus(root)}


def test_repr_of_each_corpus_kind(bundle):
    kinds = corpus_kinds(bundle)
    assert repr(kinds["indexed"]) == "Corpus(labels=2, documents=3, variants not loaded)"
    assert repr(kinds["codes"]) == "Corpus(labels=2, documents=3, variants=4, codes only)"
    assert repr(kinds["full"]) == "Corpus(labels=2, documents=3, variants=4)"


def test_equality_within_and_across_corpus_kinds(bundle):
    kinds, again = corpus_kinds(bundle), corpus_kinds(bundle)
    for name, corpus in kinds.items():
        assert corpus == again[name]
        for other_name, other in kinds.items():
            assert (corpus == other) == (name == other_name), (name, other_name)
    fewer = bundle.parent / "fewer"
    write_bundle(fewer, LABELS, DOCS, VARIANTS[:-1])
    for name, corpus in corpus_kinds(fewer).items():
        assert (corpus == kinds[name]) == (name == "indexed"), name


def test_codes_only_corpus_has_the_full_corpus_codes(bundle):
    codes, full = corpus_kinds(bundle)["codes"], load_corpus(bundle)
    assert codes.digest == full.digest
    for label_id in full.label_ids:
        for got, expected in zip(codes.variant_codes(label_id), full.variant_codes(label_id)):
            assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("kind", ["indexed", "codes"])
def test_variants_of_a_corpus_without_facts_raise_instead_of_reading_the_file(bundle, kind):
    corpus = corpus_kinds(bundle)[kind]
    (bundle / "variants.jsonl").unlink()  # nothing may read it again
    message = "corpus was indexed without its variant facts; read it with load_corpus"
    with pytest.raises(CorpusError, match=f"^{message}$"):
        corpus.variants


@pytest.mark.parametrize("kind", ["indexed", "codes"])
def test_documents_of_a_corpus_without_facts_raise(bundle, kind):
    corpus = corpus_kinds(bundle)[kind]
    assert corpus.documents is None
    with pytest.raises(CorpusError, match="^corpus was indexed without its documents; read it with load_corpus$"):
        corpus.document("d1")
    assert corpus_kinds(bundle)["full"].document("d1").doc_id == "d1"
