"""The one JSON Lines reader: orjson first, json.loads for the lines orjson rejects."""

import copy
import errno
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairjudge
import fairjudge.corpus
from fairjudge.cli import EXIT_DATA, main
from fairjudge.corpus import (
    CaseDocument,
    Corpus,
    CorpusError,
    CounterfactualVariant,
    LabelDefinition,
    PredictionFormatError,
    index_corpus,
    load_corpus,
    read_jsonl,
    read_prediction,
    record_fields,
    save_corpus,
)
from fairjudge.fixtures import default_label_specs, generate_fixture
from fairjudge.metrics import PredictionTable, _encode_source, normalized_lines
from prediction_files import read_predictions

# Line separators other than "\n" that str.splitlines() also splits on.
OTHER_BREAKS = "\u2028\u2029\x85\x0b\x0c\x1c\r"

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**64 - 1),  # orjson reads wider integers as floats
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(st.one_of(st.characters(), st.sampled_from(OTHER_BREAKS))),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
records = st.dictionaries(st.text(max_size=6), values, max_size=4)
blank_lines = st.sampled_from(["", " ", "\t  ", "\r", " \r", "\u2028", "\xa0"])


def dumps(record, ensure_ascii: bool) -> str:
    """``json.dumps`` of a record; one that holds a lone surrogate, which UTF-8 cannot encode, is written escaped.

    orjson rejects the escaped lone surrogate, so ``json.loads`` decides that line.
    """
    text = json.dumps(record, ensure_ascii=ensure_ascii)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return json.dumps(record, ensure_ascii=True)
    return text


def canonical(value):
    """Equal for equal JSON values; tells 1 from 1.0 and NaN equal to itself."""
    return json.dumps(value)


@settings(max_examples=200, deadline=None)
@given(
    lines=st.lists(st.one_of(records, blank_lines), max_size=12),
    ensure_ascii=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
    final_newline=st.booleans(),
)
def test_reader_yields_json_loads_of_each_line(tmp_path_factory, lines, ensure_ascii, newline, final_newline):
    texts = [line if isinstance(line, str) else dumps(line, ensure_ascii) for line in lines]
    path = tmp_path_factory.mktemp("jsonl") / "r.jsonl"
    path.write_bytes((newline.join(texts) + (newline if final_newline else "")).encode("utf-8"))
    expected = [
        (lineno, canonical(json.loads(text))) for lineno, text in enumerate(texts, start=1) if text.strip()
    ]
    got = [(lineno, canonical(record)) for lineno, record in read_jsonl(path, CorpusError)]
    assert got == expected


BASELINE = {"model_name": "m", "doc_id": "d", "predicted_months": 12, "attempt_count": 1}
LINE = json.dumps(BASELINE)


@pytest.mark.parametrize(
    "second_line, outcome",
    [
        (LINE + " x", r"invalid JSON: Extra data: line 1 column 80 \(char 79\)$"),
        (LINE.split(", ", 1)[0] + ",", r"invalid JSON: Expecting property name enclosed in double quotes: "),
        (LINE + LINE, r"invalid JSON: Extra data: line 1 column 79 \(char 78\)$"),
        (LINE.replace("12", "NaN"), r"predicted_months must be finite and >= 0, got nan$"),
        # Another model's line, since one model's second baseline of doc d is a repeated key.
        (LINE.replace('"m"', '"n"')[:-1] + ', "raw_response": "\\ud800"}', {"raw_response": "\ud800"}),
        (LINE.replace("12", "1" + "0" * 399), r"predicted_months must be finite and >= 0, got 1000"),
        (LINE.replace("12", "1" + "0" * 4999), r"invalid JSON: Exceeds the limit \(4300 digits\)"),
        ("\ufeff" + LINE, r"invalid JSON: Unexpected UTF-8 BOM \(decode using utf-8-sig\): line 1 column 1"),
        ("[" + LINE + "]", r"record is not an object$"),
        (LINE[:-1] + ', "raw_response": [1, 2]}', r"raw_response must be a string, got \[1, 2\]$"),
        (LINE.replace('"attempt_count": 1', '"attempt_count": true'), r"attempt_count must be an integer, got True$"),
    ],
    ids=["extra data", "split record", "two objects", "NaN", "lone surrogate", "400 digits",
         "5000 digits", "BOM", "non-object", "list raw_response", "bool attempt_count"],
)
def test_line_outcomes_keep_their_messages(tmp_path, second_line, outcome):
    """Both readers, ``ingest``'s and ``analyze``'s, accept or reject each line alike."""
    path = tmp_path / "p.jsonl"
    path.write_text(LINE + "\n" + second_line + "\n", encoding="utf-8")
    corpus = Corpus([], [CaseDocument("d", "facts", 12.0)], [])
    if isinstance(outcome, dict):
        rows = read_predictions(path)
        assert len(rows) == 2 and rows[1].raw_response == outcome["raw_response"]
        assert PredictionTable.read([path], corpus).present.tolist() == [[True], [True]]  # models m and n, doc d
    else:
        with pytest.raises(PredictionFormatError, match=r"^p\.jsonl:2: " + outcome):
            read_predictions(path)
        with pytest.raises(PredictionFormatError, match=r"^p\.jsonl:2: " + outcome):
            PredictionTable.read([path], corpus)


class _Misses(dict):
    """A dict whose ``[]`` always misses while ``get`` still finds: the inline lookups fail, the fallback's do not."""

    def __getitem__(self, key):
        raise KeyError(key)


KNOWN = Corpus(
    [LabelDefinition("gender", "binary", ("female", "male"), "female")],
    [CaseDocument("d1", "one", 12.0, {"gender": "female"}), CaseDocument("d2", "two", 30.0)],
    [],
)


def fallback_only(corpus):
    """A copy of ``corpus`` whose reads send every record to the typed-reader fallback."""
    corpus = copy.copy(corpus)
    corpus.doc_codes = _Misses(corpus.doc_codes)
    return corpus


ABSENT = object()


def altered(*records):
    """One of ``records`` with any of its fields made absent or any JSON value."""
    names = sorted({name for record in records for name in record})
    return st.builds(
        lambda record, changes: {k: v for k, v in {**record, **changes}.items() if v is not ABSENT},
        st.sampled_from(records),
        st.dictionaries(st.sampled_from(names), st.one_of(st.just(ABSENT), values)),
    )


def outcome(encode, corpus):
    try:
        return encode(corpus)
    except (CorpusError, PredictionFormatError) as exc:
        return type(exc), str(exc)


PREDICTIONS = (
    {"model_name": "m", "doc_id": "d1", "label_id": None, "variant_value": None,
     "predicted_months": 12, "raw_response": "", "attempt_count": 1},
    {"model_name": "n", "doc_id": "d2", "label_id": "gender", "variant_value": "male", "predicted_months": 12.5},
    {"model_name": "m", "doc_id": "d1", "label_id": "gender", "variant_value": "female", "attempt_count": 2.0},
    {"model_name": "m", "doc_id": "d2", "predicted_months": 10**400, "raw_response": "{}", "attempt_count": 2.5},
)


@settings(max_examples=300, deadline=None)
@given(recs=st.lists(altered(*PREDICTIONS), min_size=1, max_size=3))
def test_inline_prediction_checks_agree_with_the_typed_reader(recs):
    def encode(corpus):
        models, codes, months = _encode_source("p.jsonl", enumerate(recs, start=1), corpus)
        return models, codes.tolist(), canonical(months.tolist())

    assert outcome(encode, KNOWN) == outcome(encode, fallback_only(KNOWN))


# KNOWN with every key of PREDICTIONS in it: no baseline value, so each document has both gender variants.
EVERY_KEY = Corpus(
    KNOWN.labels,
    [CaseDocument("d1", "one", 12.0), CaseDocument("d2", "two", 30.0)],
    [CounterfactualVariant(d, "gender", v, f"{d}, {v}") for d in ("d1", "d2") for v in ("female", "male")],
)


@settings(max_examples=300, deadline=None)
@given(rec=altered(*PREDICTIONS))
def test_ingest_writes_the_line_of_the_typed_readers_record(tmp_path_factory, rec):
    """For a record the encoder accepts, ingest writes ``write_predictions``' line of its ``read_prediction`` record."""
    path = tmp_path_factory.mktemp("ingest") / "p.jsonl"
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    [(lineno, read)] = read_jsonl(path, PredictionFormatError)  # e.g. an integer above 2**64 is read as a float
    try:
        _encode_source("p.jsonl", [(lineno, read)], EVERY_KEY)
    except PredictionFormatError:
        with pytest.raises(PredictionFormatError):
            normalized_lines(path, EVERY_KEY)
        return
    expected = json.dumps(record_fields(read_prediction(read, f"p.jsonl:{lineno}")), sort_keys=True) + "\n"
    assert normalized_lines(path, EVERY_KEY) == [expected]


VARIANTS = (
    {"doc_id": "d1", "label_id": "gender", "variant_value": "male", "facts": "one, male"},
    {"doc_id": "d2", "label_id": "gender", "variant_value": "female", "facts": "two, female"},
    {"doc_id": "d2", "label_id": "gender", "variant_value": "male", "facts": "two, male"},
    {"doc_id": "d1", "label_id": None, "variant_value": None, "facts": "one"},  # a baseline's key
)


@settings(max_examples=300, deadline=None)
@given(recs=st.lists(altered(*VARIANTS), min_size=1, max_size=3))
def test_inline_variant_checks_agree_with_the_typed_reader(recs):
    def encode(corpus):
        corpus._encode_variants("variants.jsonl", enumerate(recs, start=1), keep_facts=True)
        return corpus._variant_columns.tolist(), corpus._variant_facts

    assert outcome(encode, copy.copy(KNOWN)) == outcome(encode, fallback_only(KNOWN))


@pytest.mark.parametrize("sep", ["\n", "\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("blank", ["", " \t "], ids=["empty line", "whitespace line"])
@pytest.mark.parametrize(
    "bad",
    [b'{"a": ', b'{"a": 1', b'{"a": 1} x', b'{"a": "\xe2\x82', b'{"a": "\xff"}'],
    ids=["cut value", "cut object", "extra data", "cut UTF-8", "invalid UTF-8"],
)
def test_bad_last_line_message_does_not_depend_on_the_final_newline(tmp_path, sep, blank, bad):
    """The message is the standard library's on the line as split on "\\n" alone.

    So a final "\\n" changes nothing, and in a CRLF file the "\\r" stays part of the line.
    """
    last = bad + sep[:-1].encode()
    body = sep.join([LINE, blank, LINE, ""]).encode() + last
    try:
        json.loads(last.decode("utf-8"))
    except UnicodeDecodeError as exc:
        expected = f"p.jsonl:4: not valid UTF-8: {exc}"
    except ValueError as exc:
        expected = f"p.jsonl:4: invalid JSON: {exc}"
    path = tmp_path / "p.jsonl"
    for end in (b"", b"\n"):
        path.write_bytes(body + end)
        with pytest.raises(CorpusError) as exc:
            list(read_jsonl(path, CorpusError))
        assert str(exc.value) == expected


def test_reader_holds_the_file_once(tmp_path):
    """Iterating holds the bytes read and one line at a time, not a list of the file's lines."""
    path = tmp_path / "p.jsonl"
    path.write_text("".join(json.dumps(dict(BASELINE, doc_id=f"d{i}")) + "\n" for i in range(50_000)))
    size = path.stat().st_size
    assert size > 3_000_000
    tracemalloc.start()
    try:
        n = sum(1 for _ in read_jsonl(path, CorpusError))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 50_000
    assert peak < 1.5 * size


def test_raw_line_separators_stay_inside_strings(tmp_path):
    """U+2028 and U+0085 written unescaped are text, not line breaks."""
    corpus, _ = generate_fixture(seed=3, n_docs=4, label_specs=default_label_specs(2, 2))
    save_corpus(corpus, tmp_path)
    for name in ("documents.jsonl", "variants.jsonl"):
        path = tmp_path / name
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text(
            "".join(json.dumps(dict(r, facts=r["facts"] + " \u2028 \x85 end"), ensure_ascii=False) + "\n"
                    for r in rows),
            encoding="utf-8",
        )
    loaded = load_corpus(tmp_path)
    assert all(d.facts.endswith(" \u2028 \x85 end") for d in loaded.documents)
    assert all(v.facts.endswith(" \u2028 \x85 end") for v in loaded.variants)

    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps(dict(BASELINE, raw_response="a\u2028b\u2029c"), ensure_ascii=False) + "\n",
                    encoding="utf-8")
    assert [r.raw_response for r in read_predictions(path)] == ["a\u2028b\u2029c"]


def test_deep_nesting_is_a_decode_error_not_a_crash(tmp_path):
    """orjson would overflow the C stack on this line; json.loads raises RecursionError.

    Run in a child process, so a crash fails this test instead of the whole run.
    """
    path = tmp_path / "r.jsonl"
    depth = 1_000_000
    path.write_text('{"a": ' + "[" * depth + "]" * depth + "}\n")
    code = (
        "import sys; from fairjudge.corpus import CorpusError, read_jsonl\n"
        "try:\n    list(read_jsonl(sys.argv[1], CorpusError))\n"
        "except CorpusError as exc:\n    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(fairjudge.__file__))
    result = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert result.returncode == 0
    assert result.stdout.startswith("r.jsonl:1: invalid JSON: maximum recursion depth exceeded")


def test_unreadable_file_names_the_path(tmp_path):
    with pytest.raises(CorpusError, match="cannot read .*missing.jsonl"):
        list(read_jsonl(tmp_path / "missing.jsonl", CorpusError))


# Read buffers small enough to end inside a line, a UTF-8 character or a "\r\n" pair.
@pytest.fixture(params=[2, 3, 5, 8, 64])
def small_buffer(request, monkeypatch):
    monkeypatch.setattr(fairjudge.corpus, "_BUFFER_SIZE", request.param)
    return request.param


@pytest.mark.parametrize(
    "text",
    [
        LINE + "\n" + json.dumps(dict(BASELINE, raw_response="ab" * 150)) + "\n",
        "\n".join(json.dumps(dict(BASELINE, doc_id=c * 7), ensure_ascii=False) for c in "é€😀\u2028") + "\n",
        "\r\n".join([LINE, " ", LINE, "", LINE]) + "\r\n",
        LINE + "\n\n" + json.dumps(dict(BASELINE, doc_id="last")),
    ],
    ids=["line longer than the buffer", "split UTF-8 character", "split CRLF", "no final newline"],
)
def test_read_boundaries_do_not_change_the_records(tmp_path, small_buffer, text):
    path = tmp_path / "r.jsonl"
    path.write_bytes(text.encode("utf-8"))
    expected = [(lineno, json.loads(line)) for lineno, line in enumerate(text.split("\n"), start=1) if line.strip()]
    assert list(read_jsonl(path, CorpusError)) == expected


def test_bad_line_past_a_boundary_reports_its_own_line(tmp_path, small_buffer):
    path = tmp_path / "p.jsonl"
    path.write_text("\n".join([LINE] * 5 + ["", LINE + " x", LINE]) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"^p\.jsonl:7: invalid JSON: Extra data: line 1 column 80 \(char 79\)$"):
        list(read_jsonl(path, CorpusError))


def test_digest_is_the_hash_of_file_names_and_bytes(tmp_path, small_buffer):
    corpus, _ = generate_fixture(seed=3, n_docs=4, label_specs=default_label_specs(2, 2))
    save_corpus(corpus, tmp_path)
    indexed, load_variants = index_corpus(tmp_path)
    load_variants()
    digest = hashlib.sha256()
    for name in ("labels.jsonl", "documents.jsonl", "variants.jsonl"):
        digest.update(name.encode())
        digest.update((tmp_path / name).read_bytes())
    assert indexed.digest == digest.hexdigest()


class FailsAfterOneLine:
    """An open binary file whose read fails with EIO after its first line."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __iter__(self):
        yield next(self.fh)
        raise OSError(errno.EIO, "Input/output error")


def failing_open(failing_name: str):
    """A stand-in for ``open`` whose file named ``failing_name`` fails after its first line."""

    def fake_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return FailsAfterOneLine(fh) if os.path.basename(path) == failing_name else fh

    return fake_open


def test_read_error_partway_is_cannot_read(tmp_path, monkeypatch):
    path = tmp_path / "p.jsonl"
    path.write_text(LINE + "\n" + LINE + "\n")
    monkeypatch.setattr(fairjudge.corpus, "open", failing_open("p.jsonl"), raising=False)
    lines = read_jsonl(path, CorpusError)
    assert next(lines)[0] == 1
    with pytest.raises(CorpusError, match=f"^cannot read {path}: \\[Errno 5\\] Input/output error$"):
        next(lines)


@pytest.mark.parametrize("failing_name", ["variants.jsonl", "predictions_stub-model.jsonl"])
def test_read_error_partway_exits_2_through_analyze(tmp_path, monkeypatch, capsys, failing_name):
    """The variants are read in the analyze process, the predictions in a forked worker where there are two CPUs."""
    fx = tmp_path / "fx"
    assert main(["fixture", "--seed", "3", "--docs", "6", "--out", str(fx)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(fairjudge.corpus, "open", failing_open(failing_name), raising=False)
    predictions = fx / "predictions_stub-model.jsonl"
    code = main(["analyze", "--corpus", str(fx), "--predictions", str(predictions), "--out", str(tmp_path / "r")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot read {fx / failing_name}: [Errno 5] Input/output error"
    ]


def test_reader_peak_is_the_buffer_and_the_longest_line(tmp_path, monkeypatch):
    """Memory does not grow with the file: the bound holds on a file several times its size."""
    monkeypatch.setattr(fairjudge.corpus, "_BUFFER_SIZE", 1 << 16)
    lines = [json.dumps(dict(BASELINE, doc_id=f"d{i}")) for i in range(12_000)]
    lines[6_000] = json.dumps(dict(BASELINE, raw_response="x" * 20_000))
    path = tmp_path / "p.jsonl"
    path.write_text("\n".join(lines) + "\n")
    longest = max(map(len, lines)) + 1
    # The buffer, the line, and the record decoded from it, with room to spare.
    bound = (1 << 16) + 3 * longest
    assert path.stat().st_size > 8 * bound
    tracemalloc.start()
    try:
        n = sum(1 for _ in read_jsonl(path, CorpusError))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 12_000
    assert peak < bound
