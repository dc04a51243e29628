"""Gateway contract tests against a local stub server."""

import json

import pytest

from fairjudge.fixtures import default_label_specs, generate_fixture
from fairjudge.gateway import (
    AuthenticationError,
    GatewayError,
    ModelConfig,
    PredictionFormatError,
    PredictionRecord,
    build_prompt,
    iter_prediction_fields,
    parse_prediction,
    read_predictions,
    run_generation,
    write_predictions,
)
from stub_server import StubServer

KEY_ENV = "FAIRJUDGE_TEST_KEY"


@pytest.fixture(autouse=True)
def api_key(monkeypatch):
    monkeypatch.setenv(KEY_ENV, "test-key")


def make_config(url, **overrides):
    defaults = dict(
        api_url=url,
        model_name="stub-model",
        temperature=0.0,
        api_key_env=KEY_ENV,
        max_concurrency=4,
        max_retries=2,
        retry_base_delay_s=0.01,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def small_corpus(n_docs=2, n_labels=1):
    corpus, _ = generate_fixture(seed=1, n_docs=n_docs, label_specs=default_label_specs(n_labels))
    return corpus


# --- build_prompt ----------------------------------------------------------

def test_build_prompt_substitutes():
    assert build_prompt("X", "Judge: {facts}") == "Judge: X"


def test_build_prompt_requires_exactly_one_placeholder():
    with pytest.raises(GatewayError):
        build_prompt("X", "no placeholder")
    with pytest.raises(GatewayError):
        build_prompt("X", "{facts} and {facts}")


# --- parse_prediction ------------------------------------------------------

def test_parse_direct_json():
    assert parse_prediction('{"sentence_months": 36}') == 36


def test_parse_with_prose_and_code_fence():
    raw = 'The sentence is: ```json\n{"sentence_months": 24}\n```'
    assert parse_prediction(raw) == 24


def test_parse_failure_is_a_value():
    assert parse_prediction("I cannot judge this case.") is None
    assert parse_prediction('{"months": 3}') is None
    assert parse_prediction('{"sentence_months": "many"}') is None
    assert parse_prediction('{"sentence_months": -4}') is None
    assert parse_prediction("") is None


def test_parse_takes_first_matching_object():
    raw = '{"other": 1} {"sentence_months": 10} {"sentence_months": 99}'
    assert parse_prediction(raw) == 10


def test_parse_numeric_string_tolerated():
    assert parse_prediction('{"sentence_months": "18"}') == 18


# --- run_generation --------------------------------------------------------

def test_record_count_identity(tmp_path):
    corpus = small_corpus(n_docs=2, n_labels=1)  # 2 docs + 2 variants
    with StubServer() as server:
        records = run_generation(corpus, make_config(server.url), tmp_path)
    assert len(records) == 4
    assert sum(1 for r in records if r.label_id is None) == 2
    keys = {r.sort_key() for r in records}
    assert len(keys) == 4
    assert all(r.predicted_months == 36 for r in records)
    assert all(r.attempt_count == 1 for r in records)


def test_warm_cache_no_network_and_idempotent(tmp_path):
    corpus = small_corpus(n_docs=3, n_labels=2)
    with StubServer() as server:
        first = run_generation(corpus, make_config(server.url), tmp_path)
        assert server.request_count == len(first)
        second = run_generation(corpus, make_config(server.url), tmp_path)
        assert server.request_count == len(first)  # zero new calls
    assert [r.sort_key() for r in first] == [r.sort_key() for r in second]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_predictions(first, p1)
    write_predictions(second, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_concurrency_bounded_by_config(tmp_path):
    corpus = small_corpus(n_docs=10, n_labels=2)  # 30 requests
    with StubServer(delay_s=0.03) as server:
        run_generation(corpus, make_config(server.url, max_concurrency=3), tmp_path)
        assert server.high_water <= 3
        assert server.high_water >= 2  # actually ran concurrently


def test_poisoned_response_isolated(tmp_path):
    corpus = small_corpus(n_docs=10, n_labels=2)  # 30 records
    from stub_server import doc_id_of

    def responder(prompt):
        # Poison exactly the baseline query of one document, even on re-ask.
        if doc_id_of(prompt) == "D00003" and "L01=v0" in prompt and "L02=v0" in prompt:
            return 200, "no judgment today"
        return 200, json.dumps({"sentence_months": 12})

    with StubServer(responder) as server:
        records = run_generation(corpus, make_config(server.url), tmp_path)
    missing = [r for r in records if r.predicted_months is None]
    assert len(missing) == 1
    assert missing[0].doc_id == "D00003" and missing[0].label_id is None
    assert missing[0].attempt_count == 2  # original + stricter re-ask
    assert len(records) == 30


def test_retry_on_429_then_success(tmp_path):
    corpus = small_corpus(n_docs=1, n_labels=1)
    calls = {"n": 0}

    def responder(prompt):
        calls["n"] += 1
        if calls["n"] == 1:
            return 429, json.dumps({"error": "rate limited"})
        return 200, json.dumps({"sentence_months": 7})

    with StubServer(responder) as server:
        records = run_generation(corpus, make_config(server.url), tmp_path)
    assert all(r.predicted_months == 7 for r in records)
    assert any(r.attempt_count == 2 for r in records)


def test_transport_failure_becomes_missing_marker(tmp_path):
    corpus = small_corpus(n_docs=1, n_labels=1)

    def responder(prompt):
        return 500, "boom"

    with StubServer(responder) as server:
        records = run_generation(corpus, make_config(server.url, max_retries=1), tmp_path)
        assert server.request_count == 2 * len(records)  # 1 + 1 retry each
    assert all(r.predicted_months is None for r in records)
    assert all(r.raw_response == "" for r in records)


def test_auth_error_aborts_immediately(tmp_path):
    corpus = small_corpus(n_docs=2, n_labels=1)

    def responder(prompt):
        return 401, json.dumps({"error": "bad key"})

    with StubServer(responder) as server:
        with pytest.raises(AuthenticationError, match=KEY_ENV):
            run_generation(corpus, make_config(server.url), tmp_path)


def test_missing_api_key_env(tmp_path, monkeypatch):
    monkeypatch.delenv(KEY_ENV)
    corpus = small_corpus()
    with pytest.raises(GatewayError, match=KEY_ENV):
        run_generation(corpus, make_config("http://127.0.0.1:1/x"), tmp_path)


def test_audit_log_appended(tmp_path):
    corpus = small_corpus(n_docs=2, n_labels=1)
    with StubServer() as server:
        run_generation(corpus, make_config(server.url), tmp_path)
    lines = (tmp_path / "audit.jsonl").read_text().splitlines()
    assert len(lines) == 4
    entry = json.loads(lines[0])
    assert "request" in entry and "response" in entry


# --- predictions.jsonl round trip ------------------------------------------

def test_predictions_round_trip(tmp_path):
    records = [
        PredictionRecord("m", "d1", None, None, 12.0, "{}", 1),
        PredictionRecord("m", "d1", "L01", "v1", None, "garbage", 3),
    ]
    path = tmp_path / "p.jsonl"
    write_predictions(records, path)
    assert read_predictions(path) == records


def test_read_predictions_reports_line_numbers(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text('{"model_name": "m", "doc_id": "d"}\n{"doc_id": "d"}\n')
    with pytest.raises(PredictionFormatError, match=":2"):
        read_predictions(path)


def test_prediction_record_invariants():
    with pytest.raises(GatewayError):
        PredictionRecord("m", "d", "L01", None, 1.0, "", 1)
    with pytest.raises(GatewayError):
        PredictionRecord("m", "d", None, None, -1.0, "", 1)
    with pytest.raises(GatewayError, match="must be finite"):
        PredictionRecord("m", "d", None, None, 10**400, "", 1)  # too large for a float


@pytest.mark.parametrize("months", ["12", True, [12]])
def test_prediction_record_rejects_non_numeric_months(months):
    with pytest.raises(GatewayError, match="must be a number or null"):
        PredictionRecord("m", "d", None, None, months, "", 1)


BASELINE = {"model_name": "m", "doc_id": "d", "predicted_months": 12, "attempt_count": 1}


def test_read_accepts_blank_lines_and_surrounding_whitespace(tmp_path):
    path = tmp_path / "p.jsonl"
    line = json.dumps(BASELINE)
    path.write_text(f"\n  {line}\t\n\n\t{line}  \r\n   \n")
    expected = PredictionRecord("m", "d", None, None, 12, "", 1)
    assert read_predictions(path) == [expected, expected]


def test_record_split_over_two_lines_rejected_at_its_first_line(tmp_path):
    path = tmp_path / "p.jsonl"
    first, rest = json.dumps(BASELINE).split(", ", 1)
    path.write_text(json.dumps(BASELINE) + "\n" + first + ",\n" + rest + "\n")
    with pytest.raises(PredictionFormatError, match=r"^p\.jsonl:2: invalid JSON"):
        list(iter_prediction_fields(path))


def test_one_object_per_line(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps(BASELINE) * 2 + "\n")
    with pytest.raises(PredictionFormatError, match=r"^p\.jsonl:1: invalid JSON: Extra data"):
        read_predictions(path)


@pytest.mark.parametrize("months", [True, "12"])
def test_read_rejects_bool_or_string_months_with_line_number(tmp_path, months):
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps(BASELINE) + "\n\n" + json.dumps(dict(BASELINE, predicted_months=months)) + "\n")
    with pytest.raises(PredictionFormatError, match=r"^p\.jsonl:3: predicted_months must be a number or null"):
        read_predictions(path)
