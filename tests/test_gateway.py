"""Gateway contract tests against a local stub server."""

import errno
import http.client
import json
import math
import random
import select
import shutil
import socket
import ssl
import subprocess
import sys
import threading
import time
import types
from contextlib import closing

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairjudge import gateway
from fairjudge.fixtures import default_label_specs, generate_fixture
from fairjudge.gateway import (
    DEFAULT_TEMPLATE,
    AuthenticationError,
    GatewayError,
    ModelConfig,
    PredictionFormatError,
    PredictionRecord,
    _Cache,
    _decodable_braces,
    build_prompt,
    build_work_items,
    parse_prediction,
    run_generation,
    write_predictions,
)
from prediction_files import read_predictions
from stub_server import StubServer

KEY_ENV = "FAIRJUDGE_TEST_KEY"
DEEP = "[" * 200000  # JSON nested far past the interpreter's recursion limit


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
    assert parse_prediction('{"sentence_months": 1' + "0" * 400 + "}") is None  # too large for a float
    assert parse_prediction('{"sentence_months": 1' + "0" * 5000 + "}") is None  # too long for an int
    assert parse_prediction('{"sentence_months": ' + DEEP) is None


NESTED_FROM_PAIRS = '{"a": {"b": [{"sentence_months": 4}]}}'  # read from its parent's pairs
QUOTED_BRACE_INSIDE = '{"a": "{}", "b": {"sentence_months": 2}}'  # "{}" is decoded on its own
AFTER_A_FAILED_DECODE = '{"a": 1 2} {"sentence_months": 6}'


def test_parse_takes_first_matching_object():
    raw = '{"other": 1} {"sentence_months": 10} {"sentence_months": 99}'
    assert parse_prediction(raw) == 10
    assert parse_prediction('{"other": ' + DEEP + ' {"sentence_months": 3}') == 3  # scanning goes on
    assert parse_prediction('{"x": {"sentence_months": 3}') == 3  # inside an unclosed object
    assert parse_prediction(NESTED_FROM_PAIRS) == 4
    assert parse_prediction(QUOTED_BRACE_INSIDE) == 2
    assert parse_prediction(AFTER_A_FAILED_DECODE) == 6


def test_parse_numeric_string_tolerated():
    assert parse_prediction('{"sentence_months": "18"}') == 18


def test_parse_of_many_unclosed_deep_objects_is_one_scan():
    raw = '{"a":' * 32000  # 160 KB: at the recursion limit, each `{` was once a decode of its own
    start = time.perf_counter()
    assert parse_prediction(raw) is None
    assert time.perf_counter() - start < 0.05
    assert parse_prediction(raw + '{"sentence_months": 7}') == 7.0


def test_parse_of_a_deep_closed_object_decodes_it_once():
    raw = '{"a":' * 900 + "[" + "1," * 29999 + "1]" + "}" * 900  # 65 KB: each `{` was once a decode of its own
    start = time.perf_counter()
    assert parse_prediction(raw) is None
    assert time.perf_counter() - start < 0.05
    assert parse_prediction(raw + '{"sentence_months": 7}') == 7.0


def test_parse_of_objects_nested_at_the_recursion_limit_returns_none():
    def nested(n):
        return '{"a":' * n + "1" + "}" * n

    def decodes(n):  # called one frame deeper than this test, as parse_prediction is
        try:
            json.JSONDecoder().raw_decode(nested(n))
        except RecursionError:
            return False
        return True

    lo, hi = 1, 100_000  # the deepest object that decodes there lies in [lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if decodes(mid) else (lo, mid)
    for n in range(lo - 10, lo + 2):  # a decode that runs a few frames deeper fails on some of these
        assert parse_prediction(nested(n)) is None
        assert parse_prediction(nested(n) + ' {"sentence_months": 7}') == 7.0


# Answers made of JSON texts, whole or cut short, and stray brackets, quotes and backslashes.
JSON_VALUES = st.recursive(
    st.none() | st.integers() | st.text(alphabet='{}[]"\\ a\né', max_size=4),  # json.dumps escapes ", \, \n and é
    lambda values: st.lists(values, max_size=3) | st.dictionaries(st.text(alphabet='{}"\\a', max_size=3), values, max_size=3),
    max_leaves=8,
).map(json.dumps)
ANSWER_PIECES = JSON_VALUES | st.tuples(JSON_VALUES, st.integers(0, 40)).map(lambda cut: cut[0][: cut[1]]) | st.sampled_from(
    ['{', '}', '[', ']', '"', '\\', ' ', '{"sentence_months": 3}']
)


@settings(max_examples=500, deadline=None)
@given(st.lists(ANSWER_PIECES, max_size=6).map("".join))
def test_every_brace_that_decodes_is_tried(text):
    decodes = []
    for pos in (i for i, c in enumerate(text) if c == "{"):
        try:
            json.JSONDecoder().raw_decode(text, pos)
        except (ValueError, RecursionError):
            continue
        decodes.append(pos)
    assert set(decodes) <= {pos for pos, _ in _decodable_braces(text)}


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


def test_null_content_is_retried_as_a_malformed_body(tmp_path):
    corpus = small_corpus(n_docs=1, n_labels=1)

    def responder(prompt):
        return 200, json.dumps({"choices": [{"message": {"content": None}}]}).encode()

    with StubServer(responder) as server:
        records = run_generation(corpus, make_config(server.url, max_retries=1), tmp_path)
        assert server.request_count == 2 * len(records)  # 1 + 1 retry each, and no strict re-ask
    assert all(r.predicted_months is None and r.raw_response == "" and r.attempt_count == 2 for r in records)


def test_auth_error_aborts_immediately(tmp_path):
    corpus = small_corpus(n_docs=2, n_labels=1)

    def responder(prompt):
        return 401, json.dumps({"error": "bad key"})

    with StubServer(responder) as server:
        with pytest.raises(AuthenticationError, match=KEY_ENV):
            run_generation(corpus, make_config(server.url), tmp_path)


def test_fatal_reply_cancels_the_queued_items(tmp_path):
    corpus = small_corpus(n_docs=10, n_labels=1)  # 20 records

    with StubServer(lambda prompt: (401, "{}")) as server:
        with pytest.raises(AuthenticationError):
            run_generation(corpus, make_config(server.url, max_concurrency=2), tmp_path)
        assert server.request_count <= 4


def test_at_most_two_items_per_worker_are_submitted(tmp_path, monkeypatch):
    corpus = small_corpus(n_docs=10, n_labels=3)  # 40 records
    lock = threading.Lock()
    counts = {"outstanding": 0, "most": 0}  # futures submitted and not finished

    def finished(_future):
        with lock:
            counts["outstanding"] -= 1

    class CountingExecutor(gateway.ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            with lock:
                counts["outstanding"] += 1
                counts["most"] = max(counts["most"], counts["outstanding"])
            future = super().submit(fn, *args, **kwargs)
            future.add_done_callback(finished)  # runs before any callback the caller adds
            return future

    monkeypatch.setattr(gateway, "ThreadPoolExecutor", CountingExecutor)
    with StubServer() as server:
        records = run_generation(corpus, make_config(server.url, max_concurrency=2), tmp_path)
    assert len(records) == 40
    assert counts == {"outstanding": 0, "most": 4}


def test_a_record_in_retry_backoff_does_not_hold_back_the_others(tmp_path, monkeypatch):
    corpus = small_corpus(n_docs=5, n_labels=1)  # 10 records
    first = build_prompt(corpus.documents[0].facts, DEFAULT_TEMPLATE)
    asked = []
    others_asked = threading.Event()

    def responder(prompt):
        asked.append(prompt)
        if len(asked) == 10:  # the first prompt, refused, and the nine others
            others_asked.set()
        if prompt == first and asked.count(first) == 1:
            return 500, "{}"
        return 200, json.dumps({"sentence_months": 36})

    # The backoff lasts until every other prompt has been asked, or 10 s.
    monkeypatch.setattr(gateway, "time", types.SimpleNamespace(sleep=lambda _delay: others_asked.wait(10)))
    with StubServer(responder) as server:
        records = run_generation(corpus, make_config(server.url, max_concurrency=2), tmp_path)
    assert len(records) == 10 and all(r.predicted_months == 36 for r in records)
    assert len(asked) == 11
    assert asked[-1] == first  # the retry comes after every other prompt


def test_progress_reported_once_per_record_from_the_calling_thread(tmp_path):
    corpus = small_corpus(n_docs=3, n_labels=2)  # 9 records
    calls = []

    def progress(done, total):
        calls.append((done, total, threading.get_ident()))

    with StubServer(delay_s=0.01) as server:
        records = run_generation(corpus, make_config(server.url, max_concurrency=3), tmp_path, progress=progress)
    n = len(records)
    assert [(done, total) for done, total, _ in calls] == [(i, n) for i in range(1, n + 1)]
    assert {thread for _, _, thread in calls} == {threading.get_ident()}


def test_keep_alive_connections_are_reused(tmp_path):
    corpus = small_corpus(n_docs=4, n_labels=1)  # 8 requests
    with StubServer() as server:
        records = run_generation(corpus, make_config(server.url, max_concurrency=2), tmp_path)
        assert server.request_count == 8
        assert 1 <= server.connection_count <= 2
    assert all(r.predicted_months == 36 for r in records)


def test_deeply_nested_response_body_is_retried(tmp_path):
    corpus = small_corpus(n_docs=1, n_labels=1)
    seen = set()

    def responder(prompt):
        if prompt not in seen:
            seen.add(prompt)
            return 200, DEEP.encode()
        return 200, json.dumps({"sentence_months": 7})

    with StubServer(responder) as server:
        records = run_generation(corpus, make_config(server.url, max_concurrency=1), tmp_path)
        assert server.request_count == 4
    assert all(r.predicted_months == 7 and r.attempt_count == 2 for r in records)


def test_deeply_nested_content_gets_the_strict_reask(tmp_path):
    corpus = small_corpus(n_docs=1, n_labels=1)

    def responder(prompt):
        if prompt.endswith(gateway.STRICT_SUFFIX):
            return 200, json.dumps({"sentence_months": 9})
        return 200, '{"sentence_months": ' + DEEP

    with StubServer(responder) as server:
        records = run_generation(corpus, make_config(server.url), tmp_path)
        assert server.request_count == 4
    assert all(r.predicted_months == 9 and r.attempt_count == 2 for r in records)


def test_missing_api_key_env(tmp_path, monkeypatch):
    monkeypatch.delenv(KEY_ENV)
    corpus = small_corpus()
    with pytest.raises(GatewayError, match=KEY_ENV):
        run_generation(corpus, make_config("http://127.0.0.1:1/x"), tmp_path)


@pytest.mark.parametrize(
    "retry_after,overrides,min_gap,max_gap",
    [
        ("0.3", {}, 0.3, 3.0),
        ("100", {"timeout_s": 0.5}, 0.5, 5.0),  # capped at the timeout
        ("Fri, 31 Dec 2100 23:59:59 GMT", {"timeout_s": 10.0}, 0.0, 5.0),  # HTTP date: ignored
    ],
)
def test_retry_after_on_429(tmp_path, retry_after, overrides, min_gap, max_gap):
    corpus = small_corpus(n_docs=1, n_labels=1)
    times = []

    def responder(prompt):
        times.append(time.monotonic())
        if len(times) == 1:
            return 429, json.dumps({"error": "rate limited"}), {"Retry-After": retry_after}
        return 200, json.dumps({"sentence_months": 7})

    with StubServer(responder) as server:
        records = run_generation(corpus, make_config(server.url, max_concurrency=1, **overrides), tmp_path)
    assert min_gap <= times[1] - times[0] < max_gap
    assert [r.predicted_months for r in records] == [7, 7]
    assert sorted(r.attempt_count for r in records) == [1, 2]


def test_one_backoff_rng_per_run(tmp_path, monkeypatch):
    corpus = small_corpus(n_docs=2, n_labels=1)  # 4 prompts, each rate limited once
    made = []

    def counting_random(*args):
        made.append(random.Random(*args))
        return made[-1]

    monkeypatch.setattr(gateway, "random", types.SimpleNamespace(Random=counting_random))
    seen = set()

    def responder(prompt):
        if prompt not in seen:
            seen.add(prompt)
            return 429, json.dumps({"error": "rate limited"})
        return 200, json.dumps({"sentence_months": 7})

    with StubServer(responder) as server:
        records = run_generation(corpus, make_config(server.url, max_concurrency=2), tmp_path)
        assert server.request_count == 8
    assert all(r.predicted_months == 7 and r.attempt_count == 2 for r in records)
    assert len(made) == 1


@pytest.mark.parametrize("status", [302, 400, 404, 500])
def test_non_2xx_status_is_retried(tmp_path, status):
    corpus = small_corpus(n_docs=1, n_labels=1)
    calls = {"n": 0}

    def responder(prompt):
        calls["n"] += 1
        if calls["n"] == 1:
            return status, "{}"
        return 200, json.dumps({"sentence_months": 7})

    with StubServer(responder) as server:
        records = run_generation(corpus, make_config(server.url, max_concurrency=1), tmp_path)
    assert [r.predicted_months for r in records] == [7, 7]
    assert sorted(r.attempt_count for r in records) == [1, 2]


@pytest.mark.parametrize("status", [401, 403])
def test_auth_abort_closes_audit_cache_and_connections(tmp_path, monkeypatch, status):
    corpus = small_corpus(n_docs=2, n_labels=1)
    closed = []
    real_close = gateway._Client.close

    def spy_close(client):
        real_close(client)
        closed.append(client)

    monkeypatch.setattr(gateway._Client, "close", spy_close)
    calls = {"n": 0}

    def responder(prompt):
        calls["n"] += 1
        if calls["n"] == 1:
            return 200, json.dumps({"sentence_months": 7})
        return status, json.dumps({"error": "bad key"})

    with StubServer(responder) as server:
        with pytest.raises(AuthenticationError, match=KEY_ENV):
            run_generation(corpus, make_config(server.url, max_concurrency=1), tmp_path)
    (client,) = closed
    assert client.audit_file.closed and client.cache.file.closed
    assert client.connections and all(conn.sock is None for conn in client.connections)
    assert len((tmp_path / "audit.jsonl").read_text().splitlines()) == 1


@pytest.fixture
def dialled(monkeypatch):
    """Hosts the client connects to; only loopback is let through."""
    hosts = []
    create_connection = socket.create_connection

    def loopback_only(address, *args, **kwargs):
        hosts.append(address[0])
        if address[0] != "127.0.0.1":
            raise OSError(f"test refuses to connect to {address[0]}")
        return create_connection(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", loopback_only)
    for name in ("HTTP_PROXY", "http_proxy", "NO_PROXY", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
    return hosts


UPSTREAM = "http://upstream.invalid/v1/chat/completions"


@pytest.mark.parametrize("userinfo,proxy_auth", [("", None), ("u%40x:p@", "Basic dUB4OnA=")])
def test_http_proxy_from_environment(tmp_path, monkeypatch, dialled, userinfo, proxy_auth):
    corpus = small_corpus(n_docs=2, n_labels=1)
    with StubServer() as server:
        monkeypatch.setenv("HTTP_PROXY", server.url.rsplit("/v1/", 1)[0].replace("//", "//" + userinfo))
        records = run_generation(corpus, make_config(UPSTREAM), tmp_path)
        assert server.request_count == 4
        assert server.last_headers["Host"] == "upstream.invalid"
        assert server.last_headers.get("Proxy-Authorization") == proxy_auth
    assert all(r.predicted_months == 36 for r in records)
    assert set(dialled) == {"127.0.0.1"}


def test_http_proxy_without_a_scheme_is_dialled_as_http(tmp_path, monkeypatch, dialled):
    corpus = small_corpus(n_docs=2, n_labels=1)
    with StubServer() as server:
        monkeypatch.setenv("HTTP_PROXY", f"127.0.0.1:{server.server.server_port}")
        records = run_generation(corpus, make_config(UPSTREAM), tmp_path)
        assert server.request_count == 4
        assert server.seen[-1][0] == UPSTREAM  # the absolute-form target of a plain-HTTP proxy
    assert all(r.predicted_months == 36 for r in records)
    assert set(dialled) == {"127.0.0.1"}


class ConnectProxy:
    """An HTTP CONNECT proxy on loopback that records each request head."""

    def __init__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.heads = []
        threading.Thread(target=self._serve, daemon=True).start()

    @property
    def url(self):
        return f"http://127.0.0.1:{self.sock.getsockname()[1]}"

    def _serve(self):
        while True:
            try:
                client, _ = self.sock.accept()
            except OSError:
                return
            threading.Thread(target=self._tunnel, args=(client,), daemon=True).start()

    def _tunnel(self, client):
        with client, client.makefile("rb") as reader:
            head = [reader.readline()]
            while head[-1] not in (b"\r\n", b""):
                head.append(reader.readline())
            self.heads.append(b"".join(head).decode("latin-1"))
            host, port = head[0].split()[1].decode().rsplit(":", 1)
            with socket.create_connection((host, int(port))) as upstream:
                client.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
                ends = [client, upstream]
                while True:
                    readable, _, _ = select.select(ends, [], [], 10)
                    chunks = [(end, end.recv(65536)) for end in readable]
                    if not chunks or not all(data for _, data in chunks):
                        return
                    for end, data in chunks:
                        (upstream if end is client else client).sendall(data)

    def close(self):
        self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()


def serve_tls(server, tmp_path):
    """Wrap a StubServer's socket in TLS with a new self-signed loopback certificate; return its path."""
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "1", "-subj", "/CN=127.0.0.1",
         "-addext", "subjectAltName=IP:127.0.0.1", "-keyout", str(key), "-out", str(cert)],
        check=True, capture_output=True,
    )
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    server.server.socket = context.wrap_socket(server.server.socket, server_side=True)
    return cert


needs_openssl = pytest.mark.skipif(shutil.which("openssl") is None, reason="needs the openssl command")
PROXY_AND_TLS_ENV = ("HTTP_PROXY", "http_proxy", "HTTPS_PROXY", "https_proxy", "NO_PROXY", "no_proxy",
                     "SSL_CERT_FILE", "SSL_CERT_DIR")


@needs_openssl
def test_https_trusts_ssl_cert_file_directly_and_through_a_connect_proxy(tmp_path, monkeypatch):
    for name in PROXY_AND_TLS_ENV:
        monkeypatch.delenv(name, raising=False)
    corpus = small_corpus(n_docs=2, n_labels=1)
    with StubServer() as server:
        cert = serve_tls(server, tmp_path)
        config = make_config(server.url.replace("http://", "https://"), max_retries=0)
        untrusted = run_generation(corpus, config, tmp_path / "untrusted")
        assert server.request_count == 0
        monkeypatch.setenv("SSL_CERT_FILE", str(cert))
        direct = run_generation(corpus, config, tmp_path / "direct")
        assert server.request_count == 4
        proxy = ConnectProxy()
        try:
            monkeypatch.setenv("HTTPS_PROXY", proxy.url.replace("//", "//u:p@"))
            tunnelled = run_generation(corpus, config, tmp_path / "tunnelled")
        finally:
            proxy.close()
        assert server.request_count == 8
    assert all(r.predicted_months is None for r in untrusted)
    assert all(r.predicted_months == 36 for r in direct + tunnelled)
    assert proxy.heads and all(
        head.startswith("CONNECT 127.0.0.1:") and "Proxy-Authorization: Basic dTpw" in head for head in proxy.heads
    )


@pytest.mark.parametrize(
    "route",
    ["http", "http-proxy", pytest.param("https", marks=needs_openssl),
     pytest.param("connect-proxy", marks=needs_openssl)],
)
def test_each_route_delivers_the_request_target_and_headers(tmp_path, monkeypatch, dialled, route):
    for name in PROXY_AND_TLS_ENV:
        monkeypatch.delenv(name, raising=False)
    corpus = small_corpus(n_docs=2, n_labels=1)
    proxy = None
    with StubServer() as server:
        host = "%s:%d" % server.server.server_address
        url = server.url + "?api-version=1"
        if route == "http-proxy":
            monkeypatch.setenv("HTTP_PROXY", f"http://{host}")
            url, host = UPSTREAM + "?api-version=1", "upstream.invalid"
        elif route != "http":
            monkeypatch.setenv("SSL_CERT_FILE", str(serve_tls(server, tmp_path)))
            url = url.replace("http://", "https://")
        if route == "connect-proxy":
            proxy = ConnectProxy()
            monkeypatch.setenv("HTTPS_PROXY", proxy.url)
        try:
            records = run_generation(corpus, make_config(url, max_retries=0, max_concurrency=2), tmp_path)
        finally:
            if proxy is not None:
                proxy.close()
    assert all(r.predicted_months == 36 for r in records) and len(server.seen) == 4
    target = url if route == "http-proxy" else "/v1/chat/completions?api-version=1"  # absolute-form to a proxy
    for path, headers, body in server.seen:
        assert path == target and headers["Host"] == host
        assert headers["Authorization"] == "Bearer test-key" and headers["Content-Type"] == "application/json"
        assert int(headers["Content-Length"]) == len(body)
    assert bool(proxy and proxy.heads) == (route == "connect-proxy")


@pytest.mark.parametrize(
    "overrides, template",
    [
        ({}, DEFAULT_TEMPLATE),
        ({"provider_name": "Together"}, DEFAULT_TEMPLATE),
        ({"model_name": "org/mod\u00e8le", "temperature": 0.7}, DEFAULT_TEMPLATE),
        ({}, 'Sachverhalt \u2013 Stra\u00dfe: "{facts}"\u2028\\ Antwort als JSON.'),
    ],
    ids=["defaults", "provider", "model-and-temperature", "non-ascii-template"],
)
def test_request_body_is_the_model_settings_and_the_prompt(tmp_path, overrides, template):
    corpus = small_corpus(n_docs=2, n_labels=1)
    with StubServer() as server:
        config = make_config(server.url, **overrides)
        run_generation(corpus, config, tmp_path, template=template)
    provider = {"provider": {"order": [config.provider_name]}} if config.provider_name else {}
    expected = [
        {"model": config.model_name, "temperature": config.temperature,
         "messages": [{"role": "user", "content": build_prompt(item[3], template)}], **provider}
        for item in build_work_items(corpus)
    ]
    bodies = [json.loads(body) for _, _, body in server.seen]
    audited = [json.loads(line)["request"] for line in (tmp_path / "audit.jsonl").read_text().splitlines()]
    assert sorted(bodies, key=json.dumps) == sorted(expected, key=json.dumps) == sorted(audited, key=json.dumps)


@pytest.mark.parametrize("url", ["ftp://host/x", "host/x", "http://host:99999/x", "http://[::1/x"])
def test_api_url_that_is_not_http_is_a_gateway_error(tmp_path, url):
    with pytest.raises(GatewayError, match="api_url must be an http:// or https:// URL"):
        run_generation(small_corpus(), make_config(url), tmp_path)


def test_no_proxy_bypasses_the_proxy(tmp_path, monkeypatch, dialled):
    corpus = small_corpus(n_docs=2, n_labels=1)
    with StubServer() as server:
        monkeypatch.setenv("HTTP_PROXY", server.url.rsplit("/v1/", 1)[0])
        monkeypatch.setenv("NO_PROXY", "upstream.invalid")
        records = run_generation(corpus, make_config(UPSTREAM, max_retries=0), tmp_path)
        assert server.request_count == 0
    assert all(r.predicted_months is None for r in records)
    assert set(dialled) == {"upstream.invalid"}


class OneRequestPerConnectionServer:
    """Answers one request per connection with keep-alive headers, then closes it."""

    def __init__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.requests = 0
        self.connections = 0
        self.thread = threading.Thread(target=self._serve, daemon=True)

    @property
    def url(self):
        return f"http://127.0.0.1:{self.sock.getsockname()[1]}/v1/chat/completions"

    def _serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self.connections += 1
            with conn, conn.makefile("rb") as reader:
                length = 0
                while (line := reader.readline()) not in (b"\r\n", b""):
                    name, _, value = line.decode("latin-1").partition(":")
                    if name.lower() == "content-length":
                        length = int(value)
                reader.read(length)
                self.requests += 1
                content = json.dumps({"sentence_months": 36})
                body = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nConnection: keep-alive\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.sock.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()
        self.sock.close()


def test_closed_keep_alive_connection_reconnects_without_backoff(tmp_path):
    corpus = small_corpus(n_docs=2, n_labels=1)  # 4 requests on one worker
    with OneRequestPerConnectionServer() as server:
        config = make_config(server.url, max_concurrency=1, retry_base_delay_s=5.0)
        start = time.monotonic()
        records = run_generation(corpus, config, tmp_path)
        assert time.monotonic() - start < 5.0  # no backoff sleep
    assert all(r.predicted_months == 36 and r.attempt_count == 1 for r in records)
    assert server.requests == server.connections == 4


def test_stale_keep_alive_request_is_made_again_on_a_new_connection(tmp_path, monkeypatch):
    corpus = small_corpus(n_docs=2, n_labels=1)  # 4 requests on one worker
    calls = []
    request = http.client.HTTPConnection.request

    def counting_request(conn, *args, **kwargs):
        calls.append(conn.sock is not None)  # whether the connection was kept alive
        return request(conn, *args, **kwargs)

    monkeypatch.setattr(http.client.HTTPConnection, "request", counting_request)
    with OneRequestPerConnectionServer() as server:
        records = run_generation(corpus, make_config(server.url, max_concurrency=1), tmp_path)
    assert all(r.attempt_count == 1 for r in records)
    # The first request is made once; each later one once on the closed connection and once more.
    assert server.requests == 4 and calls == [False] + [True, False] * 3


def test_torn_cache_tail_is_asked_again(tmp_path):
    corpus = small_corpus(n_docs=2, n_labels=1)
    log = tmp_path / "cache.jsonl"
    with StubServer() as server:
        first = run_generation(corpus, make_config(server.url), tmp_path)
        lines = log.read_bytes().splitlines(keepends=True)
        assert len(lines) == 4
        torn = lines[-1][: len(lines[-1]) // 2]
        log.write_bytes(b"".join(lines[:-1]) + torn)
        second = run_generation(corpus, make_config(server.url), tmp_path)
        assert server.request_count == 5  # only the torn entry is asked again
        third = run_generation(corpus, make_config(server.url), tmp_path)
        assert server.request_count == 5
    assert first == second == third
    lines = log.read_bytes().split(b"\n")
    assert lines[3] == torn and lines[-1] == b""
    assert all(len(json.loads(line)) == 2 for line in lines[:3] + lines[4:-1])


def test_cache_skips_a_deeply_nested_line(tmp_path):
    entry = ["k", {"attempts": 1, "content": "c"}]
    (tmp_path / "cache.jsonl").write_text(DEEP + "\n" + json.dumps(entry) + "\n")
    with closing(_Cache(tmp_path)) as cache:
        assert cache.entries == dict([entry])


def test_cache_keeps_a_last_entry_without_its_newline(tmp_path):
    log = tmp_path / "cache.jsonl"
    entries = [[f"k{i}", {"attempts": 1, "content": f"c{i}"}] for i in range(3)]
    log.write_bytes(b"\n".join(json.dumps(e).encode() for e in entries[:2]))
    with closing(_Cache(tmp_path)) as cache:
        assert cache.entries == dict(entries[:2]) and cache.file.pending_newline
        cache.put(*entries[2])
    assert log.read_bytes().split(b"\n") == [json.dumps(e).encode() for e in entries] + [b""]
    with closing(_Cache(tmp_path)) as cache:
        assert cache.entries == dict(entries) and not cache.file.pending_newline
    with closing(_Cache(tmp_path / "empty")) as cache:
        assert cache.entries == {} and not cache.file.pending_newline


def test_two_caches_appending_from_eight_threads(tmp_path):
    corpus = small_corpus(n_docs=10, n_labels=2)  # 30 prompts
    prompts = [build_prompt(facts, DEFAULT_TEMPLATE) for *_, facts in build_work_items(corpus)]
    content = json.dumps({"sentence_months": 5, "note": "x" * 20000})  # lines longer than a pipe buffer
    caches = [_Cache(tmp_path), _Cache(tmp_path)]

    def fill(i):
        for prompt in prompts[i::8]:
            caches[i % 2].put(_Cache.key("stub-model", 0.0, prompt), {"content": content, "attempts": 1})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fill, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        for cache in caches:
            cache.close()
    lines = (tmp_path / "cache.jsonl").read_bytes().splitlines()
    assert len(lines) == len(prompts)
    assert all(json.loads(line)[1]["content"] == content for line in lines)
    with StubServer() as server:
        records = run_generation(corpus, make_config(server.url), tmp_path)
        assert server.request_count == 0
    assert [r.predicted_months for r in records] == [5] * len(prompts)
    assert (tmp_path / "audit.jsonl").read_bytes() == b""  # opened with the cache, though nothing was asked


def test_audit_log_appended(tmp_path):
    corpus = small_corpus(n_docs=2, n_labels=1)
    with StubServer() as server:
        run_generation(corpus, make_config(server.url), tmp_path)
    lines = (tmp_path / "audit.jsonl").read_text().splitlines()
    assert len(lines) == 4
    entry = json.loads(lines[0])
    assert "request" in entry and "response" in entry


def test_torn_audit_tail_leaves_each_new_entry_a_line_of_its_own(tmp_path):
    corpus = small_corpus(n_docs=2, n_labels=1)
    torn = b'{"request": {"model": "m"}, "respo'
    (tmp_path / "audit.jsonl").write_bytes(torn)
    with StubServer() as server:
        run_generation(corpus, make_config(server.url), tmp_path)
        assert server.request_count == 4
    lines = (tmp_path / "audit.jsonl").read_bytes().split(b"\n")
    assert lines[0] == torn and lines[-1] == b"" and len(lines) == 6
    assert all(set(json.loads(line)) == {"request", "response"} for line in lines[1:-1])


def test_audit_write_error_is_raised_not_retried(tmp_path, monkeypatch):
    """An answer whose audit entry cannot be written is not a transport error to retry."""
    corpus = small_corpus(n_docs=2, n_labels=1)
    real_init = gateway._Client.__init__

    def no_space(line):
        raise OSError(errno.ENOSPC, "No space left on device")

    def init(client, *args):
        real_init(client, *args)
        client.audit_file.write = no_space

    monkeypatch.setattr(gateway._Client, "__init__", init)
    prompts = []

    def responder(prompt):
        prompts.append(prompt)
        return 200, json.dumps({"sentence_months": 7})

    with StubServer(responder) as server:
        with pytest.raises(OSError, match="No space left on device"):
            run_generation(corpus, make_config(server.url, max_concurrency=1), tmp_path)
    assert prompts and len(set(prompts)) == len(prompts)  # no prompt asked twice


def test_unopenable_audit_log_fails_before_any_request(tmp_path, monkeypatch):
    (tmp_path / "audit.jsonl").mkdir()
    caches = []
    real_init = _Cache.__init__

    def init(cache, *args):
        real_init(cache, *args)
        caches.append(cache)

    monkeypatch.setattr(_Cache, "__init__", init)
    with StubServer() as server:
        with pytest.raises(IsADirectoryError):
            run_generation(small_corpus(), make_config(server.url), tmp_path)
        assert server.request_count == 0
    (cache,) = caches
    assert cache.file.closed


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
        read_predictions(path)


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


def test_read_rejects_overlong_integer_with_line_number(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps(BASELINE) + "\n" + json.dumps(BASELINE)[:-1] + ', "x": 1' + "0" * 5000 + "}\n")
    with pytest.raises(PredictionFormatError, match=r"^p\.jsonl:2: invalid JSON"):
        read_predictions(path)


def parse_reference(raw):
    """``parse_prediction`` as it was before the objects nested in a decoded one were read from its value."""
    if not raw:
        return None
    text = gateway._FENCE_RE.sub(" ", raw)
    decoder = json.JSONDecoder()
    pos, rest = text.find("{"), None
    while pos != -1:
        try:
            obj, _ = decoder.raw_decode(text, pos)
        except (ValueError, RecursionError):
            obj, rest = None, rest or iter([p for p, _ in _decodable_braces(text) if p > pos])
        pos = text.find("{", pos + 1) if rest is None else next(rest, -1)
        if not isinstance(obj, dict) or "sentence_months" not in obj:
            continue
        value = obj["sentence_months"]
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            return None
        try:
            value = float(value)
        except (ValueError, OverflowError):
            return None
        if math.isfinite(value) and value >= 0:
            return value
        return None
    return None


def json_object(pairs):
    return "{" + ", ".join(f"{json.dumps(key)}: {value}" for key, value in pairs) + "}"


# JSON texts whose objects may repeat a key, carry sentence_months at any depth, or hold
# strings with a `{` that decodes past the object's end, as in '{"a": "{"}": 1, "sentence_months": 3}'.
NESTED_VALUES = st.recursive(
    (st.none() | st.booleans() | st.integers(-1, 40) | st.text(alphabet='{}[]":, a\\', max_size=4))
    .map(json.dumps),
    lambda values: st.lists(values, max_size=3).map(lambda items: "[" + ", ".join(items) + "]")
    | st.lists(st.tuples(st.sampled_from(["sentence_months", "a", "{", "}"]), values), max_size=3).map(json_object),
    max_leaves=10,
)
NESTED_PIECES = NESTED_VALUES | ANSWER_PIECES | st.sampled_from(['{"a": "{"}', '": 1, ', '"sentence_months": 5}', ", ", ": "])


@settings(max_examples=1000, deadline=None)
@given(st.lists(NESTED_PIECES, max_size=6).map("".join))
@example('{"a": "{"}": 1, "sentence_months": 3}')
def test_parse_equals_the_decode_of_every_brace(text):
    assert parse_prediction(text) == parse_reference(text)


def quote_parity(text):
    """Whether an odd number of quotes, escape pairs aside, are in ``text``; a backslash before a `{` escapes nothing."""
    odd, i = False, 0
    while i < len(text):
        if text[i] == "\\" and text[i + 1 : i + 2] not in ("", "{"):
            i += 2
            continue
        odd ^= text[i] == '"'
        i += 1
    return odd


@settings(max_examples=1000, deadline=None)
@given(st.lists(NESTED_PIECES, max_size=6).map("".join))
@example(NESTED_FROM_PAIRS)
@example(QUOTED_BRACE_INSIDE)
@example(AFTER_A_FAILED_DECODE)
def test_each_listed_brace_has_the_parity_of_the_quotes_before_it(text):
    listed = _decodable_braces(text)
    assert [odd for _, odd in listed] == [quote_parity(text[:pos]) for pos, _ in listed]
