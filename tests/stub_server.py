"""Local chat-completions stub server for gateway tests.

``python tests/stub_server.py PORT_FILE`` serves until killed, answering
each prompt with ``crc_months``, and writes the free local port it
listens on to ``PORT_FILE`` once it accepts connections.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StubServer:
    """OpenAI-shape endpoint with per-test behavior hooks and traffic counters.

    `responder(prompt) -> (status, content[, headers])` decides each
    reply: a str content of a 200 is wrapped in the chat-completions shape,
    bytes are sent as the body unchanged. It speaks HTTP/1.1, so a client
    keeps its connection alive; counters track accepted connections, total
    requests and the concurrent in-flight high-water mark, and `seen` keeps
    each request's (target, headers, body).
    """

    def __init__(self, responder=None, delay_s: float = 0.0):
        self.responder = responder or (lambda prompt: (200, json.dumps({"sentence_months": 36})))
        self.delay_s = delay_s
        self.connection_count = 0
        self.request_count = 0
        self.last_headers = {}
        self.seen = []
        self.in_flight = 0
        self.high_water = 0
        self.lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def setup(self):
                super().setup()
                with outer.lock:
                    outer.connection_count += 1

            def do_POST(self):
                with outer.lock:
                    outer.request_count += 1
                    outer.last_headers = dict(self.headers)
                    outer.in_flight += 1
                    outer.high_water = max(outer.high_water, outer.in_flight)
                try:
                    length = int(self.headers.get("Content-Length", 0))
                    raw = self.rfile.read(length)
                    with outer.lock:
                        outer.seen.append((self.path, dict(self.headers), raw))
                    body = json.loads(raw)
                    prompt = body["messages"][0]["content"]
                    if outer.delay_s:
                        time.sleep(outer.delay_s)
                    status, content, *extra = outer.responder(prompt)
                    if isinstance(content, bytes):
                        data = content
                    elif status == 200:
                        payload = {"choices": [{"message": {"content": content}}]}
                        data = json.dumps(payload).encode()
                    else:
                        data = content.encode()
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(data)))
                    for name, value in (extra[0] if extra else {}).items():
                        self.send_header(name, value)
                    self.end_headers()
                    self.wfile.write(data)
                finally:
                    with outer.lock:
                        outer.in_flight -= 1

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()


DOC_ID_RE = re.compile(r"\b(D\d{5})\b")


def doc_id_of(prompt: str) -> str:
    m = DOC_ID_RE.search(prompt)
    return m.group(1) if m else ""


def crc_months(prompt: str) -> tuple[int, str]:
    """An answer of 24 to 48 months set by the prompt's CRC-32, so every run gets the same answers."""
    return 200, json.dumps({"sentence_months": 24 + zlib.crc32(prompt.encode()) % 25})


if __name__ == "__main__":
    stub = StubServer(crc_months)
    with open(sys.argv[1] + ".tmp", "w") as f:
        f.write(str(stub.server.server_port))
    os.replace(sys.argv[1] + ".tmp", sys.argv[1])  # a reader never sees a partly written port
    stub.server.serve_forever()
