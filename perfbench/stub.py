"""Chat-completions stub for the generate workloads, run as its own process.

    python3 perfbench/stub.py --seed 1

It prints ``PORT <n>`` on its first stdout line, then serves HTTP/1.1
keep-alive on 127.0.0.1 until terminated. Each response (headers and body)
goes out in one ``sendall`` on a ``TCP_NODELAY`` socket, so Nagle's
algorithm and delayed ACKs never add a round trip. Every answer is held for
a fixed ``DELAY_MS``, and a fixed ``PROSE_SHARE`` of first answers is prose.

Answers are a pure function of (seed, case facts): the prompt template the
benchmark passes to ``generate`` puts the facts on the first line and ends
with ``INSTRUCTION``. A prompt that ends with anything else is a strict
re-ask, which is always answered with JSON. ``GET /stats`` returns the
request count and per-request service times; ``?reset=1`` clears them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import socket
import sys
import threading
import time

INSTRUCTION = (
    "You are an experienced criminal court judge. Decide the sentence for the case above. "
    'Answer with a single JSON object of the form {"sentence_months": <integer>} and nothing else.'
)
TEMPLATE = "{facts}\n\n" + INSTRUCTION
DELAY_MS = 5.0
PROSE_SHARE = 0.05

_SHARE_SCALE = 10_000


def _digest(seed: int, facts: str) -> int:
    return int.from_bytes(hashlib.sha256(f"{seed}|{facts}".encode("utf-8")).digest()[:16], "big")


def answer_months(seed: int, facts: str) -> int:
    """The sentence the stub gives for these facts: 1..240 months."""
    return 1 + _digest(seed, facts) % 240


def is_prose(seed: int, facts: str) -> bool:
    """Whether the first answer for these facts is prose instead of JSON."""
    return (_digest(seed, facts) >> 32) % _SHARE_SCALE < round(PROSE_SHARE * _SHARE_SCALE)


def is_wrong(seed: int, facts: str, wrong_share: float) -> bool:
    """Whether the stub answers one month off (self-test of the output check)."""
    return (_digest(seed, facts) >> 64) % _SHARE_SCALE < round(wrong_share * _SHARE_SCALE)


class Stub:
    def __init__(self, seed: int, wrong_share: float) -> None:
        self.seed = seed
        self.wrong_share = wrong_share
        self.lock = threading.Lock()
        self.requests = 0
        self.service_ms: list[float] = []

    def content_for(self, prompt: str) -> str:
        facts, _, rest = prompt.partition("\n\n")
        reask = rest != INSTRUCTION
        months = answer_months(self.seed, facts)
        if is_wrong(self.seed, facts, self.wrong_share):
            months += 1
        if not reask and is_prose(self.seed, facts):
            return f"Weighing the facts, a custodial term of about {months} months is fitting."
        return json.dumps({"sentence_months": months})

    def stats(self, reset: bool) -> dict:
        with self.lock:
            out = {"requests": self.requests, "service_ms": list(self.service_ms)}
            if reset:
                self.requests = 0
                self.service_ms.clear()
        return out

    def serve_connection(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = conn.makefile("rb")
        try:
            while True:
                request_line = reader.readline()
                if not request_line:
                    return
                method, target, _ = request_line.decode("latin-1").split(" ", 2)
                length = 0
                while True:
                    line = reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value.strip())
                body = reader.read(length) if length else b""
                if method == "GET" and target.startswith("/stats"):
                    payload = json.dumps(self.stats(reset="reset=1" in target)).encode("utf-8")
                    conn.sendall(_response(payload))
                    continue
                start = time.perf_counter()
                prompt = json.loads(body)["messages"][0]["content"]
                content = self.content_for(prompt)
                payload = json.dumps(
                    {"id": "stub", "object": "chat.completion",
                     "choices": [{"index": 0, "message": {"role": "assistant", "content": content}}]}
                ).encode("utf-8")
                time.sleep(DELAY_MS / 1000.0)
                conn.sendall(_response(payload))
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                with self.lock:
                    self.requests += 1
                    self.service_ms.append(elapsed_ms)
        except (ConnectionError, OSError, ValueError):
            return
        finally:
            reader.close()
            conn.close()


def _response(payload: bytes) -> bytes:
    head = (
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: keep-alive\r\n\r\n"
    ).encode("latin-1")
    return head + payload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--wrong-share", type=float, default=0.0)
    args = parser.parse_args()
    stub = Stub(args.seed, args.wrong_share)

    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind(("127.0.0.1", 0))
    server.listen(64)
    print(f"PORT {server.getsockname()[1]}", flush=True)
    while True:
        conn, _ = server.accept()
        threading.Thread(target=stub.serve_connection, args=(conn,), daemon=True).start()


if __name__ == "__main__":
    try:
        main()
    except KeyboardInterrupt:
        sys.exit(0)
