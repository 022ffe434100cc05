"""In-process chat-completion endpoint for the live-latency workload.

It maps each prompt to its recorded sample-0 reply and answers after a fixed
delay. The first request for each prompt in ``fail_first`` gets a 503, so the
live backend retries it after its default backoff.

Each response leaves in one write from a socket with Nagle's algorithm off.
A header write followed by a body write would otherwise stall on the
client's delayed ACK (~40 ms a call) and swamp the gateway being measured.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DELAY_S = 0.05


def prompt_key(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Stub:
    """A loopback server; ``replies`` maps ``prompt_key(prompt)`` to reply text."""

    def __init__(self, replies: dict[str, str], fail_first: set[str]):
        self.replies = replies
        self.fail_first = fail_first
        self._lock = threading.Lock()
        self._seen: set[str] = set()
        self.retries = 0  # 503s served since the last reset
        self.own_s: list[float] = []  # per request: handler time beyond DELAY_S
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _handler(self))
        self._server.daemon_threads = False
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_address[1]}/v1"

    def __enter__(self) -> "Stub":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._server.shutdown()
        self._server.server_close()  # joins the connection threads
        self._thread.join()

    def reset(self) -> None:
        """Start a new study: every prompt in ``fail_first`` fails once again."""
        with self._lock:
            self._seen.clear()
            self.retries = 0
            self.own_s.clear()

    def answer(self, body: bytes) -> tuple[int, bytes]:
        try:
            prompt = json.loads(body)["messages"][0]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            return 400, b'{"error": "malformed request"}'
        key = prompt_key(prompt)
        with self._lock:
            first = key not in self._seen
            self._seen.add(key)
            if first and key in self.fail_first:
                self.retries += 1
                return 503, b'{"error": "overloaded"}'
        reply = self.replies.get(key)
        if reply is None:
            return 404, b'{"error": "unknown prompt"}'
        payload = {"choices": [{"message": {"role": "assistant", "content": reply}}]}
        return 200, json.dumps(payload).encode("utf-8")


def _handler(stub: Stub) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True
        timeout = 10  # idle keep-alive connections close, so server_close can join

        def do_POST(self) -> None:
            started = time.perf_counter()
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            status, payload = stub.answer(body)
            time.sleep(DELAY_S)
            head = (
                f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + payload)
            own = time.perf_counter() - started - DELAY_S
            with stub._lock:
                stub.own_s.append(own)

        def log_message(self, format: str, *args: object) -> None:
            pass

    return Handler
