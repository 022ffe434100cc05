from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from specforge import gateway
from specforge.gateway import (
    BackendError,
    CompletionRequest,
    CompletionResponse,
    EmptyResponse,
    GatewayError,
    LiveBackend,
    ReplayBackend,
    fixture_paths,
    request_digest,
)
from specforge.model import GenerationConfig, PromptVariant
from specforge.prompts import BuiltPrompt


DEFAULT_RETRY_SCHEDULE = (gateway.TIMEOUT_S, gateway.BACKOFF_S)


@pytest.fixture(autouse=True)
def _no_backoff(monkeypatch):
    """The default three retries, each sent at once."""
    monkeypatch.setattr(gateway, "BACKOFF_S", (0.0, 0.0, 0.0))


def _retries(monkeypatch, backoff_s: tuple[float, ...], timeout_s: float = gateway.TIMEOUT_S):
    monkeypatch.setattr(gateway, "BACKOFF_S", backoff_s)
    monkeypatch.setattr(gateway, "TIMEOUT_S", timeout_s)


def _request(sample_index: int = 0, text: str = "annotate this") -> CompletionRequest:
    prompt = BuiltPrompt(
        variant=PromptVariant.BASELINE,
        text=text,
        program_name="binary_search",
    )
    return CompletionRequest(
        prompt=prompt, config=GenerationConfig(), sample_index=sample_index
    )


class _Script(BaseHTTPRequestHandler):
    """Serves a scripted sequence of (status, body) responses.

    A body may be ``str`` (sent as UTF-8) or raw ``bytes``. A status of
    ``None`` sends the body alone, with no status line, and closes the
    connection. An entry may carry a third item, a dict of extra headers.
    """

    script: list[tuple] = []
    requests_seen: list[dict] = []

    def do_POST(self):  # noqa: N802 (http.server API)
        length = int(self.headers["Content-Length"])
        _Script.requests_seen.append(json.loads(self.rfile.read(length)))
        status, body, *extra = (
            _Script.script.pop(0) if _Script.script else (200, _ok_body("fallback"))
        )
        payload = body if isinstance(body, bytes) else body.encode("utf-8")
        if status is None:
            self.wfile.write(payload)
            self.close_connection = True
            return
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):  # silence test output
        pass


def _ok_body(text: str) -> str:
    return json.dumps({"choices": [{"message": {"content": text}}]})


@pytest.fixture()
def script_server():
    server = HTTPServer(("127.0.0.1", 0), _Script)
    # A short poll, so shutdown() does not wait out the default 0.5 s.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    _Script.script = []
    _Script.requests_seen = []
    yield server, f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


@pytest.fixture()
def credentials(monkeypatch):
    monkeypatch.setenv("SPECFORGE_API_KEY", "test-key")


def test_request_digest_stable_and_distinct():
    assert request_digest("p", 0.7, 0) == request_digest("p", 0.7, 0)
    assert request_digest("p", 0.7, 0) != request_digest("p", 0.7, 1)
    assert request_digest("p", 0.7, 0) != request_digest("p", 0.2, 0)
    assert request_digest("p", 0.7, 0) != request_digest("q", 0.7, 0)


def test_sample_index_must_be_in_range():
    with pytest.raises(ValueError):
        _request(sample_index=3)


def test_replay_serves_fixture(tmp_path):
    text_path, _ = fixture_paths(tmp_path, "binary_search/baseline/0")
    text_path.parent.mkdir(parents=True)
    text_path.write_text("the recorded response", encoding="utf-8")
    backend = ReplayBackend(tmp_path)
    response = backend.complete(_request())
    assert response.text == "the recorded response"
    assert response.backend_kind == "replay"
    assert response.backend_detail == "binary_search/baseline/0"
    # pure function of the key
    assert backend.complete(_request()).text == response.text


def test_replay_missing_fixture(tmp_path):
    with pytest.raises(GatewayError, match=r"^no fixture for binary_search/baseline/0 \(looked"):
        ReplayBackend(tmp_path).complete(_request())


def test_replay_empty_fixture_is_error(tmp_path):
    text_path, _ = fixture_paths(tmp_path, "binary_search/baseline/0")
    text_path.parent.mkdir(parents=True)
    text_path.write_text("", encoding="utf-8")
    with pytest.raises(EmptyResponse):
        ReplayBackend(tmp_path).complete(_request())


def test_replay_undecodable_fixture_is_a_gateway_error(tmp_path):
    text_path, _ = fixture_paths(tmp_path, "binary_search/baseline/0")
    text_path.parent.mkdir(parents=True)
    text_path.write_bytes(b"```c\nint f(void) { return 0; } /* \xff */\n```\n")
    with pytest.raises(GatewayError) as exc:
        ReplayBackend(tmp_path).complete(_request())
    assert "cannot read fixture" in str(exc.value)


def _fixture_with_sidecar(tmp_path, sidecar: bytes) -> ReplayBackend:
    text_path, meta_path = fixture_paths(tmp_path, "binary_search/baseline/0")
    text_path.parent.mkdir(parents=True)
    text_path.write_text("the recorded response", encoding="utf-8")
    meta_path.write_bytes(sidecar)
    return ReplayBackend(tmp_path)


def test_replay_serves_a_fixture_whose_sidecar_names_the_request(tmp_path):
    request = _request()
    backend = _fixture_with_sidecar(
        tmp_path, json.dumps({"request_digest": request.digest, "sample_index": 0}).encode()
    )
    assert backend.complete(request).text == "the recorded response"


@pytest.mark.parametrize(
    "recorded",
    [request_digest("annotate that", 0.7, 0), request_digest("annotate this", 0.2, 0)],
    ids=["other-prompt", "other-temperature"],
)
def test_replay_refuses_a_fixture_recorded_for_another_request(tmp_path, recorded):
    backend = _fixture_with_sidecar(tmp_path, json.dumps({"request_digest": recorded}).encode())
    request = _request()
    with pytest.raises(GatewayError) as exc:
        backend.complete(request)
    assert str(exc.value) == (
        f"stale fixture for binary_search/baseline/0: sidecar {recorded}, "
        f"request {request.digest}"
    )


@pytest.mark.parametrize(
    "sidecar",
    [b"", b"{not json", b"[]", b'"digest"', b"{}", b'{"request_digest": "\xff"}', b"[" * 10**5],
)
def test_replay_malformed_sidecar_is_a_gateway_error(tmp_path, sidecar):
    backend = _fixture_with_sidecar(tmp_path, sidecar)
    with pytest.raises(GatewayError) as exc:
        backend.complete(_request())
    assert str(exc.value).startswith("cannot read fixture binary_search/baseline/0: ")


def test_live_success(script_server, credentials):
    _, base_url = script_server
    _Script.script = [(200, _ok_body("generated annotations"))]
    backend = LiveBackend(base_url=base_url)
    response = backend.complete(_request())
    assert response.text == "generated annotations"
    assert response.backend_kind == "live"
    assert response.backend_detail == "gpt-4-0125-preview"
    sent = _Script.requests_seen[0]
    assert sent["temperature"] == 0.7
    assert sent["messages"][0]["content"] == "annotate this"


def test_live_retries_5xx_then_succeeds(script_server, credentials):
    _, base_url = script_server
    _Script.script = [(500, "boom"), (503, "busy"), (200, _ok_body("ok now"))]
    backend = LiveBackend(base_url=base_url)
    assert backend.complete(_request()).text == "ok now"
    assert len(_Script.requests_seen) == 3


def test_live_gives_up_after_bounded_retries(script_server, credentials):
    _, base_url = script_server
    _Script.script = [(500, "a"), (500, "b"), (500, "c"), (500, "d"), (500, "e")]
    backend = LiveBackend(base_url=base_url)
    with pytest.raises(BackendError) as exc:
        backend.complete(_request())
    assert str(exc.value).startswith("backend error (status=500): ")
    assert len(_Script.requests_seen) == 4  # initial attempt + three retries


def test_live_retry_schedule_defaults():
    # 120 s per POST, then waits of 1, 2 and 4 s before the three retries
    assert DEFAULT_RETRY_SCHEDULE == (120.0, (1.0, 2.0, 4.0))


def test_live_reads_the_retry_schedule_when_it_sends(script_server, credentials, monkeypatch):
    _, base_url = script_server
    backend = LiveBackend(base_url=base_url)  # built while three retries are set
    _retries(monkeypatch, (0.0,))
    _Script.script = [(500, "a"), (500, "b"), (500, "c")]
    with pytest.raises(BackendError, match="retries exhausted"):
        backend.complete(_request())
    assert len(_Script.requests_seen) == 2  # initial attempt + one retry


def test_live_4xx_fails_immediately(script_server, credentials):
    _, base_url = script_server
    _Script.script = [(401, "unauthorized")]
    backend = LiveBackend(base_url=base_url)
    with pytest.raises(BackendError) as exc:
        backend.complete(_request())
    assert str(exc.value).startswith("backend error (status=401): ")
    assert len(_Script.requests_seen) == 1


@pytest.mark.parametrize(
    "retry_after, backoff_s, wait_s",
    [
        (None, 0.5, 0.5),
        ("0", 0.5, 0.5),  # the longer of the two
        ("2", 0.5, 2.0),
        ("30", 0.0, 3.0),  # capped by RETRY_AFTER_MAX_S
        ("1.5", 0.0, 0.0),  # not whole seconds
        ("Wed, 21 Oct 2026 07:28:00 GMT", 0.0, 0.0),  # an HTTP date is not read
    ],
)
def test_live_retries_a_429_after_its_retry_after(
    script_server, credentials, monkeypatch, retry_after, backoff_s, wait_s
):
    _, base_url = script_server
    _retries(monkeypatch, (backoff_s,))
    monkeypatch.setattr(gateway, "RETRY_AFTER_MAX_S", 3.0)
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    _Script.script = [(429, "slow down", headers), (200, _ok_body("ok now"))]
    steps = LiveBackend(base_url=base_url).attempts(_request())
    assert next(steps) == wait_s
    with pytest.raises(StopIteration) as done:
        next(steps)
    assert done.value.value.text == "ok now"
    assert len(_Script.requests_seen) == 2


def test_live_gives_up_on_429_after_bounded_retries(script_server, credentials):
    _, base_url = script_server
    _Script.script = [(429, "slow down", {"Retry-After": "0"})] * 4
    with pytest.raises(BackendError, match=r"^backend error \(status=429\): retries exhausted"):
        LiveBackend(base_url=base_url).complete(_request())
    assert len(_Script.requests_seen) == 4


def test_live_transport_error_retries_and_fails(credentials, monkeypatch):
    _retries(monkeypatch, (0.0,), timeout_s=0.2)
    backend = LiveBackend(base_url="http://127.0.0.1:9")
    with pytest.raises(BackendError) as exc:
        backend.complete(_request())
    assert "transport" in str(exc.value)


def test_live_non_json_200_fails_without_retry(script_server, credentials):
    _, base_url = script_server
    _Script.script = [(200, "<html>not json</html>")]
    backend = LiveBackend(base_url=base_url)
    with pytest.raises(BackendError) as exc:
        backend.complete(_request())
    assert str(exc.value).startswith("backend error (status=200): ")
    assert "malformed completion payload" in str(exc.value)
    assert len(_Script.requests_seen) == 1


@pytest.mark.parametrize("content", [["x"], {"text": "x"}, 7, None])
def test_live_non_string_content_is_malformed(script_server, credentials, content):
    _, base_url = script_server
    _Script.script = [(200, json.dumps({"choices": [{"message": {"content": content}}]}))]
    backend = LiveBackend(base_url=base_url)
    with pytest.raises(BackendError) as exc:
        backend.complete(_request())
    assert str(exc.value).startswith("backend error (status=200): ")
    assert "malformed completion payload" in str(exc.value)
    assert len(_Script.requests_seen) == 1


def test_live_content_with_a_lone_surrogate_is_malformed(script_server, credentials):
    _, base_url = script_server
    body = _ok_body("/*@ assigns \\nothing; */ \ud83d")  # an emoji cut after its first half
    assert "\\ud83d" in body
    _Script.script = [(200, body)]
    backend = LiveBackend(base_url=base_url)
    with pytest.raises(BackendError) as exc:
        backend.complete(_request())
    assert str(exc.value).startswith(
        "backend error (status=200): malformed completion payload: 'utf-8' codec can't encode"
    )
    assert len(_Script.requests_seen) == 1


def test_live_dropped_connection_is_retried_as_transport_failure(
    script_server, credentials, monkeypatch
):
    _, base_url = script_server
    _Script.script = [(None, ""), (None, b"garbage\r\n\r\n"), (None, "")]
    _retries(monkeypatch, (0.0, 0.0))
    backend = LiveBackend(base_url=base_url)
    with pytest.raises(BackendError) as exc:
        backend.complete(_request())
    assert str(exc.value).startswith("backend error (status=None): ")
    assert "retries exhausted: transport failure" in str(exc.value)
    assert len(_Script.requests_seen) == 3

    _Script.requests_seen = []
    _Script.script = [(None, ""), (200, _ok_body("second try"))]
    assert backend.complete(_request()).text == "second try"
    assert len(_Script.requests_seen) == 2


def test_live_non_utf8_error_body_is_bounded(script_server, credentials, monkeypatch):
    _, base_url = script_server
    _Script.script = [(503, b"\xff\xfe" * 1024)] * 2
    _retries(monkeypatch, (0.0,))
    backend = LiveBackend(base_url=base_url)
    with pytest.raises(BackendError) as exc:
        backend.complete(_request())
    assert str(exc.value).startswith("backend error (status=503): ")
    body = str(exc.value).split("retries exhausted: ", 1)[1]
    assert 0 < len(body) <= 500
    assert set(body) == {"\ufffd"}


class _Sink(BaseHTTPRequestHandler):
    """Records the headers of every request it gets and answers 200."""

    headers_seen: list[dict[str, str]] = []

    def _record(self):
        _Sink.headers_seen.append(dict(self.headers))
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        payload = _ok_body("redirected").encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    do_GET = do_POST = _record  # noqa: N815 (http.server API)

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("status", [301, 302, 307, 308])
def test_live_redirect_is_refused_and_sends_no_credential(
    script_server, credentials, status
):
    _, base_url = script_server
    sink = HTTPServer(("127.0.0.1", 0), _Sink)
    thread = threading.Thread(
        target=sink.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    _Sink.headers_seen = []
    try:
        target = f"http://127.0.0.1:{sink.server_port}/chat/completions"
        _Script.script = [(status, "moved", {"Location": target})]
        backend = LiveBackend(base_url=base_url)
        with pytest.raises(BackendError) as exc:
            backend.complete(_request())
    finally:
        sink.shutdown()
        sink.server_close()
    assert str(exc.value).startswith(f"backend error (status={status}): ")
    assert "not followed" in str(exc.value) and target in str(exc.value)
    assert len(_Script.requests_seen) == 1
    assert _Sink.headers_seen == []  # neither the request nor its Authorization


_PROXY_VARIABLES = ("http_proxy", "https_proxy", "all_proxy", "no_proxy")


def test_live_honours_proxy_environment(script_server, credentials, monkeypatch):
    _, base_url = script_server
    for name in _PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")  # nothing listens there
    _retries(monkeypatch, (0.0,), timeout_s=2.0)
    with pytest.raises(BackendError, match="transport failure"):
        LiveBackend(base_url=base_url).complete(_request())
    assert _Script.requests_seen == []

    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    _Script.script = [(200, _ok_body("direct"))]
    backend = LiveBackend(base_url=base_url)
    assert backend.complete(_request()).text == "direct"
    assert len(_Script.requests_seen) == 1


@pytest.mark.parametrize(
    "base_url",
    [
        "file:///tmp",
        "ftp://h",
        "localhost:8080",
        "http://",
        "http://:80",
        "http://h:abc",
        "http://h:99999",
        "http://h:0",
        "http://[::1",
        "http://h/a b",
        "http://h/\u00fc",
    ],
)
def test_live_refuses_unusable_base_url(base_url):
    with pytest.raises(ValueError, match="base URL"):
        LiveBackend(base_url=base_url)


@pytest.mark.parametrize(
    "base_url", ["http://127.0.0.1:9", "https://api.example.com/v1/", "HTTP://[::1]:8080"]
)
def test_live_accepts_http_base_url(base_url):
    assert LiveBackend(base_url=base_url).base_url == base_url.rstrip("/")


def test_live_missing_credential(monkeypatch):
    monkeypatch.delenv("SPECFORGE_API_KEY", raising=False)
    backend = LiveBackend(base_url="http://127.0.0.1:9")
    with pytest.raises(
        GatewayError,
        match=r"^no API credential: environment variable SPECFORGE_API_KEY is unset$",
    ):
        backend.complete(_request())


def test_live_custom_credential_env(script_server, monkeypatch):
    _, base_url = script_server
    monkeypatch.delenv("SPECFORGE_API_KEY", raising=False)
    monkeypatch.setenv("MY_GATEWAY_KEY", "k")
    _Script.script = [(200, _ok_body("hello"))]
    backend = LiveBackend(base_url=base_url, api_key_env="MY_GATEWAY_KEY")
    assert backend.complete(_request()).text == "hello"


def test_concurrent_replay_requests_are_independent(tmp_path):
    for index in range(3):
        text_path, _ = fixture_paths(tmp_path, f"binary_search/baseline/{index}")
        text_path.parent.mkdir(parents=True, exist_ok=True)
        text_path.write_text(f"response {index}", encoding="utf-8")
    backend = ReplayBackend(tmp_path)
    results = {}

    def worker(index: int):
        results[index] = backend.complete(_request(index)).text

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == {0: "response 0", 1: "response 1", 2: "response 2"}
