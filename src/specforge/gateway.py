"""Chat-completion backends behind one interface: live HTTP and fixture replay.

The live backend speaks the generic chat-completion JSON wire protocol
(message list in, choice list out) against any compatible ``base_url``, so no
provider is hard-coded. The replay backend serves recorded fixtures keyed by
program x variant x sample index, which makes every downstream pipeline step
reproducible and testable offline. It refuses a fixture whose sidecar names
another request.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Generator, Protocol
from urllib.parse import urlsplit

from .model import GenerationConfig, Record
from .prompts import BuiltPrompt

DEFAULT_API_KEY_ENV = "SPECFORGE_API_KEY"


class GatewayError(RuntimeError):
    """Base class for completion failures."""


class BackendError(GatewayError):
    def __init__(self, status: int | None, message: str):
        super().__init__(f"backend error (status={status}): {message}")


class EmptyResponse(GatewayError):
    def __init__(self, key: str):
        super().__init__(f"backend returned an empty completion for {key}")


@dataclass(frozen=True, eq=False)
class CompletionRequest:
    prompt: BuiltPrompt
    config: GenerationConfig
    sample_index: int

    def __post_init__(self) -> None:
        if not 0 <= self.sample_index < self.config.samples_per_program:
            raise ValueError(
                f"sample_index {self.sample_index} outside "
                f"[0, {self.config.samples_per_program})"
            )

    @property
    def key(self) -> str:
        return f"{self.prompt.program_name}/{self.prompt.variant.value}/{self.sample_index}"

    @property
    def digest(self) -> str:
        return request_digest(
            self.prompt.text, self.config.temperature, self.sample_index
        )


def request_digest(prompt_text: str, temperature: float, sample_index: int) -> str:
    """Stable byte-level hash of (prompt text, temperature, sample index)."""
    payload = f"{prompt_text}\x00{temperature!r}\x00{sample_index}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True, eq=False, repr=False)
class CompletionResponse(Record):
    text: str
    backend_kind: str  # "live" | "replay"
    backend_detail: str  # model id for live, fixture key for replay
    # Live: first attempt sent to reply read, so retries, their backoffs and
    # any wait for a free slot after a backoff count. Replay: always 0.
    latency_ms: int
    request_digest: str

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("completion text must be non-empty")
        if self.latency_ms < 0:
            raise ValueError("latency must be >= 0")


class CompletionBackend(Protocol):
    """What ``runner.run`` drives, with the contract of ``LiveBackend.attempts``.

    ``run`` calls ``attempts`` under a lock, so it must be a generator: no
    work before the first ``next``.
    """

    def attempts(
        self, request: CompletionRequest
    ) -> Generator[float, None, CompletionResponse]: ...


def fixture_paths(directory: Path | str, key: str) -> tuple[Path, Path]:
    """(response text path, sidecar metadata path) for a fixture key."""
    base = Path(directory) / key
    return base.with_suffix(".txt"), base.with_suffix(".json")


class ReplayBackend:
    """Deterministic completions from recorded fixture files.

    Fixture layout: ``<dir>/<program>/<variant>/<sample>.txt`` with an
    optional ``.json`` sidecar whose ``request_digest`` must be the request's.
    """

    def __init__(self, directory: Path | str):
        self.directory = Path(directory)

    def attempts(
        self, request: CompletionRequest
    ) -> Generator[float, None, CompletionResponse]:
        """One step and no backoff; ``complete`` is looked up as the step runs."""
        yield from ()
        return self.complete(request)

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        text_path, meta_path = fixture_paths(self.directory, request.key)
        if not text_path.is_file():
            raise GatewayError(f"no fixture for {request.key} (looked at {text_path})")
        try:
            text = text_path.read_text(encoding="utf-8")
            if meta_path.is_file():
                recorded = json.loads(meta_path.read_text(encoding="utf-8"))["request_digest"]
                if recorded != request.digest:
                    raise GatewayError(
                        f"stale fixture for {request.key}: "
                        f"sidecar {recorded}, request {request.digest}"
                    )
        except (OSError, ValueError, LookupError, TypeError, RecursionError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
            raise GatewayError(f"cannot read fixture {request.key}: {reason}") from exc
        if not text:
            raise EmptyResponse(request.key)
        return CompletionResponse(
            text=text,
            backend_kind="replay",
            backend_detail=request.key,
            latency_ms=0,
            request_digest=request.digest,
        )


class LiveBackend:
    """HTTP chat-completion client on the standard library, with bounded retries.

    Each attempt is one ``urllib.request`` POST on a connection of its own, so
    nothing is shared between the threads of ``runner.run`` and the client
    needs no lock; an attempt may be resumed on another thread than its
    first. ``HTTP_PROXY``, ``HTTPS_PROXY`` and ``NO_PROXY`` are
    honoured as by ``urllib.request.urlopen``, with the proxies read when the
    backend is built. HTTPS certificates are checked against OpenSSL's default
    CA paths, which ``SSL_CERT_FILE`` and ``SSL_CERT_DIR`` override. The HTTP
    modules are imported here, not by the package, so replay runs never load
    them.

    Transport failures and 5xx responses are retried with exponential backoff
    (one wait per retry, ``backoff_s`` long); 4xx responses fail immediately,
    and so do 3xx responses: redirects are never followed. The retry loop is
    :meth:`attempts`, which yields each backoff instead of waiting it out.
    :meth:`complete` sleeps through the backoffs on the calling thread;
    ``runner.run`` parks the request instead, so a backoff holds no thread
    and no in-flight slot. The client does not limit concurrent use;
    ``runner.run`` bounds it.
    """

    def __init__(
        self,
        base_url: str,
        api_key_env: str = DEFAULT_API_KEY_ENV,
        timeout_s: float = 120.0,
        backoff_s: tuple[float, ...] = (1.0, 2.0, 4.0),
    ):
        # Checked here, because urllib would retry a bad port as a transport
        # failure, and raise on a bad scheme or a non-ASCII path in a worker thread.
        try:
            parts = urlsplit(base_url)
            usable = (
                parts.scheme in ("http", "https")
                and bool(parts.hostname)
                and parts.port != 0
                and all("!" <= c <= "~" for c in base_url)
            )
        except ValueError:  # a malformed IPv6 host, or a port not a number in range
            usable = False
        if not usable:
            raise ValueError(
                "base URL must be http(s)://host[:port][/path] in printable ASCII "
                f"without spaces, got {base_url!r}"
            )
        import http.client
        import urllib.request

        self.base_url = base_url.rstrip("/")
        self.api_key_env = api_key_env
        self.timeout_s = timeout_s
        self.backoff_s = backoff_s
        # Proxy and HTTP(S) handlers only: with no redirect or error handler,
        # every reply comes back as it is, so a 3xx never carries the API key
        # to the host its Location names. The proxies are read here, once;
        # urlopen's process-wide opener would keep those of its first call.
        self._opener = urllib.request.OpenerDirector()
        for handler in (
            urllib.request.ProxyHandler(),
            urllib.request.HTTPHandler(),
            urllib.request.HTTPSHandler(),
        ):
            self._opener.add_handler(handler)
        self._request_class = urllib.request.Request
        self._transport_errors = (OSError, http.client.HTTPException)

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        """Run :meth:`attempts` to the end, sleeping out each backoff here."""
        steps = self.attempts(request)
        try:
            while True:
                time.sleep(next(steps))
        except StopIteration as done:
            return done.value

    def attempts(
        self, request: CompletionRequest
    ) -> Generator[float, None, CompletionResponse]:
        """The retry loop, one attempt per step, with the waiting left to the caller.

        Each ``next`` sends one attempt. A retryable failure yields the
        backoff in seconds to wait before the next attempt; success returns
        the response (as ``StopIteration.value``), and a final failure raises
        the ``GatewayError`` that :meth:`complete` raises.
        """
        api_key = os.environ.get(self.api_key_env, "")
        if not api_key:
            raise GatewayError(
                f"no API credential: environment variable {self.api_key_env} is unset"
            )
        payload = {
            "model": request.config.model_id,
            "messages": [{"role": "user", "content": request.prompt.text}],
            "temperature": request.config.temperature,
            "max_tokens": request.config.max_output_tokens,
        }
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        headers = {
            "Authorization": f"Bearer {api_key}",
            "Content-Type": "application/json",
        }
        url = f"{self.base_url}/chat/completions"

        started = time.perf_counter()
        last_error: tuple[int | None, str] = (None, "no attempt made")
        for attempt in range(len(self.backoff_s) + 1):
            if attempt > 0:
                yield self.backoff_s[attempt - 1]
            try:
                status, location, raw = self._post(url, body, headers)
            except self._transport_errors as exc:
                last_error = (None, f"transport failure: {exc}")
                continue
            if 300 <= status < 400:
                raise BackendError(status, f"redirect to {location!r} not followed")
            if status >= 400:
                message = raw.decode("utf-8", errors="replace")[:500]
                if status < 500:
                    raise BackendError(status, message)
                last_error = (status, message)
                continue
            try:
                text = json.loads(raw)["choices"][0]["message"]["content"]
                if isinstance(text, str):  # a lone surrogate ("\ud83d") fails here, not in emit
                    text.encode("utf-8")
            except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
                raise BackendError(
                    status, f"malformed completion payload: {exc}"
                ) from exc
            if not isinstance(text, str):
                raise BackendError(
                    status,
                    f"malformed completion payload: content is {type(text).__name__}",
                )
            if not text:
                raise EmptyResponse(request.key)
            latency_ms = int((time.perf_counter() - started) * 1000)
            return CompletionResponse(
                text=text,
                backend_kind="live",
                backend_detail=request.config.model_id,
                latency_ms=latency_ms,
                request_digest=request.digest,
            )
        raise BackendError(last_error[0], f"retries exhausted: {last_error[1]}")

    def _post(
        self, url: str, body: bytes, headers: dict[str, str]
    ) -> tuple[int, str | None, bytes]:
        """(status, Location header, body) of one POST, whatever the status."""
        request = self._request_class(url, data=body, headers=headers, method="POST")
        with self._opener.open(request, timeout=self.timeout_s) as reply:
            return reply.status, reply.headers.get("Location"), reply.read()

