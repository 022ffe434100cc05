"""How ``run`` schedules backend requests: retries wait in a heap, not in a thread.

A ``ReplayBackend`` is stepped on the calling thread; any other backend on
worker threads. ``_Threaded`` puts a replay backend behind a plain
``attempts``, so that a test can drive the worker path with fixtures.

Every ``run`` here goes through ``conftest.within``, so a deadlocked
dispatcher fails its test instead of hanging the suite.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

from conftest import FIXTURES_DIR, within
from specforge import gateway
from specforge.gateway import LiveBackend, ReplayBackend
from specforge.model import GenerationConfig, PromptVariant
from specforge.runner import STATUS_BACKEND_FAILED, STATUS_OK, run

TIMEOUT_S = 30.0
REPLY = "```c\nint f(void) { return 0; }\n```"
NESTED = b"[" * 100_000 + b"]" * 100_000


def _workers() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("specforge-request-")]


class _Threaded:
    """``replay``'s fixtures behind a plain ``attempts``, which ``run`` steps on workers."""

    def __init__(self, replay: ReplayBackend):
        self.replay = replay

    def attempts(self, request):
        yield from ()
        return self.replay.complete(request)


class _Clocked(BaseHTTPRequestHandler):
    """Answers 503 to the first ``fail_first`` requests and 200 after; logs each one.

    The first ``nested_first`` replies carry a body nested too deeply for
    ``json.loads`` in place of a completion.

    With ``throttle_each``, the first request of each prompt text is answered
    429 with ``Retry-After: 0``.

    Each request is held ``hold_s`` before its reply. ``inflight`` drops
    before the reply is written, so a client's next request never overlaps
    its last one in ``peak``. ``most_workers`` is the most ``run`` worker
    threads seen alive while a request was held.
    """

    fail_first = 0
    nested_first = 0
    throttle_each = False
    hold_s = 0.0
    lock = threading.Lock()
    log: list[tuple[float, str, int]] = []  # (arrival, prompt text, status)
    inflight = 0
    peak = 0
    most_workers = 0

    def do_POST(self):  # noqa: N802 (http.server API)
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        cls = _Clocked
        with cls.lock:
            prompt = body["messages"][0]["content"]
            status = 503 if len(cls.log) < cls.fail_first else 200
            if cls.throttle_each and all(seen != prompt for _, seen, _ in cls.log):
                status = 429
            nested = len(cls.log) < cls.nested_first
            cls.log.append((time.monotonic(), prompt, status))
            cls.inflight += 1
            cls.peak = max(cls.peak, cls.inflight)
            cls.most_workers = max(cls.most_workers, len(_workers()))
        time.sleep(cls.hold_s)
        with cls.lock:
            cls.inflight -= 1
        reply = {"choices": [{"message": {"content": REPLY}}]} if status == 200 else {}
        payload = NESTED if nested else json.dumps(reply).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if status == 429:
            self.send_header("Retry-After", "0")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):  # silence test output
        pass


@pytest.fixture()
def clocked_server(monkeypatch):
    monkeypatch.setenv("SPECFORGE_API_KEY", "test-key")
    _Clocked.fail_first, _Clocked.nested_first, _Clocked.hold_s = 0, 0, 0.0
    _Clocked.throttle_each = False
    _Clocked.log, _Clocked.inflight, _Clocked.peak, _Clocked.most_workers = [], 0, 0, 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Clocked)
    server.daemon_threads = True
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def _entries(corpus_load, *names):
    return [e for e in corpus_load.entries if e.program.name in names]


def test_backoff_holds_no_slot(clocked_server, corpus_load, templates, monkeypatch):
    _Clocked.fail_first = 1
    monkeypatch.setattr(gateway, "BACKOFF_S", (0.5,))
    backend = LiveBackend(clocked_server)
    report = within(
        TIMEOUT_S, run, _entries(corpus_load, "binary_search", "tritype"),
        [PromptVariant.BASELINE], GenerationConfig(), backend, templates, max_workers=1,
    )
    assert [r.status for r in report.results] == [STATUS_OK] * 6
    log = _Clocked.log
    assert [status for _, _, status in log] == [503] + [200] * 6
    failed_at, first_prompt, _ = log[0]
    # The five other cells go out while the first one backs off; its retry comes last.
    assert all(arrival < failed_at + 0.5 for arrival, _, _ in log[1:6])
    assert log[6][1] == first_prompt
    assert log[6][0] >= failed_at + 0.5
    retried = [r for r in report.results if r.response.latency_ms >= 500]
    assert [(r.program_name, r.sample_index) for r in retried] == [("binary_search", 0)]


def test_due_retry_goes_before_new_cells(clocked_server, corpus_load, templates, monkeypatch):
    _Clocked.fail_first, _Clocked.hold_s = 1, 0.05
    monkeypatch.setattr(gateway, "BACKOFF_S", (0.01,))
    backend = LiveBackend(clocked_server)
    report = within(
        TIMEOUT_S, run, _entries(corpus_load, "binary_search", "tritype", "alias5", "apache"),
        [PromptVariant.BASELINE], GenerationConfig(samples_per_program=1), backend,
        templates, max_workers=1,
    )
    assert [r.status for r in report.results] == [STATUS_OK] * 4
    prompts = [prompt for _, prompt, _ in _Clocked.log]
    # The retry comes due while the second cell is on the wire, so it is sent third.
    assert prompts[2] == prompts[0]
    assert len(set(prompts)) == 4


def test_a_reply_nested_too_deep_fails_only_its_cell(
    clocked_server, corpus_load, templates, monkeypatch
):
    _Clocked.nested_first = 1
    monkeypatch.setattr(gateway, "BACKOFF_S", ())
    backend = LiveBackend(clocked_server)
    report = within(
        TIMEOUT_S, run, _entries(corpus_load, "tritype"), [PromptVariant.BASELINE],
        GenerationConfig(), backend, templates, max_workers=1,
    )
    assert [r.status for r in report.results] == [STATUS_BACKEND_FAILED] + [STATUS_OK] * 2
    assert "(status=200): malformed completion payload: " in report.results[0].status_reason


def test_a_backend_with_only_attempts_runs_like_replay(corpus_load, templates):
    replay = ReplayBackend(FIXTURES_DIR)
    resumed: list[str] = []

    class OneBackoff:
        def attempts(self, request):
            yield 0.0
            resumed.append(request.key)
            return replay.complete(request)

    variants, config = list(PromptVariant), GenerationConfig()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches inside the dispatcher's critical steps
    try:
        got = within(
            TIMEOUT_S, run, corpus_load, variants, config, OneBackoff(), templates, max_workers=8
        )
    finally:
        sys.setswitchinterval(interval)
    want = run(corpus_load, variants, config, replay, templates)
    assert [r.to_dict() for r in got.results] == [r.to_dict() for r in want.results]
    # every cell was parked once, after its one backoff, and then resumed
    assert sorted(resumed) == sorted(
        f"{r.program_name}/{r.variant.value}/{r.sample_index}" for r in want.results
    )
    assert _workers() == []


def test_in_flight_bound_holds_while_retries_are_parked(
    clocked_server, corpus_load, templates, monkeypatch
):
    _Clocked.fail_first, _Clocked.hold_s = 3, 0.02
    monkeypatch.setattr(gateway, "BACKOFF_S", (0.05,))
    backend = LiveBackend(clocked_server)
    report = within(
        TIMEOUT_S, run, _entries(corpus_load, "binary_search", "tritype"),
        [PromptVariant.BASELINE], GenerationConfig(samples_per_program=6), backend,
        templates, max_workers=2,
    )
    assert [r.status for r in report.results] == [STATUS_OK] * 12
    assert [status for _, _, status in _Clocked.log].count(503) == 3
    assert len(_Clocked.log) == 15
    assert _Clocked.peak == 2
    assert _Clocked.most_workers == 2
    assert _workers() == []


def test_a_429_is_retried_like_a_5xx(clocked_server, corpus_load, templates, monkeypatch):
    _Clocked.throttle_each = True
    monkeypatch.setattr(gateway, "BACKOFF_S", (0.0,))
    backend = LiveBackend(clocked_server)
    report = within(
        TIMEOUT_S, run, _entries(corpus_load, "binary_search", "tritype"),
        [PromptVariant.BASELINE], GenerationConfig(samples_per_program=1), backend,
        templates, max_workers=2,
    )
    assert [r.status for r in report.results] == [STATUS_OK] * 2
    assert sorted(status for _, _, status in _Clocked.log) == [200, 200, 429, 429]


def test_a_replay_run_reads_every_fixture_on_the_calling_thread(corpus_load, templates):
    readers: list[threading.Thread] = []
    workers_seen: list[threading.Thread] = []

    class Recorded(ReplayBackend):
        def complete(self, request):
            readers.append(threading.current_thread())
            workers_seen.extend(_workers())
            return super().complete(request)

    callers: list[threading.Thread] = []

    def run_here(*args, **kwargs):
        callers.append(threading.current_thread())
        return run(*args, **kwargs)

    report = within(
        TIMEOUT_S, run_here, corpus_load, list(PromptVariant), GenerationConfig(),
        Recorded(FIXTURES_DIR), templates, max_workers=4,
    )
    assert len(readers) == len(report.results)
    assert set(readers) == set(callers)
    assert workers_seen == []


@pytest.mark.parametrize(
    "dispatch", [lambda replay: replay, _Threaded], ids=["on-the-caller", "on-workers"]
)
def test_foreign_exception_propagates_without_a_hang(corpus_load, templates, dispatch):
    readers: list[str] = []

    class Broken(ReplayBackend):
        def complete(self, request):
            readers.append(threading.current_thread().name)
            if request.key == "tritype/baseline/1":
                raise ValueError("not a gateway failure")
            return super().complete(request)

    before = set(_workers())
    with pytest.raises(ValueError, match="not a gateway failure"):
        within(
            TIMEOUT_S, run, corpus_load, list(PromptVariant), GenerationConfig(),
            dispatch(Broken(FIXTURES_DIR)), templates, max_workers=2,
        )
    assert not set(_workers()) - before
    on_workers = {name.startswith("specforge-request-") for name in readers}
    assert on_workers == {dispatch is _Threaded}


def test_leaving_run_early_stops_sending(monkeypatch, corpus_load, templates):
    """Once the first reply is read, every later request waits until the run stops.

    So the two workers hold at most one request each when the analysis
    fails, and ``_Dispatch._stop``, the first step of leaving the run,
    releases them: no count of sends rests on how threads are scheduled.
    """
    import specforge.runner

    sent: list[str] = []
    stopped = threading.Event()
    replay = ReplayBackend(FIXTURES_DIR)

    class Slow:
        def attempts(self, request):
            yield from ()
            sent.append(request.key)
            if request.sample_index:  # a cell's first sample alone goes through
                stopped.wait(TIMEOUT_S)
            return replay.complete(request)

    def broken_analysis(*args):
        raise RuntimeError("analysis bug")

    stop = specforge.runner._Dispatch._stop

    def stop_and_release(self):
        stop(self)
        stopped.set()

    monkeypatch.setattr(specforge.runner, "_analyze", broken_analysis)
    monkeypatch.setattr(specforge.runner._Dispatch, "_stop", stop_and_release)
    before = set(_workers())
    with pytest.raises(RuntimeError, match="analysis bug"):
        within(
            TIMEOUT_S, run, corpus_load, list(PromptVariant), GenerationConfig(), Slow(),
            templates, max_workers=2,
        )
    assert len(sent) <= 2 * 2
    assert not set(_workers()) - before


def test_an_interrupted_join_in_run_stops_and_joins_the_workers(
    monkeypatch, corpus_load, templates
):
    """Ctrl-C at the first join of a run that is already failing.

    Every request but a cell's first sample is held until the second join
    call, so both workers are on the wire when the join is interrupted: the
    dispatch must keep joining them, then raise the interrupt.
    """
    import specforge.runner

    released = threading.Event()
    replay = ReplayBackend(FIXTURES_DIR)

    class Held:
        def attempts(self, request):
            yield from ()
            if request.sample_index:
                released.wait(TIMEOUT_S)
            return replay.complete(request)

    def broken_analysis(*args):
        raise RuntimeError("analysis bug")

    interrupted: list[threading.Thread] = []

    class Interrupted(threading.Thread):
        def join(self, timeout=None):
            if not interrupted:
                interrupted.append(self)
                raise KeyboardInterrupt
            released.set()
            super().join(timeout)

    monkeypatch.setattr(specforge.runner, "_analyze", broken_analysis)
    threads = SimpleNamespace(
        Thread=Interrupted, Lock=threading.Lock, Condition=threading.Condition
    )
    monkeypatch.setattr(specforge.runner, "threading", threads)
    before = set(_workers())
    try:
        with pytest.raises(KeyboardInterrupt):
            within(
                TIMEOUT_S, run, corpus_load, list(PromptVariant), GenerationConfig(), Held(),
                templates, max_workers=2,
            )
        assert len(interrupted) == 1
        assert not set(_workers()) - before
    finally:
        released.set()  # so that a worker left running ends
