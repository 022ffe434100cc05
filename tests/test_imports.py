"""What a replay run loads: no HTTP stack, since only the live backend needs one,
and no thread pool or logging, since ``run`` starts its own worker threads.
What the analyzer loads: not the runner, the gateway or ``subprocess``."""

from __future__ import annotations

import subprocess
import sys

from conftest import CORPUS_DIR, FIXTURES_DIR, src_env

HTTP_MODULES = ("requests", "urllib3", "urllib.request", "http.client")
POOL_MODULES = ("concurrent.futures", "logging")

_REPLAY_RUN = """
import contextlib, io, sys
import specforge.cli
assert not [m for m in {modules!r} if m in sys.modules], "loaded by the import"
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = specforge.cli.main([
        "generate", "--corpus", {corpus!r}, "--fixtures", {fixtures!r},
        "--backend", "replay", "--out", {out!r},
    ])
print(code, *sorted(m for m in {modules!r} if m in sys.modules))
"""


def test_replay_generate_loads_no_http_stack(tmp_path):
    script = _REPLAY_RUN.format(
        modules=HTTP_MODULES,
        corpus=str(CORPUS_DIR),
        fixtures=str(FIXTURES_DIR),
        out=str(tmp_path / "out"),
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
    assert (tmp_path / "out" / "report.json").is_file()


def test_replay_generate_loads_no_thread_pool_or_logging(tmp_path):
    script = _REPLAY_RUN.format(
        modules=POOL_MODULES,
        corpus=str(CORPUS_DIR),
        fixtures=str(FIXTURES_DIR),
        out=str(tmp_path / "out"),
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_analyzer_import_loads_no_runner_or_gateway():
    modules = ("specforge.runner", "specforge.gateway", "subprocess")
    script = f"import sys, specforge.analyzer; print(*[m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
