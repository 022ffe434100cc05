from __future__ import annotations

import importlib.util
import os
import re
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

import pytest
from hypothesis import settings

# CI runs with HYPOTHESIS_PROFILE=ci, so a property that fails there prints the
# blob that ``@reproduce_failure`` replays locally.
settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = REPO_ROOT / "corpus"
FIXTURES_DIR = REPO_ROOT / "fixtures"
TEMPLATES_DIR = REPO_ROOT / "src" / "specforge" / "templates"


def load_synth(monkeypatch: pytest.MonkeyPatch) -> Any:
    """``perfbench/synth.py`` as it ships, imported read-only."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_synth", REPO_ROOT / "perfbench" / "synth.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def src_env() -> dict[str, str]:
    """This environment with ``src`` first on PYTHONPATH, for child interpreters."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env
DATA_DIR = Path(__file__).resolve().parent / "data"


def within(timeout_s: float, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``fn(*args, **kwargs)`` on a thread of its own; fail if it outlives ``timeout_s``.

    A deadlock then fails its test instead of hanging the suite. A call that
    holds the GIL past ``timeout_s`` (one long regex match) keeps the wait
    from ending on time, so the elapsed time is checked as well. The result
    is returned and an exception re-raised, as from a direct call.
    """
    outcome: dict[str, Any] = {}

    def target() -> None:
        try:
            outcome["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # re-raised on the test's thread
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    started = time.perf_counter()
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive() or time.perf_counter() - started > timeout_s:
        pytest.fail(f"{getattr(fn, '__name__', fn)} still running after {timeout_s} s")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]

# Recorded sample inputs used across suites. The ADPCM test CSV: four input
# columns, three cases, outputs 0/0/1, every verdict "unknown".
ADPCM_CSV = (
    "input_n,input_valeur,input_t[0],input_t[1],output,verdict\n"
    "2,0,-37,0,0,unknown\n"
    "2,-91,0,62,0,unknown\n"
    "2,0,0,12,1,unknown\n"
)

# Value-analysis console excerpt: four signed-overflow alarms on lines 8/9
# and one out-of-bounds write on line 11, plus a kernel warning line.
ALIAS5_EVA_EXCERPT = """...
[eva:alarm] temp_files/tmphpdyn83w/eva_temp.c:8:Warning:
  signed overflow. assert -2147483648 <= x * 2;
[eva:alarm] temp_files/tmphpdyn83w/eva_temp.c:8:Warning:
  signed overflow. assert x * 2 <= 2147483647;
[eva:alarm] temp_files/tmphpdyn83w/eva_temp.c:9:Warning:
  signed overflow. assert -2147483648 <= v - y;
[eva:alarm] temp_files/tmphpdyn83w/eva_temp.c:9:Warning:
  signed overflow. assert v - y <= 2147483647;
[eva:alarm] temp_files/tmphpdyn83w/eva_temp.c:11:Warning:
  out of bounds write. assert \\valid(tab + 2);
[kernel] temp_files/tmphpdyn83w/eva_temp.c:11:Warning:
  all target addresses were invalid. This path is assumed to be dead.
"""


@pytest.fixture(scope="session")
def bsearch_annotated() -> str:
    """Recorded six-clause annotated binary search (one contract, one loop block)."""
    return (DATA_DIR / "bsearch_annotated.c").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def bsearch_annotated_verbose() -> str:
    """Recorded heavily annotated binary search: statement assigns everywhere."""
    return (DATA_DIR / "bsearch_annotated_verbose.c").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def labels_tritype_eva_report() -> str:
    return (CORPUS_DIR / "labels_tritype" / "eva.txt").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def corpus_load():
    from specforge.runner import load_corpus

    return load_corpus(CORPUS_DIR)


@pytest.fixture(scope="session")
def templates():
    from specforge.prompts import load_templates

    return load_templates(TEMPLATES_DIR)


# Independent token oracle: a one-regex C token splitter used to cross-check
# the package's lexer-based comparisons without sharing its code path.
_ORACLE_TOKEN_RE = re.compile(
    r"""[A-Za-z_$][A-Za-z0-9_$]*
      | 0[xX][0-9a-fA-F]+[uUlL]*
      | (?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?[uUlLfF]*
      | '(?:\\.|[^'\\\n])*'
      | "(?:\\.|[^"\\\n])*"
      | <<=|>>=|\.\.\.
      | ->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\|
      | [-+*/%<>=!&|^~?:;,.()\[\]{}\#\\@]
    """,
    re.VERBOSE,
)


def oracle_tokens(code: str) -> list[str]:
    """Comment-blind token list computed independently of the package lexer."""
    no_block = re.sub(r"/\*.*?\*/", " ", code, flags=re.S)
    no_comments = re.sub(r"//[^\n]*", " ", no_block)
    return _ORACLE_TOKEN_RE.findall(no_comments)


def preservation(original: str, reply: str):
    """``check_code_preserved`` of two texts, on the inputs the runner gives it:
    the original's comparable stream and the reply's ``parse_blocks`` result."""
    from specforge.analyzer import check_code_preserved, parse_blocks, scan

    return check_code_preserved(scan(original, {})[0], parse_blocks(reply))
