"""The host-speed canary: fixed pure-Python work that is not specforge's.

The reference host is a shared 2-vCPU container whose speed drifts by up to
2x within minutes, and the drift reaches processor time as much as wall time.
The canary runs eight kinds of work the analyzer and the runner also do:
integer arithmetic, regex tokenizing, dict lookups over a few megabytes, a
sequence diff, two threads sharing the interpreter lock, a JSON round trip,
line-wise regex matching, and writing, reading and deleting small files. It
compares each part's time with that part's time on the reference host. The
geometric mean of those ratios is a host factor: 1.0 on the reference host
at its usual speed, 1.3 on a host 30 % slower. Different parts slow down
differently on a busy host, so the factor takes several. The file part
drifts on its own (the file system slows as a series of runs goes on), so
there are two factors: one over the in-memory parts, for work that writes
few files, and one over every part, for work that writes many.

Dividing a time by the factor measured just before and after it gives that
time in reference-host seconds. The canary is part of the
benchmark, so a change to specforge cannot move it: a slower or faster
specforge moves the normalized time exactly as it moves the wall time.
"""

from __future__ import annotations

import difflib
import json
import random
import re
import threading
import time
from pathlib import Path
from statistics import geometric_mean

_rng = random.Random(7)
_TEXT = "\n".join(
    f"  x{i} = a[{i % 17}][j] + f(b, {i * 7 % 13}); /*@ loop invariant 0 <= i <= n{i % 5}; */"
    for i in range(400)
)
_TOKEN = re.compile(r"[A-Za-z_]\w*|\d+|\S")
_KEYS = [f"k{n}" for n in _rng.sample(range(10**9), 50_000)]
_OLD = _TOKEN.findall(_TEXT)[:800]
_NEW = [*_OLD[:400], "edited", *_OLD[401:]]
_REPORT = {
    "results": [
        {
            "program": f"p{i}",
            "histogram": {k: _rng.randrange(100) for k in ("requires", "ensures", "assigns")},
            "issues": [{"rule": "variant_before_assigns", "line": j} for j in range(5)],
            "response": "/*@ requires n > 0; */ " * 8,
        }
        for i in range(150)
    ]
}
_CLAUSE = re.compile(r"\b(requires|ensures|assigns|loop invariant)\s+([^;]*);")
_ANNOTATED = (
    "/*@ requires \\valid(a + (0 .. n - 1));\n    ensures \\result >= 0;\n"
    "    assigns \\nothing; */\nint f(int *a, int n) { for (int i = 0; i < n; i++) s += a[i]; }\n"
) * 500


def _arithmetic(n: int = 60_000) -> None:
    total = 0
    for i in range(n):
        total += i * i % 7


def _tokens() -> None:
    counts: dict[str, int] = {}
    for token in _TOKEN.findall(_TEXT):
        counts[token] = counts.get(token, 0) + 1
    sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))


def _lookups() -> None:
    table = {key: i for i, key in enumerate(_KEYS[::2])}
    sum(table.get(key, 0) for key in _KEYS)


def _diff() -> None:
    difflib.SequenceMatcher(None, _OLD, _NEW, autojunk=False).get_opcodes()


def _two_threads() -> None:
    threads = [threading.Thread(target=_arithmetic, args=(15_000,)) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _json() -> None:
    json.loads(json.dumps(_REPORT, indent=2, sort_keys=True))


def _lines() -> None:
    for line in _ANNOTATED.splitlines():
        _CLAUSE.findall(line)
        line.split()


def _files(work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    paths = [work / f"{i}.txt" for i in range(40)]
    for path in paths:
        path.write_text(_TEXT[:4096], encoding="utf-8")
    for path in paths:
        path.read_text(encoding="utf-8")
        path.unlink()


# Each part with its median seconds on the reference host (Python 3.11.7).
_PARTS = (
    (_arithmetic, 0.0070),
    (_tokens, 0.0060),
    (_lookups, 0.0127),
    (_diff, 0.0110),
    (_two_threads, 0.0045),
    (_json, 0.0104),
    (_lines, 0.0050),
)
_FILES_S = 0.0050


def measure(work: Path) -> tuple[dict[str, float], float]:
    """One pass over the canary, writing its files under ``work``.

    Returns the host factor over the in-memory parts (``"processor"``) and
    over every part (``"processor+files"``), and the milliseconds taken.
    """
    ratios = []
    total = 0.0
    for part, reference in [*_PARTS, (lambda: _files(work), _FILES_S)]:
        started = time.perf_counter()
        part()
        elapsed = time.perf_counter() - started
        ratios.append(elapsed / reference)
        total += elapsed
    factors = {"processor": geometric_mean(ratios[:-1]), "processor+files": geometric_mean(ratios)}
    return factors, total * 1000
