"""The benchmark's tracer still finds every name it rebinds.

``perfbench/spans.py`` wraps specforge functions where their callers look
them up (``runner.build_prompt``, ``checks.tokenize``, ...). A refactor that
renames or drops one of those names would make ``--trace 1`` fail only when
the benchmark runs; this test loads the tracer as it ships and installs it.
"""

from __future__ import annotations

import importlib.util
import sys

from conftest import REPO_ROOT


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", REPO_ROOT / "perfbench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_rebinds_every_target_and_restores_it(monkeypatch):
    tracer = _load_spans(monkeypatch).Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert saved
        for owner, attr, original in saved:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in saved:
        assert getattr(owner, attr) is original, attr


def test_mutate_tokenizes_once_under_the_tracer(monkeypatch, corpus_load):
    # ``mutate`` takes its draw from ``scan`` and lexes only the drawn
    # token's line, so the whole-program ``tokenize`` the tracer counts is
    # its fallback, which levenshtein's seed-7 draw does not need.
    from specforge import mutation

    program = next(e.program for e in corpus_load.entries if e.program.name == "levenshtein")
    tracer = _load_spans(monkeypatch).Tracer()
    try:
        tracer.install()
        mutation.mutate(program, 7)
    finally:
        tracer.uninstall()
    assert tracer.counts.get((tracer.op, "analyzer.tokenize_calls"), 0) == 0
    assert tracer.counts.get((tracer.op, "analyzer.tokenize_bytes"), 0) == 0
