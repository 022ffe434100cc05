"""Outside-in tracing: spans around calls into specforge's public functions.

Each traced function is rebound where its caller looks it up (for example
``specforge.runner.parse_annotations``), so specforge itself is unchanged.
Spans are kept in memory and written out when the run ends. Counters
(``tokenize`` calls and bytes, mutation sites) are taken at the same
boundaries.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Any, Callable


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    preserved: bool | None = None  # check_code_preserved verdicts only


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], float] = {}  # (op, counter) -> value
        self.op = -1
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._dispatch_parent: int | None = None  # open runner.run span, for pool threads
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            key = (self.op, name)
            self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn: Callable, dispatch: bool = False) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent = stack[-1] if stack else self._dispatch_parent
            span = Span(next(self._ids), name, 0.0, 0.0, parent, self.op)
            stack.append(span.span_id)
            if dispatch:
                self._dispatch_parent = span.span_id
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if dispatch:
                    self._dispatch_parent = parent
                with self._lock:
                    self.spans.append(span)
            if name == "analyzer.check_code_preserved":
                span.preserved = result.preserved
            return result

        return traced

    def counting_tokenize(self, tokenize: Callable) -> Callable:
        @functools.wraps(tokenize)
        def counted(source: str) -> Any:
            tokens = tokenize(source)
            self.count("analyzer.tokenize_calls")
            self.count("analyzer.tokenize_bytes", len(source.encode("utf-8")))
            return tokens

        return counted

    # -- installing --------------------------------------------------------

    def _rebind(self, owner: object, attr: str, replacement: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Rebind every traced function; ``uninstall`` restores the originals."""
        from specforge import cli, gateway, mutation, prompts, runner
        from specforge.analyzer import annotations, checks, lexer

        spans = [
            (cli, "main", "cli.main"),
            (cli, "load_templates", "prompts.load_templates"),
            (cli, "load_corpus", "runner.load_corpus"),
            (cli, "run", "runner.run"),
            (cli, "emit", "runner.emit"),
            (cli, "load_report", "runner.load_report"),
            (runner, "parse_test_csv", "pathcrawler.parse_test_csv"),
            (runner, "parse_eva_report", "eva.parse_eva_report"),
            (runner, "build_prompt", "prompts.build_prompt"),
            (runner, "split_response", "analyzer.split_response"),
            (runner, "parse_annotations", "analyzer.parse_annotations"),
            (runner, "lint_code", "analyzer.lint"),
            (runner, "check_code_preserved", "analyzer.check_code_preserved"),
            (runner, "spec_similarity", "analyzer.spec_similarity"),
            (gateway.ReplayBackend, "complete", "gateway.complete"),
            (gateway.LiveBackend, "complete", "gateway.complete"),
            # called directly by the robustness workload
            (prompts, "load_templates", "prompts.load_templates"),
            (runner, "load_corpus", "runner.load_corpus"),
            (runner, "run", "runner.run"),
            (mutation, "mutate", "mutation.mutate"),
        ]
        for owner, attr, name in spans:
            fn = getattr(owner, attr)
            self._rebind(owner, attr, self.wrap(name, fn, dispatch=name == "runner.run"))
        for module in (annotations, checks, lexer, runner, mutation):
            self._rebind(module, "tokenize", self.counting_tokenize(module.tokenize))
        sites = mutation.enumerate_sites

        def counted_sites(program: Any) -> Any:
            found = sites(program)
            self.count("mutation.sites", len(found))
            return found

        self._rebind(mutation, "enumerate_sites", counted_sites)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """One JSON object per span: name, start, end, parent span, operation id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for s in sorted(self.spans, key=lambda s: s.span_id):
                row = {
                    "id": s.span_id,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "op": s.op,
                }
                if s.preserved is not None:
                    row["preserved"] = s.preserved
                out.write(json.dumps(row) + "\n")


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_time(span: Span, children: list[Span]) -> float:
    """The span's duration minus the part of its interval its children cover."""
    inside = [(max(c.start, span.start), min(c.end, span.end)) for c in children]
    return (span.end - span.start) - covered([(a, b) for a, b in inside if b > a])


# Span name -> metric: a total per operation, a self time per operation, a
# time per call (set-up loads included), a total per corpus load.
_PER_OP = {
    "runner.emit": "runner.emit_s",
    "runner.load_report": "runner.load_report_s",
    "prompts.build_prompt": "prompts.build_s",
    "gateway.complete": "gateway.complete_s",
    "analyzer.split_response": "analyzer.split_s",
    "analyzer.parse_annotations": "analyzer.parse_s",
    "analyzer.lint": "analyzer.lint_s",
    "analyzer.spec_similarity": "analyzer.similarity_s",
    "mutation.mutate": "mutation.mutate_s",
}
_SELF = {"cli.main": "cli.self_s", "runner.run": "runner.run_self_s"}
_PER_CALL = {
    "runner.load_corpus": "runner.load_corpus_s",
    "prompts.load_templates": "prompts.load_templates_s",
}
_PER_LOAD = {
    "pathcrawler.parse_test_csv": "pathcrawler.parse_s",
    "eva.parse_eva_report": "eva.parse_s",
}
_PRESERVE = {True: "analyzer.preserve_s", False: "analyzer.preserve_diff_s"}
COUNTS = [
    "analyzer.tokenize_calls",
    "analyzer.tokenize_bytes",
    "mutation.sites",
    "gateway.retries",
    "runner.report_bytes",
]


def layer_metrics(tracer: Tracer, ops: list[int], count_ops: list[int]) -> dict[str, float]:
    """Per-layer figures from the spans of the traced operations ``ops``.

    Times are medians over operations of each operation's total. Counts are
    means per operation over ``count_ops``, a fixed set of inputs, so that two
    traced runs of one seed give identical counts.
    """
    children: dict[int | None, list[Span]] = {}
    for s in tracer.spans:
        children.setdefault(s.parent, []).append(s)
    columns = [*_SELF.values(), *_PER_OP.values(), *_PRESERVE.values(), "study"]
    per_op = {op: dict.fromkeys(columns, 0.0) for op in ops}
    per_call: dict[str, list[float]] = {name: [] for name in [*_PER_CALL, *_PER_LOAD]}
    for s in tracer.spans:
        duration = s.end - s.start
        if s.name in per_call:
            per_call[s.name].append(duration)
        row = per_op.get(s.op)
        if row is None:
            continue
        if s.name in _SELF:
            row[_SELF[s.name]] += self_time(s, children.get(s.span_id, []))
        if s.name in _PER_OP:
            row[_PER_OP[s.name]] += duration
        if s.name == "analyzer.check_code_preserved":
            row[_PRESERVE[s.preserved]] += duration
        if s.name == "runner.run":
            row["study"] += duration

    rows = per_op.values()
    metrics = {column: median(row[column] for row in rows) for column in columns[:-1]}
    metrics["gateway.inflight_mean"] = median(
        [row["gateway.complete_s"] / row["study"] for row in rows if row["study"]] or [0.0]
    )
    metrics["gateway.stub_s"] = median(tracer.counts.get((op, "gateway.stub_s"), 0.0) for op in ops)
    for name, metric in _PER_CALL.items():
        metrics[metric] = median(per_call[name] or [0.0])
    loads = max(1, len(per_call["runner.load_corpus"]))
    for name, metric in _PER_LOAD.items():
        metrics[metric] = sum(per_call[name]) / loads
    for name in COUNTS:
        metrics[name] = sum(tracer.counts.get((op, name), 0) for op in count_ops) / len(count_ops)
    return metrics
