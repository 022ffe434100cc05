"""The specforge benchmark.

One workload, the form automated comparisons use (the last stdout line is
one JSON object with keys correct, attempted, failed and metrics)::

    python3 perfbench/run.py --workload replay-study --seed 1 --seconds 30 --trace 0

Every workload, each in its own process, printing every end-to-end metric by
name and unit (``--trace 1`` runs each twice traced and requires identical
counts)::

    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with tracing off. Set-up and
the processor-bound workloads' operations are reported in reference-host
seconds: each time is divided by a host factor (``canary.py``) measured
just before and just after it. ``--trace 1``
alternates untraced and traced operations: the traced ones give the
per-layer metrics, the pairs give the tracing overhead, and the spans are
written to ``.perfbench_out/`` when the run ends.

Exit codes: 0 every output check passed; 1 an output check failed; 2 the
checkout lacks specforge's sources, corpus or fixtures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import canary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 7  # fresh interpreters per run; the median is reported


def setup_seconds(corpus: Path, work: Path) -> float:
    """Median set-up time over fresh interpreters, after one untimed warm-up,
    in reference-host seconds: set-up reads many small files, so each time is
    divided by the host factor over every canary part."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src"), str(corpus)]
    times = []
    before, _ = canary.measure(work)
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        after, _ = canary.measure(work)
        kind = "processor+files"
        times.append(float(done.stdout) / ((before[kind] + after[kind]) / 2))
        before = after
    return statistics.median(times[1:])


def tail(samples: list[float]) -> tuple[float, int]:
    """(value, percentile): the highest percentile with at least ten operations
    beyond it, by nearest rank. Below 20 operations that percentile would not
    exceed the median, so the slowest operation is reported as p100."""
    n = len(samples)
    ordered = sorted(samples)
    if n < 20:
        return ordered[-1], 100
    pct = 100 * (n - 10) // n
    return ordered[math.ceil(pct * n / 100) - 1], pct


class Run:
    """One workload process: its operations, checks and figures."""

    def __init__(self, workload, seconds: float, tracer) -> None:
        self.w = workload
        self.seconds = seconds
        self.tracer = tracer
        self.times: list[float] = []  # untraced operations, divided by the workload's host factor
        self.wall: list[float] = []  # the same operations' wall times
        self.canary_ms: list[float] = []
        self.traced: list[tuple[int, float]] = []  # (op id, seconds)
        self.overhead: list[float] = []  # traced minus untraced, per pair
        self.cells = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._first_counts: dict[int, dict[str, float]] = {}

    def _one(self, item, op: int, traced: bool) -> float:
        from spans import COUNTS

        if traced:
            self.tracer.op = op
            self.w.tracer = self.tracer
            self.tracer.install()
        try:
            started = time.perf_counter()
            outcome = self.w.operation(item)
            elapsed = time.perf_counter() - started
        finally:
            if traced:
                self.tracer.uninstall()
        cells, errors = self.w.check(item, outcome)
        self.w.tracer = None
        self.w.clean()
        if traced:
            counts = {c: self.tracer.counts.get((op, c), 0) for c in COUNTS}
            first = self._first_counts.setdefault(op % len(self.w.cycle), counts)
            if counts != first:
                errors.append(f"counts differ between traced runs of one input: {counts} != {first}")
        self.attempted += 1
        self.cells += cells if not errors else 0
        if errors:
            self.failed += 1
            self.errors.extend(errors[:3])
        return elapsed

    def loop(self) -> None:
        """Operations until ``seconds`` have passed, or whole passes if the
        workload sets ``pass_s``; with tracing, untraced and traced in pairs.
        A host-speed canary runs between operations."""
        cycle = self.w.cycle
        cost = 1 if self.tracer is None else 2
        if self.w.pass_s:
            passes = max(1, math.ceil(self.seconds / (cost * self.w.pass_s)))
            done = lambda i: i >= passes * len(cycle)  # noqa: E731
        else:
            deadline = time.perf_counter() + self.seconds
            done = lambda i: time.perf_counter() >= deadline  # noqa: E731
        kind = self.w.host_factor
        factors, ms = canary.measure(self.w.work / "canary")
        self.canary_ms.append(ms)
        i = 0
        while not done(i):
            item = cycle[i % len(cycle)]
            if self.tracer is None:
                elapsed = self._one(item, i, traced=False)
                after, ms = canary.measure(self.w.work / "canary")
                self.canary_ms.append(ms)
                self.wall.append(elapsed)
                if kind is not None:
                    elapsed /= (factors[kind] + after[kind]) / 2
                self.times.append(elapsed)
                factors = after
            else:
                # Alternate which side of a pair runs first.
                order = (False, True) if i % 2 == 0 else (True, False)
                pair = {traced: self._one(item, i, traced) for traced in order}
                self.times.append(pair[False])
                self.traced.append((i, pair[True]))
                self.overhead.append(pair[True] - pair[False])
            i += 1


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_checkout() -> None:
    src = ROOT / "src"
    for needed in (src / "specforge" / "cli.py", ROOT / "corpus", ROOT / "fixtures"):
        if not needed.exists():
            _die(f"{needed.relative_to(ROOT)} is missing; run from a full specforge checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import specforge

    if Path(specforge.__file__).resolve().parent != src / "specforge":
        _die(f"imported specforge from {specforge.__file__}, not from {src}")


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<28} {value:<14.6g} {unit:<8} {note}".rstrip())


def run_one(args: argparse.Namespace) -> int:
    _import_checkout()
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](ROOT, work, args.seed)
    canary_ms = [canary.measure(work / "canary")[1]]
    try:
        if tracer is not None:
            tracer.install()  # set-up loads are traced too
        try:
            workload.setup()
        finally:
            if tracer is not None:
                tracer.uninstall()
        run = Run(workload, args.seconds, tracer)
        try:
            setup_s = setup_seconds(workload.corpus, work / "canary") if tracer is None else 0.0
            run.loop()
        finally:
            workload.close()
        canary_ms.extend(run.canary_ms)
        canary_ms.append(canary.measure(work / "canary")[1])
        shares = workload.shares()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    print(f"== {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  inputs: {json.dumps(shares)}")
    if tracer is None:
        value, pct = tail(run.times)
        clock = (
            f"reference-host s; wall median {statistics.median(run.wall):.4g} s"
            if workload.host_factor else "wall time"
        )
        figures = {
            "setup_s": (setup_s, f"median of {SETUP_REPEATS} fresh interpreters, reference-host s"),
            "study_p50_s": (statistics.median(run.times), f"{len(run.times)} operations, {clock}"),
            "study_tail_s": (value, f"p{pct} of {len(run.times)} operations"),
            "cells_per_s": (run.cells / sum(run.times), f"{run.cells} cells"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, ""),
        }
        wanted = SPEC["end_to_end"]
    else:
        ops = [op for op, _ in run.traced]
        first_cycle = [op for op in ops if op < len(workload.cycle)]
        figures = {
            name: (value, "")
            for name, value in layer_metrics(tracer, ops, first_cycle).items()
        }
        figures["trace.overhead_s"] = (
            statistics.median(run.overhead), f"median of {len(run.overhead)} pairs"
        )
        out = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(out)
        print(f"  {len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
        wanted = SPEC["per_layer"]
    figures["host.canary_ms"] = (statistics.median(canary_ms), "host speed, never gated")
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, (value, note) in figures.items():
        _print_metric(name, value, units.get(name, "s"), note)
    _print_metric("failed_share", run.failed / run.attempted, "ratio",
                  f"{run.failed} of {run.attempted} operations failed")
    for error in run.errors[:20]:
        print(f"  check failed: {error}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": figures[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; with tracing, twice, comparing counts."""
    sys.path.insert(0, str(HERE))
    from spans import COUNTS

    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        results = []
        for _ in range(2 if args.trace else 1):
            done = subprocess.run(command, capture_output=True, text=True, timeout=600)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode == 2:
                return 2
            last = (done.stdout.splitlines() or [""])[-1]
            ok &= done.returncode == 0 and last.startswith("{")
            if last.startswith("{"):
                results.append(json.loads(last)["metrics"])
        if len(results) == 2:
            pair = [{k: v["value"] for k, v in r.items() if k in COUNTS} for r in results]
            if pair[0] != pair[1]:
                print(f"  {workload}: counts differ between two traced runs: {pair}")
                ok = False
    print("all workloads: " + ("every output check passed" if ok else "some output check FAILED"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="specforge benchmark")
    names = [w["name"] for w in SPEC["workloads"]]
    parser.add_argument("--workload", choices=[*names, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
