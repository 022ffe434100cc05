"""The three benchmark workloads: set-up, one timed operation, output checks.

``operation`` is the timed part and returns what ``check`` needs; ``check``
runs untimed and returns the cells completed and a list of failures. Checks
compare against records made outside the code under test: a digest and
census recorded from the shipped replay study, and what the synthetic
generator inserted.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import re
import shutil
from pathlib import Path
from typing import Any

import synth
from specforge import cli, mutation, prompts, runner
from specforge.gateway import ReplayBackend
from specforge.model import GenerationConfig, PromptVariant
from stub import Stub, prompt_key

GOLDEN = json.loads((Path(__file__).parent / "golden" / "replay.json").read_text())
SAMPLES = synth.SAMPLES  # the shipped fixtures hold three samples per prompt too
INFLIGHT = 2  # nproc of the reference host: at most two workers and connections
LIVE_RETRIED = 3  # prompts whose first attempt gets a 503 ...
LIVE_RETRY_POOL = 10  # ... chosen among this many first prompts in run order
ROBUSTNESS_PARENTS = 7
# Operations per pass for each parent, smallest first. Mid-sized parents come
# up more often, so at three passes the median rests on nine operations of
# one parent and the tail on six.
ROBUSTNESS_MIX = (1, 1, 2, 3, 2, 1, 1)
_ONE_TOKEN = re.compile(r"\w*|[<>=+-]*")  # what remains of a one-token edit after trimming


def _quiet(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class Workload:
    """Base: ``cycle`` lists the inputs; an operation handles one of them."""

    name = ""
    # Seconds one pass over ``cycle`` takes on the reference host. When set, a
    # run makes the fewest whole passes that fill its seconds there, in place
    # of stopping on time, so every run measures the same mix of inputs.
    pass_s: float | None = None
    # Which host factor (canary.py) operation times are divided by: None
    # keeps wall time, for a workload whose time sleeps set; "processor+files"
    # for one that also writes files on every operation.
    host_factor: str | None = "processor"

    def __init__(self, root: Path, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.corpus = root / "corpus"
        self.fixtures = root / "fixtures"
        self.cycle: list[Any] = [None]
        self.tracer = None  # set during traced operations
        self._ops = 0

    def setup(self) -> None:
        """Untimed preparation before any operation."""

    def close(self) -> None:
        """Release what ``setup`` started."""

    def shares(self) -> dict[str, Any]:
        """The input shares a change helping only some inputs can cite."""
        return {}

    def _out(self) -> Path:
        self._ops += 1
        return self.work / f"op{self._ops}"

    def operation(self, item: Any) -> Any:
        raise NotImplementedError

    def check(self, item: Any, outcome: Any) -> tuple[int, list[str]]:
        raise NotImplementedError

    def clean(self) -> None:
        """Untimed, after each operation: drop its files and garbage."""
        shutil.rmtree(self.work / f"op{self._ops}", ignore_errors=True)
        gc.collect()


class ReplayStudy(Workload):
    """``specforge generate`` then ``specforge report`` over the shipped corpus."""

    name = "replay-study"
    host_factor = "processor+files"  # each operation writes 185 files

    def operation(self, item: Any) -> Any:
        out = self._out()
        gen, again = out / "generate", out / "report"
        code = _quiet([
            "generate", "--corpus", str(self.corpus), "--fixtures", str(self.fixtures),
            "--backend", "replay", "--samples", str(SAMPLES),
            "--max-inflight", str(INFLIGHT), "--out", str(gen),
        ])
        code_report = _quiet(["report", "--in", str(gen / "report.json"), "--out", str(again)])
        return code, code_report, gen, again

    def check(self, item: Any, outcome: Any) -> tuple[int, list[str]]:
        code, code_report, gen, again = outcome
        if code or code_report:
            return 0, [f"exit codes: generate {code}, report {code_report}"]
        report = (gen / "report.json").read_bytes()
        if self.tracer is not None:
            self.tracer.count("runner.report_bytes", len(report))
        errors = []
        digest = hashlib.sha256(report).hexdigest()
        if digest != GOLDEN["report_sha256"]:
            errors.append(f"report.json sha256 {digest} differs from the golden digest")
        if _tree(gen) != _tree(again):
            errors.append("report re-emit is not byte-identical to the generate output")
        return GOLDEN["results"], errors

    def shares(self) -> dict[str, Any]:
        return {
            "cells": GOLDEN["results"],
            "skipped_cells": GOLDEN["skips"],
            "not_preserved_share": 0.0,
            "lint_hit_share": 0.0,
        }


class LiveLatency(Workload):
    """``specforge generate --backend live`` against an in-process stub endpoint."""

    name = "live-latency"
    host_factor = None  # the stub's fixed delays and the retry backoff set the time

    def setup(self) -> None:
        templates = prompts.load_templates(prompts.default_template_dir())
        entries = {e.program.name: e for e in runner.load_corpus(self.corpus).entries}
        replies: dict[str, str] = {}
        order: list[tuple[str, str]] = []  # (program/variant, prompt key) in run order
        for cell in sorted(GOLDEN["sample0"]):  # per program: baseline, then eva or pathcrawler
            name, variant = cell.split("/")
            entry = entries[name]
            prompt = prompts.build_prompt(
                templates[PromptVariant(variant)], entry.program, entry.suite, entry.report
            )
            key = prompt_key(prompt.text)
            replies[key] = (self.fixtures / cell / "0.txt").read_text(encoding="utf-8")
            order.append((cell, key))
        # Retried prompts come early in the run, so a retry sleep never ends the
        # study alone and the study time does not depend on which ones the seed picks.
        chosen = random.Random(self.seed).sample(order[:LIVE_RETRY_POOL], LIVE_RETRIED)
        self.retried = sorted(cell for cell, _ in chosen)
        self.stub = Stub(replies, {key for _, key in chosen}).__enter__()
        os.environ.setdefault("SPECFORGE_API_KEY", "perfbench-dummy-key")

    def close(self) -> None:
        gc.collect()  # drop the backends' sessions so the stub's connections close
        self.stub.__exit__(None, None, None)

    def operation(self, item: Any) -> Any:
        out = self._out()
        self.stub.reset()
        code = _quiet([
            "generate", "--corpus", str(self.corpus), "--backend", "live",
            "--base-url", self.stub.base_url, "--samples", str(SAMPLES),
            "--max-inflight", str(INFLIGHT), "--out", str(out),
        ])
        return code, out

    def check(self, item: Any, outcome: Any) -> tuple[int, list[str]]:
        code, out = outcome
        if self.tracer is not None:
            self.tracer.count("gateway.retries", self.stub.retries)
            self.tracer.count("gateway.stub_s", sum(self.stub.own_s) / max(1, len(self.stub.own_s)))
        if code:
            return 0, [f"generate exit code {code}"]
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        errors = []
        if len(report["results"]) != GOLDEN["results"] or len(report["skips"]) != GOLDEN["skips"]:
            errors.append(
                f"{len(report['results'])} results and {len(report['skips'])} skips, "
                f"expected {GOLDEN['results']} and {GOLDEN['skips']}"
            )
        for result in report["results"]:
            cell = f"{result['program_name']}/{result['variant']}"
            where = f"{cell}/{result['sample_index']}"
            if result["status"] != "ok":
                errors.append(f"{where}: status {result['status']}")
                continue
            got = {
                "histogram": result["histogram"],
                "preserved": result["preservation"]["preserved"],
                "lint_rules": [issue["rule"] for issue in result["lint_issues"]],
            }
            if got != GOLDEN["sample0"][cell]:
                errors.append(f"{where}: census {got} != {GOLDEN['sample0'][cell]}")
        if self.stub.retries != LIVE_RETRIED:
            errors.append(f"stub served {self.stub.retries} 503s, expected {LIVE_RETRIED}")
        return len(report["results"]), errors

    def shares(self) -> dict[str, Any]:
        return {
            "cells": GOLDEN["results"],
            "prompts": len(GOLDEN["sample0"]),
            "prompts_with_a_503": self.retried,
            "not_preserved_share": 0.0,
            "lint_hit_share": 0.0,
        }


class RobustnessScale(Workload):
    """Seeded synthetic parents: ``mutate`` each, then ``run`` parent and mutant."""

    name = "robustness-scale"
    pass_s = 13.0

    def setup(self) -> None:
        generated = self.work / "synthetic"
        self.parents = synth.generate(generated, self.seed, ROBUSTNESS_PARENTS)
        self.corpus = generated / "corpus"
        self.cycle = [
            parent
            for copy in range(max(ROBUSTNESS_MIX))
            for parent, copies in zip(self.parents, ROBUSTNESS_MIX)
            if copy < copies
        ]
        self.backend = ReplayBackend(generated / "fixtures")
        self.config = GenerationConfig(samples_per_program=SAMPLES)
        # Looked up through their modules, so a traced run sees these calls.
        self.templates = prompts.load_templates(prompts.default_template_dir())
        loaded = runner.load_corpus(self.corpus)
        self.entries = {e.program.name: e for e in loaded.entries}

    def clean(self) -> None:
        gc.collect()

    def operation(self, parent: synth.Parent) -> Any:
        entries = [self.entries[parent.name], self.entries[parent.mutant_name]]
        mutant, _ = mutation.mutate(entries[0].program, parent.mutation_seed)
        report = runner.run(
            entries, [PromptVariant.BASELINE], self.config, self.backend, self.templates,
            max_workers=INFLIGHT,
        )
        return mutant, report

    def check(self, parent: synth.Parent, outcome: Any) -> tuple[int, list[str]]:
        mutant, report = outcome
        errors = self._check_mutant(parent, mutant)
        cells = {(r.program_name, r.sample_index): r for r in report.results}
        if len(cells) != 2 * SAMPLES:
            errors.append(f"{parent.name}: {len(cells)} cells")
        for program, expected in parent.replies.items():
            for sample, want in enumerate(expected):
                result = cells.get((program, sample))
                where = f"{program}/{sample}"
                if result is None or result.status != "ok":
                    errors.append(f"{where}: missing or not ok")
                    continue
                census = {kind.keyword: n for kind, n in result.histogram.items() if n}
                if census != want.census:
                    errors.append(f"{where}: census {census} != {want.census}")
                if result.preservation.preserved != want.preserved:
                    errors.append(f"{where}: preserved {result.preservation.preserved}")
                rules = [issue.rule.value for issue in result.lint_issues]
                if rules != want.lint_rules:
                    errors.append(f"{where}: lint {rules} != {want.lint_rules}")
        rows = [(r.pairs_compared, r.mean_similarity) for r in report.robustness]
        if len(rows) != 1 or rows[0][0] != SAMPLES or abs(rows[0][1] - parent.similarity) > 1e-12:
            errors.append(f"{parent.name}: robustness {rows}, expected {parent.similarity}")
        return len(report.results), errors

    def _check_mutant(self, parent: synth.Parent, mutant: Any) -> list[str]:
        errors = []
        if mutant.source != parent.mutant_source or mutant.name != parent.mutant_name:
            errors.append(f"{parent.name}: mutate() differs from the generated mutant")
        stored = self.entries[parent.mutant_name].program.origin
        if stored != mutant.origin:
            errors.append(f"{parent.name}: corpus origin {stored} != {mutant.origin}")
        # One splice of one token, found without the code under test.
        a, b = self.entries[parent.name].program.source, mutant.source
        head = len(os.path.commonprefix([a, b]))
        tail = len(os.path.commonprefix([a[head:][::-1], b[head:][::-1]]))
        removed, added = a[head:len(a) - tail], b[head:len(b) - tail]
        if not (removed or added) or not all(_ONE_TOKEN.fullmatch(t) for t in (removed, added)):
            errors.append(f"{parent.name}: mutant is not a one-token edit ({removed!r} -> {added!r})")
        return errors

    def shares(self) -> dict[str, Any]:
        lines = sorted(p.lines for p in self.parents)
        replies = [e for p in self.parents for per in p.replies.values() for e in per]
        return {
            "parents": len(lines),
            "parent_lines_min_median_max": [lines[0], lines[len(lines) // 2], lines[-1]],
            "operations_per_pass_by_size": list(ROBUSTNESS_MIX),
            "largest_contract_requires": max(e.census["requires"] for e in replies),
            "not_preserved_share": sum(not e.preserved for e in replies) / len(replies),
            "lint_hit_share": sum(bool(e.lint_rules) for e in replies) / len(replies),
        }


WORKLOADS = {w.name: w for w in (ReplayStudy, RobustnessScale, LiveLatency)}
