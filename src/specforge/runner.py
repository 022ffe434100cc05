"""Orchestrate the full study: corpus x prompt variants x samples.

Loads a corpus directory, builds prompts, collects completions through a
gateway backend, analyzes every response (split, census, lint, preservation),
aggregates per-variant histograms and mutant-robustness scores, and persists
everything as deterministic JSON/CSV artifacts. Single-result failures are
recorded, never fatal: one bad cell removes exactly that cell.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import stat
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Generator, Iterable, Iterator, Mapping, Sequence

from .analyzer import (
    Annotation,
    NoCodeFence,
    PreservationVerdict,
    SplitResponse,
    TokenizeError,
    check_code_preserved,
    count_blocks_by_kind,
    parse_annotations,
    parse_blocks,
    scan,
    spec_similarity,
    split_response,
    tokenize,  # not called here; perfbench/spans.py counts calls through it
)
from .analyzer import lint as lint_code
from .analyzer.checks import LintIssue
from .analyzer.lexer import LineFacts
from .eva import EvaReport, parse_eva_report
from .gateway import (
    CompletionBackend,
    CompletionRequest,
    CompletionResponse,
    GatewayError,
    ReplayBackend,
)
from .model import (
    KIND_BY_KEYWORD,
    AnnotationKind,
    CodecError,
    GenerationConfig,
    Origin,
    PromptVariant,
    Record,
    SourceProgram,
    canonical_json,
    csv_text,
    kind_sort_key,
)
from .pathcrawler import CsvError, TestSuite, parse_test_csv
from .prompts import BuiltPrompt, PromptTemplate, build_prompt, missing_context

STATUS_OK = "ok"
STATUS_NO_CODE_FENCE = "no_code_fence"
STATUS_PARSE_FAILED = "parse_failed"
STATUS_BACKEND_FAILED = "backend_failed"

DEFAULT_MAX_WORKERS = 4  # live attempts on the wire at once; a replay run starts no worker
NORMALIZE_MODES = ("totals", "per-sample")  # histogram.csv: sum over samples, or mean per ok one

HOOK_TIMEOUT_S = 600.0  # seconds per tests_hook / eva_hook invocation
HOOK_STDERR_LINES, HOOK_STDERR_CHARS = 3, 500  # stderr kept in a hook's load error

REPLAY_PROVENANCE_NOTE = (
    "replay fixtures are curated recordings standing in for live model output; "
    "live sampling is non-deterministic and will not reproduce them"
)


class ConfigError(RuntimeError):
    """The run cannot start: no corpus, no backend, no templates, or bad options."""


@dataclass(frozen=True, eq=False)
class CorpusEntry:
    """One program plus whatever symbolic context shipped next to it.

    ``load_corpus`` scans each program once, through one line memo shared by
    the whole load. The program keeps that scan's stream as
    ``program.comparable``, which ``mutate`` and the preservation check read,
    and the entry keeps the memo as ``load_lines``, from a copy of which
    ``run`` starts each run's memo. An entry built elsewhere has an empty
    ``load_lines``, and its program is scanned on first use.
    """

    program: SourceProgram
    suite: TestSuite | None = None
    report: EvaReport | None = None
    load_errors: tuple[str, ...] = ()
    provenance: str = "unspecified"
    load_lines: Mapping[tuple[str, int], LineFacts] = field(default_factory=dict, repr=False)


@dataclass(frozen=True, eq=False, repr=False)
class _Meta(Record):
    """The ``meta.json`` keys the runner reads; it ignores every other key."""

    entry_function: str | None = None
    provenance: str = "unspecified"
    origin: Origin = field(default_factory=Origin.original)


@dataclass(frozen=True, eq=False)
class CorpusLoad:
    entries: tuple[CorpusEntry, ...]
    skipped: tuple[tuple[str, str], ...]  # (directory name, reason)
    digest: str  # content hash over every corpus file read


def _unsafe_name(name: str) -> bool:
    """True for a program name that is not one path component (see ``emit``)."""
    return name in ("", ".", "..") or any(c in name for c in "/\\\0")


def _stderr_tail(stderr: bytes) -> str:
    """``": "`` and the last non-blank lines of a hook's stderr, bounded; "" if none."""
    text = stderr.decode("utf-8", errors="replace")
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    tail = " | ".join(lines[-HOOK_STDERR_LINES:])[-HOOK_STDERR_CHARS:]
    return f": {tail}" if tail else ""


def _run_hook(
    command: str, which: str, program: SourceProgram, errors: list[str]
) -> str | None:
    """Run ``command`` on a temporary copy of ``program``, its path appended quoted.

    Returns the hook's stdout, or None after adding its load error to ``errors``:
    the hook failed, timed out, or printed text that is not UTF-8.
    """
    # imported here: a run with no hook, and every other command, never loads them
    import shlex
    import signal
    import subprocess
    import tempfile

    # a whole name may fill the 255-byte file-name limit; 48 characters take at most 192
    fd, path = tempfile.mkstemp(suffix=".c", prefix=f"{program.name[:48]}-")
    try:
        with os.fdopen(fd, "wb") as tmp:  # the program's own bytes, whatever the locale
            tmp.write(program.source.encode("utf-8"))
        with subprocess.Popen(
            f"{command} {shlex.quote(path)}",
            shell=True,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        ) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=HOOK_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)  # the shell and its children
                raise
    except subprocess.TimeoutExpired:
        errors.append(f"{which} hook timed out after {HOOK_TIMEOUT_S:g} s")
        return None
    finally:
        Path(path).unlink(missing_ok=True)
    if proc.returncode != 0:
        errors.append(f"{which} hook failed (exit {proc.returncode})" + _stderr_tail(stderr))
        return None
    try:
        text = stdout.decode("utf-8")
    except UnicodeDecodeError as exc:
        errors.append(f"{which} hook output is not UTF-8: {exc}")
        return None
    # universal newlines, as ``read_text`` gives a context file
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _parse_context(
    parse: Callable[[str], Any], text: str, label: str, errors: list[str]
) -> Any:
    """``parse(text)``, or None with ``"<label>: <reason>"`` added to ``errors``;
    an EVA report whose summary miscounts its alarms is kept, the count added."""
    try:
        parsed = parse(text)
    except CsvError as exc:
        errors.append(f"{label}: {exc}")
        return None
    summary = parsed.summary_alarm_count if isinstance(parsed, EvaReport) else None
    if summary is not None and summary != len(parsed.alarms):
        errors.append(f"{label}: summary counts {summary} alarms, {len(parsed.alarms)} parsed")
    return parsed


def load_corpus(directory: Path | str) -> CorpusLoad:
    """Read ``<dir>/<name>/program.c`` entries with optional tests.csv/eva.txt/meta.json.

    It only reads: no hook runs (see ``run_hooks``). Context that cannot be
    read or parsed is recorded on the entry and left absent; a program that
    cannot be read, is empty, or does not tokenize skips the whole entry
    with a reason. Raises ConfigError when nothing loads.

    Every program is scanned through one line memo, so a line that an
    earlier program held (as a mutant holds its parent's) is not lexed
    again. Each program keeps its stream and each entry the memo (see
    ``CorpusEntry``), so this is the only scan of a loaded program.
    """
    directory = Path(directory)
    entries: list[CorpusEntry] = []
    skipped: list[tuple[str, str]] = []
    hasher = hashlib.sha256()
    lines: dict[tuple[str, int], LineFacts] = {}

    candidates = sorted(
        (p for p in directory.iterdir() if (p / "program.c").is_file())
        if directory.is_dir()
        else []
    )
    for subdir in candidates:
        name = subdir.name
        if _unsafe_name(name):
            skipped.append((name, "directory name is not a usable program name"))
            continue
        errors: list[str] = []
        texts: dict[str, str] = {}
        for filename in ("program.c", "meta.json", "tests.csv", "eva.txt"):
            path = subdir / filename
            if not path.is_file():
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                errors.append(f"{filename}: {exc}")
                continue
            hasher.update(f"{name}/{filename}\x00".encode())
            hasher.update(text.encode("utf-8"))
            texts[filename] = text

        source = texts.get("program.c")
        if not source:  # empty, or unreadable and the first error says why
            skipped.append((name, errors[0] if source is None else "program.c is empty"))
            continue
        try:
            comparable = scan(source, lines)[0]
        except TokenizeError as exc:
            skipped.append((name, f"program.c does not tokenize: {exc}"))
            continue

        meta = _Meta()
        if "meta.json" in texts:
            try:
                meta = _Meta.from_dict(json.loads(texts["meta.json"]))
            except (ValueError, RecursionError) as exc:
                errors.append(f"meta.json: {exc}")
        program = SourceProgram(
            name=name, source=source, entry_function=meta.entry_function, origin=meta.origin
        )
        object.__setattr__(program, "comparable", comparable)  # fills the frozen record's cache

        # Looked up at call time, so a tracer that rebinds these names sees the calls.
        suite = report = None
        if "tests.csv" in texts:
            suite = _parse_context(parse_test_csv, texts["tests.csv"], "tests.csv", errors)
        if "eva.txt" in texts:
            report = _parse_context(parse_eva_report, texts["eva.txt"], "eva.txt", errors)

        entry = CorpusEntry(
            program=program,
            suite=suite,
            report=report,
            load_errors=tuple(errors),
            provenance=meta.provenance,
            load_lines=lines,
        )
        entries.append(entry)

    if not entries:
        raise ConfigError(f"no corpus entries under {directory}")
    return CorpusLoad(
        entries=tuple(entries), skipped=tuple(skipped), digest=hasher.hexdigest()
    )


def run_hooks(corpus: CorpusLoad, tests_hook: str | None, eva_hook: str | None) -> CorpusLoad:
    """``corpus`` with each suite (report) that is None taken from ``tests_hook``
    (``eva_hook``), a shell command run on the entry's program; None runs none.

    The hook's stdout is parsed as tests.csv (eva.txt) would be. Its failure,
    or a parse error labelled ``"tests hook"`` (``"eva hook"``), is appended
    to the entry's load errors. Hook output stays outside the corpus digest.
    Each new entry keeps its old one's ``load_lines``.
    """
    entries = []
    for entry in corpus.entries:
        errors = list(entry.load_errors)
        found = {}
        for which, attr, parse, hook in (
            ("tests", "suite", parse_test_csv, tests_hook),
            ("eva", "report", parse_eva_report, eva_hook),
        ):
            if hook and getattr(entry, attr) is None:
                stdout = _run_hook(hook, which, entry.program, errors)
                if stdout is not None:
                    found[attr] = _parse_context(parse, stdout, f"{which} hook", errors)
        entries.append(replace(entry, load_errors=tuple(errors), **found))
    return replace(corpus, entries=tuple(entries))


def histogram_to_dict(histogram: dict[AnnotationKind, int]) -> dict[str, int]:
    """Histogram keyed by canonical keyword, in canonical order."""
    return {
        kind.keyword: histogram[kind] for kind in sorted(histogram, key=kind_sort_key)
    }


def histogram_from_dict(d: dict[str, int]) -> dict[AnnotationKind, int]:
    if not isinstance(d, dict) or not all(type(n) is int for n in d.values()):  # no bool
        raise CodecError("a histogram maps keywords to counts")
    return {
        KIND_BY_KEYWORD.get(keyword) or AnnotationKind.other(keyword): count
        for keyword, count in d.items()
    }


@dataclass(frozen=True, eq=False, repr=False)
class GenerationResult(Record):
    """Everything learned from one program x variant x sample cell."""

    program_name: str
    variant: PromptVariant
    sample_index: int
    status: str
    status_reason: str | None = None
    response: CompletionResponse | None = None
    split: SplitResponse | None = None
    annotations: tuple[Annotation, ...] = ()
    histogram: dict[AnnotationKind, int] | None = field(
        default=None, metadata={"codec": (histogram_to_dict, histogram_from_dict)}
    )
    lint_issues: tuple[LintIssue, ...] = ()
    preservation: PreservationVerdict | None = None
    prompt_warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if _unsafe_name(self.program_name):  # emit writes generated/<program_name>/
            raise ValueError(f"program name {self.program_name!r} is not one path component")
        if self.status == STATUS_OK and (
            self.histogram is None or self.preservation is None
        ):
            raise ValueError("ok results must carry histogram and preservation")


def sum_histograms(
    histograms: Iterable[dict[AnnotationKind, int]]
) -> dict[AnnotationKind, int]:
    total: dict[AnnotationKind, int] = {}
    for histogram in histograms:
        for kind, count in histogram.items():
            total[kind] = total.get(kind, 0) + count
    return total


@dataclass(frozen=True, eq=False, repr=False)
class RobustnessRow(Record):
    """Mean spec similarity between a parent's and a mutant's sampled specs.

    Samples are paired by index; ``mean_similarity`` is None when no sample
    index succeeded on both sides.
    """

    parent: str
    mutant: str
    variant: PromptVariant
    mean_similarity: float | None
    pairs_compared: int


@dataclass(frozen=True, eq=False, repr=False)
class ExperimentReport(Record):
    config: GenerationConfig
    corpus_digest: str
    backend_kind: str
    results: tuple[GenerationResult, ...]
    skips: tuple[tuple[str, str, str], ...]  # (program, variant, reason)
    robustness: tuple[RobustnessRow, ...]
    notes: tuple[str, ...] = ()

    @cached_property
    def aggregate_histograms(self) -> dict[PromptVariant, dict[AnnotationKind, int]]:
        by_variant: dict[PromptVariant, list[dict[AnnotationKind, int]]] = {}
        for result in self.results:
            if result.status == STATUS_OK and result.histogram is not None:
                by_variant.setdefault(result.variant, []).append(result.histogram)
        return {
            variant: sum_histograms(histograms)
            for variant, histograms in by_variant.items()
        }

    @property
    def failures(self) -> dict[str, int]:
        return dict(Counter(r.status for r in self.results if r.status != STATUS_OK))

    def to_dict(self) -> dict[str, Any]:
        """The codec's encoding plus the per-variant totals and failure counts."""
        aggregates = sorted(self.aggregate_histograms.items(), key=lambda kv: kv[0].value)
        return {
            **super().to_dict(),
            "aggregate_histograms": {v.value: histogram_to_dict(h) for v, h in aggregates},
            "failures": dict(sorted(self.failures.items())),
        }


_Cell = tuple[str, str, int]  # (program name, variant value, sample index)


def _analyze(
    entry: CorpusEntry,
    prompt: BuiltPrompt,
    sample_index: int,
    response: CompletionResponse | GatewayError,
    parsed: dict,
    clause_keys: dict[_Cell, list[tuple[str, ...]]],
) -> GenerationResult:
    """Turn one backend reply, or its failure, into the cell's result.

    ``parsed`` is the run's block-parse dict (see ``parse_blocks``). An ok
    cell's blocks' clause keys go into ``clause_keys``, for the robustness
    rows.
    """
    base: dict[str, Any] = dict(
        program_name=entry.program.name,
        variant=prompt.variant,
        sample_index=sample_index,
        prompt_warnings=prompt.warnings,
    )
    if isinstance(response, GatewayError):
        return GenerationResult(status=STATUS_BACKEND_FAILED, status_reason=str(response), **base)

    try:
        split = split_response(response.text)
    except NoCodeFence as exc:
        return GenerationResult(
            status=STATUS_NO_CODE_FENCE,
            status_reason=str(exc),
            response=response,
            **base,
        )

    try:
        analyzed = parse_blocks(split.code, parsed)  # the reply's only scan
        annotations = tuple(parse_annotations(analyzed))
        histogram = count_blocks_by_kind(analyzed.blocks)
        lint_issues = tuple(lint_code(analyzed))
        preservation = check_code_preserved(entry.program.comparable, analyzed)
    except TokenizeError as exc:
        return GenerationResult(
            status=STATUS_PARSE_FAILED,
            status_reason=str(exc),
            response=response,
            split=split,
            **base,
        )

    clause_keys[entry.program.name, prompt.variant.value, sample_index] = [
        block.clause_keys for block in analyzed.blocks
    ]
    return GenerationResult(
        status=STATUS_OK,
        response=response,
        split=split,
        annotations=annotations,
        histogram=histogram,
        lint_issues=lint_issues,
        preservation=preservation,
        **base,
    )


def _robustness_rows(
    clause_keys: dict[_Cell, list[tuple[str, ...]]],
    pairs: Sequence[tuple[str, str]],
    variants: Sequence[PromptVariant],
) -> list[RobustnessRow]:
    """One row per mutant pair and variant, from each ok cell's blocks' ``clause_keys``."""
    samples = range(max((sample for _, _, sample in clause_keys), default=-1) + 1)
    rows = []
    for parent, mutant in pairs:
        for variant in variants:
            compared, total = 0, 0.0
            for sample in samples:
                a = clause_keys.get((parent, variant.value, sample))
                b = clause_keys.get((mutant, variant.value, sample))
                if a is not None and b is not None:
                    # Added left to right: ``sum`` of floats rounds otherwise
                    # from Python 3.12 on, and the report bytes would differ.
                    total += spec_similarity(
                        Counter(chain.from_iterable(a)), Counter(chain.from_iterable(b))
                    )
                    compared += 1
            rows.append(
                RobustnessRow(
                    parent=parent,
                    mutant=mutant,
                    variant=variant,
                    mean_similarity=total / compared if compared else None,
                    pairs_compared=compared,
                )
            )
    rows.sort(key=lambda r: (r.variant.value, r.parent, r.mutant))
    return rows


def mutant_pairs(entries: Sequence[CorpusEntry]) -> list[tuple[str, str]]:
    """(parent, mutant) name pairs for corpus entries with mutant origin."""
    names = {e.program.name for e in entries}
    pairs = []
    for entry in entries:
        origin = entry.program.origin
        if origin.kind == "mutant" and origin.parent_name in names:
            pairs.append((origin.parent_name, entry.program.name))
    return sorted(pairs)


_Steps = Generator[float, None, CompletionResponse]  # one request's ``attempts``
_Reply = CompletionResponse | GatewayError


class _Dispatch:
    """Each request's reply, or its ``GatewayError``, in request order.

    A job is a request's ``attempts`` generator (see ``CompletionBackend``),
    and one step of it sends one attempt, then delivers the reply or parks
    the request: after a retryable failure the job yields a backoff, and the
    request waits in a heap until then, holding no thread. A parked request
    whose time has come goes before a new one.

    ``max_workers`` threads each loop: take a job and step it. With no
    worker (``max_workers`` 0) the caller takes and steps each job itself,
    in request order, as it reads the replies: a fixture read is a local file
    read, and a thread would only hand it over.

    Leaving the ``with`` block stops new attempts and drops parked retries,
    then joins the workers once their attempts on the wire are done. Any
    exception but ``GatewayError`` from the backend stops the workers too and
    is raised to the caller.
    """

    def __init__(
        self, backend: CompletionBackend, requests: Sequence[CompletionRequest], max_workers: int
    ):
        self._attempts = backend.attempts
        self._requests = requests
        self._workers = min(max_workers, len(requests))
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)  # idle workers wait here
        self._done = threading.Condition(self._lock)  # the caller waits here
        self._parked: list[tuple[float, int, _Steps]] = []  # (resume time, index, steps)
        self._replies: dict[int, _Reply] = {}
        self._sent = 0  # requests taken for their first attempt
        self._stopped = False
        self._error: BaseException | None = None

    def __enter__(self) -> Iterator[_Reply]:
        try:
            for n in range(self._workers):
                thread = threading.Thread(
                    target=self._worker, name=f"specforge-request-{n}", daemon=True
                )
                thread.start()
                self._threads.append(thread)
        except BaseException:
            self.__exit__()
            raise
        return self._in_order()

    def __exit__(self, *exc_info: object) -> None:
        with self._lock:
            self._stop()
        for thread in self._threads:
            thread.join()

    def _stop(self) -> None:
        """Under the lock: no new attempts, and every waiter wakes."""
        self._stopped = True
        self._parked.clear()
        self._work.notify_all()
        self._done.notify_all()

    def _in_order(self) -> Iterator[_Reply]:
        for index in range(len(self._requests)):
            while True:
                with self._lock:
                    if index in self._replies:
                        reply = self._replies.pop(index)
                        break
                    if self._error is not None:
                        raise self._error
                    if self._threads:
                        self._done.wait()
                        continue
                    job = self._take()  # not None: with no worker only an error stops, raised above
                self._step(*job)
            yield reply

    def _take(self) -> tuple[int, _Steps] | None:
        """Under the lock: a due retry, else a new request, else wait; None once stopped."""
        while not self._stopped:
            wait = None
            if self._parked:
                wait = self._parked[0][0] - time.monotonic()
                if wait <= 0:
                    _, index, steps = heapq.heappop(self._parked)
                    return index, steps
            if self._sent < len(self._requests):
                index = self._sent
                self._sent += 1
                return index, self._attempts(self._requests[index])
            # A request parked later has its own worker come back for it.
            self._work.wait(wait)
        return None

    def _worker(self) -> None:
        while True:
            with self._lock:
                job = self._take()
            if job is None:
                return
            self._step(*job)

    def _step(self, index: int, steps: _Steps) -> None:
        """Send one attempt: deliver the reply, park the request, or record a foreign error."""
        try:
            delay = next(steps)
        except StopIteration as finished:
            reply: _Reply = finished.value
        except GatewayError as exc:
            reply = exc
        except BaseException as exc:
            with self._lock:
                if self._error is None:
                    self._error = exc
                self._stop()
            return
        else:
            with self._lock:
                if not self._stopped:
                    heapq.heappush(self._parked, (time.monotonic() + delay, index, steps))
            return
        with self._lock:
            self._replies[index] = reply
            self._done.notify()


def check_run_config(
    variants: Sequence[PromptVariant],
    templates: dict[PromptVariant, PromptTemplate],
    max_workers: int,
) -> None:
    """Raise ConfigError unless ``run`` can start with these options.

    ``variants`` must be non-empty, name each variant once, and each have a
    template; ``max_workers`` must be at least 1. The CLI calls this before
    loading the corpus, so a refused run has run no hook.
    """
    if max_workers < 1:
        raise ConfigError(f"max in-flight requests must be at least 1, got {max_workers}")
    if not variants or len(set(variants)) != len(variants):
        names = [v.value for v in variants]
        raise ConfigError(f"prompt variants must be one or more, none twice; got {names}")
    missing = [v for v in variants if v not in templates]
    if missing:
        raise ConfigError(f"no template loaded for variants: {missing}")


def run(
    corpus: CorpusLoad | Sequence[CorpusEntry],
    variants: Sequence[PromptVariant],
    config: GenerationConfig,
    backend: CompletionBackend,
    templates: dict[PromptVariant, PromptTemplate],
    max_workers: int = DEFAULT_MAX_WORKERS,
) -> ExperimentReport:
    """Generate and analyze every program x variant x sample cell.

    The options must pass ``check_run_config``. Variants whose required
    context is absent for a program are skipped and recorded; per-cell
    failures become result statuses. Robustness rows are computed for every
    corpus mutant whose parent is present.

    The replies share one ``parse_blocks`` dict, made for this call and
    dropped when it returns. It holds the parse of every distinct ACSL
    comment text, moved to each line it was seen at, the last parse at each
    place, and every scanned line, and none outlives it. Its line memo
    starts as a copy of the entries' ``load_lines``, so a reply's code line
    that a loaded program holds at the same depth is not lexed again, while
    the load's memo never grows.

    Requests go out on at most ``max_workers`` worker threads, so at most
    ``max_workers`` attempts are on the wire. A request backing off between
    attempts holds neither: it waits in a heap, and is resent no sooner than
    its backoff, before any new cell once its time has come. Replies are
    analyzed on the calling thread, in order, while later requests are still
    pending. A ``ReplayBackend`` gets no worker: the calling thread reads
    each fixture just before analyzing its reply. Leaving early, by an
    exception or Ctrl-C, sends no new attempt and drops waiting retries;
    attempts on the wire finish first.
    """
    if isinstance(corpus, CorpusLoad):
        entries: Sequence[CorpusEntry] = corpus.entries
        digest = corpus.digest
    else:
        entries = list(corpus)
        digest = ""
    if not entries:
        raise ConfigError("empty corpus")
    check_run_config(variants, templates, max_workers)

    cells: list[tuple[CorpusEntry, BuiltPrompt, int]] = []
    skips: list[tuple[str, str, str]] = []
    for entry in entries:
        for variant in variants:
            reason = missing_context(variant, entry.suite, entry.report)
            if reason:
                skips.append((entry.program.name, variant.value, reason))
                continue
            prompt = build_prompt(
                templates[variant], entry.program, suite=entry.suite, report=entry.report
            )
            cells.extend((entry, prompt, i) for i in range(config.samples_per_program))

    requests = [
        CompletionRequest(prompt=prompt, config=config, sample_index=sample)
        for _, prompt, sample in cells
    ]
    lines: dict[tuple[str, int], LineFacts] = {}
    for memo in {id(e.load_lines): e.load_lines for e in entries}.values():
        lines.update(memo)
    parsed: dict = {"lines": lines}  # block parses and scanned lines of this run's replies
    clause_keys: dict[_Cell, list[tuple[str, ...]]] = {}  # each ok cell's blocks' keys
    replay = isinstance(backend, ReplayBackend)
    with _Dispatch(backend, requests, 0 if replay else max_workers) as replies:
        results = [
            _analyze(*cell, reply, parsed, clause_keys) for cell, reply in zip(cells, replies)
        ]
    results.sort(key=lambda r: (r.program_name, r.variant.value, r.sample_index))

    rows = _robustness_rows(clause_keys, mutant_pairs(entries), variants)
    notes = []
    if replay:
        notes.append(REPLAY_PROVENANCE_NOTE)
    provenances = sorted({e.provenance for e in entries})
    notes.append("corpus provenance: " + ", ".join(provenances))
    return ExperimentReport(
        config=config,
        corpus_digest=digest,
        backend_kind=type(backend).__name__,
        results=tuple(results),
        skips=tuple(skips),
        robustness=tuple(rows),
        notes=tuple(notes),
    )


def emit(
    report: ExperimentReport, directory: Path | str, normalize: str = NORMALIZE_MODES[0]
) -> list[Path]:
    """Write report.json, histogram.csv, robustness.csv, and generated sources.

    ``normalize`` is one of ``NORMALIZE_MODES``: totals (sum over samples) or
    per-sample (mean per successful sample). Emission is deterministic: the
    same report always produces byte-identical files. Before writing anything
    it raises ``ConfigError`` if ``directory`` is not a directory, or if
    ``directory/generated`` holds a file that this report would not write.
    """
    if normalize not in NORMALIZE_MODES:
        modes = " or ".join(map(repr, NORMALIZE_MODES))
        raise ConfigError(f"normalize must be {modes}, got {normalize!r}")
    directory = Path(directory)
    sources = {  # every generated file, and so the only ones generated/ may hold
        _source_path(directory, r.program_name, r.variant, r.sample_index): r.split
        for r in report.results
        if r.status == STATUS_OK and r.split is not None
    }
    _refuse_stale_sources(directory, sources)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def write(path: Path, text: str) -> None:
        path.write_text(text, encoding="utf-8")
        written.append(path)

    write(directory / "report.json", canonical_json(report.to_dict()))

    aggregates = report.aggregate_histograms
    ok_counts = Counter(r.variant for r in report.results if r.status == STATUS_OK)
    kinds = sorted(
        {kind for histogram in aggregates.values() for kind, n in histogram.items() if n},
        key=kind_sort_key,
    )
    rows: list[list[object]] = [["kind", *(f"{v.value}_count" for v in PromptVariant)]]
    for kind in kinds:
        row: list[object] = [kind.keyword]
        for variant in PromptVariant:
            count = aggregates.get(variant, {}).get(kind, 0)
            if normalize == NORMALIZE_MODES[1]:
                ok = ok_counts.get(variant, 0)
                row.append(f"{count / ok:.4f}" if ok else "0")
            else:
                row.append(count)
        rows.append(row)
    write(directory / "histogram.csv", csv_text(rows))

    robustness_rows: list[tuple[object, ...]] = [
        ("parent", "mutant", "variant", "mean_similarity", "pairs_compared")
    ]
    for row in report.robustness:
        value = "" if row.mean_similarity is None else f"{row.mean_similarity:.6f}"
        robustness_rows.append(
            (row.parent, row.mutant, row.variant.value, value, row.pairs_compared)
        )
    write(directory / "robustness.csv", csv_text(robustness_rows))

    made: set[Path] = set()  # each sample directory is created once, not once per sample
    for path, split in sources.items():
        if path.parent not in made:
            path.parent.mkdir(parents=True, exist_ok=True)
            made.add(path.parent)
        write(path, split.code + "\n")

    return written


def _source_path(directory: Path, program: str, variant: PromptVariant, sample: int) -> Path:
    """Where ``emit`` writes the generated source of one cell."""
    return directory / "generated" / program / variant.value / f"{sample}.c"


def _refuse_stale_sources(directory: Path, sources: Iterable[Path]) -> None:
    """Raise ``ConfigError`` if ``directory`` exists but is not a directory, or if
    its ``generated/`` holds a file not among ``sources``.

    Such a file, left by an earlier report, would sit beside a report.json
    that does not account for it. Nothing is deleted: the user's files stay.
    ``sources`` is read only when ``directory`` exists.
    """
    try:
        if not stat.S_ISDIR(directory.stat().st_mode):  # the one stat on a fresh directory
            raise ConfigError(f"output {directory} exists and is not a directory")
    except FileNotFoundError:
        return
    generated = directory / "generated"
    found = (Path(root, name) for root, _, names in os.walk(generated) for name in names)
    allowed = set(sources)
    stale = sorted(path for path in found if path not in allowed)
    if stale:
        raise ConfigError(
            f"{generated} holds {len(stale)} file(s) that this report would not write, "
            f"first {stale[0]}; write the report into an empty directory"
        )


def check_out_dir(
    directory: Path | str,
    programs: Sequence[str],
    variants: Sequence[PromptVariant],
    samples: int,
) -> None:
    """``emit``'s check of ``directory`` against every file a run could write.

    Those are the ``_source_path`` of each of ``programs`` and ``variants``
    and each sample index below ``samples``. The CLI calls it once, after
    reading the corpus and before any hook runs or request is sent, so a
    refused run spends neither.
    """
    directory = Path(directory)
    paths = (  # made only if the directory exists
        _source_path(directory, program, variant, sample)
        for program in programs for variant in variants for sample in range(samples)
    )
    _refuse_stale_sources(directory, paths)


def load_report(path: Path | str) -> ExperimentReport:
    """Read back a report.json written by :func:`emit`."""
    return ExperimentReport.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
