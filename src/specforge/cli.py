"""specforge command line: generate, parse-tests, parse-eva, mutate, count, lint, report.

Exit codes: 0 success, 1 findings or per-cell failures present, 2
configuration error (bad arguments, missing files, unusable backend).
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import signal
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from .analyzer import (
    NoCodeFence,
    TokenizeError,
    count_by_kind,
    lint as lint_code,
    merge_loop_assigns,
    parse_annotations,
    split_response,
)
from .eva import parse_eva_report
from .gateway import DEFAULT_API_KEY_ENV, LiveBackend, ReplayBackend
from .model import GenerationConfig, PromptVariant, SourceProgram
from .mutation import NoMutationSite, enumerate_sites, mutate
from .pathcrawler import CsvError, parse_test_csv, summarize
from .prompts import TemplateError, default_template_dir, load_templates
from .runner import (
    ConfigError,
    EmptyCorpus,
    emit,
    histogram_to_dict,
    load_corpus,
    load_report,
    run,
)

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_CONFIG = 2
HOOK_TIMEOUT_S = 600.0  # seconds per --run-pathcrawler / --run-eva invocation
HOOK_STDERR_LINES, HOOK_STDERR_CHARS = 3, 500  # stderr kept in a hook's load error


def _print_json(data: object) -> None:
    print(json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False))


def _read_file(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such file: {path}")
    return p.read_text(encoding="utf-8")


def _stderr_tail(stderr: str) -> str:
    """``": "`` and the last non-blank lines of a hook's stderr, bounded; "" if none."""
    lines = [line.strip() for line in stderr.splitlines() if line.strip()]
    tail = " | ".join(lines[-HOOK_STDERR_LINES:])[-HOOK_STDERR_CHARS:]
    return f": {tail}" if tail else ""


def _hook_context(entries, command: str, which: str):
    """Run a user command per program lacking context; capture stdout into the adapter.

    The program source is written to a temporary .c file whose quoted path is
    appended to the command line. Failure or timeout is that entry's load
    error; a failure's error ends with the last lines the hook wrote to stderr.
    """
    patched = []
    for entry in entries:
        needs = entry.suite is None if which == "tests" else entry.report is None
        if not needs:
            patched.append(entry)
            continue
        with tempfile.NamedTemporaryFile(
            "w", suffix=".c", prefix=f"{entry.program.name}-", delete=False
        ) as tmp:
            tmp.write(entry.program.source)
        error = None
        try:
            with subprocess.Popen(
                f"{command} {shlex.quote(tmp.name)}",
                shell=True,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                start_new_session=True,
            ) as proc:
                try:
                    stdout, stderr = proc.communicate(timeout=HOOK_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    os.killpg(proc.pid, signal.SIGKILL)  # the shell and its children
                    raise
            if proc.returncode != 0:
                error = f"{which} hook failed (exit {proc.returncode})" + _stderr_tail(stderr)
            elif which == "tests":
                entry = replace(entry, suite=parse_test_csv(stdout))
            else:
                entry = replace(entry, report=parse_eva_report(stdout))
        except subprocess.TimeoutExpired:
            error = f"{which} hook timed out after {HOOK_TIMEOUT_S:g} s"
        except CsvError as exc:
            error = f"{which} hook: {exc}"
        finally:
            Path(tmp.name).unlink(missing_ok=True)
        if error:
            entry = replace(entry, load_errors=entry.load_errors + (error,))
        patched.append(entry)
    return patched


def _cmd_generate(args: argparse.Namespace) -> int:
    try:
        variants = [PromptVariant.parse(v) for v in args.variants.split(",") if v]
        config = GenerationConfig(
            model_id=args.model,
            temperature=args.temperature,
            samples_per_program=args.samples,
        )
        if args.backend == "replay":
            backend = ReplayBackend(args.fixtures)
        else:
            if not args.base_url:
                raise ConfigError("--base-url is required for the live backend")
            backend = LiveBackend(base_url=args.base_url, api_key_env=args.api_key_env)

        templates = load_templates(args.templates or default_template_dir())
        corpus = load_corpus(args.corpus)
        entries = list(corpus.entries)
        if args.run_pathcrawler:
            entries = _hook_context(entries, args.run_pathcrawler, "tests")
        if args.run_eva:
            entries = _hook_context(entries, args.run_eva, "eva")

        report = run(
            entries,
            variants,
            config,
            backend,
            templates,
            max_workers=args.max_inflight,
        )
        # carry the corpus digest even when entries were patched by hooks
        report = replace(report, corpus_digest=corpus.digest)
    except (ConfigError, EmptyCorpus, TemplateError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    emit(report, args.out, normalize=args.normalize)

    for name, reason in corpus.skipped:
        print(f"skipped corpus entry {name}: {reason}", file=sys.stderr)
    for entry in entries:
        for err in entry.load_errors:
            print(f"load warning [{entry.program.name}]: {err}", file=sys.stderr)
    warned = set()
    for result in report.results:
        for warning in result.prompt_warnings:
            key = (result.program_name, result.variant.value)
            if key not in warned:
                warned.add(key)
                print(
                    f"warning [{result.program_name}/{result.variant.value}]: {warning}",
                    file=sys.stderr,
                )

    failures = report.failures
    ok = sum(1 for r in report.results if r.status == "ok")
    print(
        f"{len(report.results)} results ({ok} ok), "
        f"{len(report.skips)} skipped cells, failures: {failures or 'none'}"
    )
    print(f"report written to {Path(args.out) / 'report.json'}")
    return EXIT_FINDINGS if failures else EXIT_OK


def _cmd_parse_tests(args: argparse.Namespace) -> int:
    try:
        raw = _read_file(args.file)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        suite = parse_test_csv(raw)
    except CsvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FINDINGS
    data = suite.to_dict()
    data["summary"] = summarize(suite).to_dict()
    _print_json(data)
    return EXIT_OK


def _cmd_parse_eva(args: argparse.Namespace) -> int:
    try:
        raw = _read_file(args.file)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _print_json(parse_eva_report(raw).to_dict())
    return EXIT_OK


def _cmd_mutate(args: argparse.Namespace) -> int:
    try:
        source = _read_file(args.file)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    program = SourceProgram(name=Path(args.file).stem, source=source)
    try:
        if args.list_sites:
            sites = enumerate_sites(program)
            _print_json(
                [
                    {
                        "operator": s.operator.value,
                        "line": s.line,
                        "token": s.token,
                        "replacement": s.replacement,
                        "single_token": s.single_token,
                    }
                    for s in sites
                ]
            )
            return EXIT_OK
        mutant, record = mutate(program, args.seed)
    except (NoMutationSite, TokenizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FINDINGS
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{program.name}.mut{record.mutation_id}"
    (out_dir / f"{stem}.c").write_text(mutant.source, encoding="utf-8")
    (out_dir / f"{stem}.json").write_text(
        json.dumps(record.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {out_dir / (stem + '.c')}")
    return EXIT_OK


def _split_if_response(text: str) -> str:
    """Accept either bare C or a full model response with a code fence."""
    if "```" in text:
        try:
            return split_response(text).code
        except NoCodeFence:
            pass
    return text


def _cmd_count(args: argparse.Namespace) -> int:
    try:
        code = _split_if_response(_read_file(args.file))
        histogram = count_by_kind(parse_annotations(code))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TokenizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FINDINGS
    if args.merge_loop_assigns:
        histogram = merge_loop_assigns(histogram)
    if args.csv:
        print("kind,count")
        for keyword, count in histogram_to_dict(histogram).items():
            print(f"{keyword},{count}")
    else:
        _print_json(histogram_to_dict(histogram))
    return EXIT_OK


def _cmd_lint(args: argparse.Namespace) -> int:
    try:
        code = _split_if_response(_read_file(args.file))
        issues = lint_code(code)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TokenizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FINDINGS
    _print_json([i.to_dict() for i in issues])
    return EXIT_FINDINGS if issues else EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        report = load_report(args.infile)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load report: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    emit(report, args.out, normalize=args.normalize)
    print(f"report re-emitted under {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specforge",
        description="Generate and analyze ACSL annotations for C programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run the corpus x variants x samples study")
    gen.add_argument("--corpus", required=True, help="corpus directory")
    gen.add_argument(
        "--variants",
        default="baseline,pathcrawler,eva",
        help="comma-separated prompt variants",
    )
    gen.add_argument("--backend", choices=("replay", "live"), default="replay")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--samples", type=int, default=3)
    gen.add_argument("--temperature", type=float, default=0.7)
    gen.add_argument("--fixtures", default="fixtures", help="replay fixture directory")
    gen.add_argument("--templates", default=None, help="prompt template directory")
    gen.add_argument("--model", default="gpt-4-0125-preview")
    gen.add_argument("--base-url", default=None, help="chat-completion endpoint base URL")
    gen.add_argument("--api-key-env", default=DEFAULT_API_KEY_ENV)
    gen.add_argument("--max-inflight", type=int, default=4)
    gen.add_argument("--normalize", choices=("totals", "per-sample"), default="totals")
    gen.add_argument(
        "--run-pathcrawler",
        default=None,
        metavar="CMD",
        help="command producing test CSV on stdout for programs lacking tests.csv",
    )
    gen.add_argument(
        "--run-eva",
        default=None,
        metavar="CMD",
        help="command producing a value-analysis report on stdout for programs lacking eva.txt",
    )
    gen.set_defaults(func=_cmd_generate)

    pt = sub.add_parser("parse-tests", help="parse a test CSV to JSON")
    pt.add_argument("file")
    pt.set_defaults(func=_cmd_parse_tests)

    pe = sub.add_parser("parse-eva", help="parse a value-analysis report to JSON")
    pe.add_argument("file")
    pe.set_defaults(func=_cmd_parse_eva)

    mu = sub.add_parser("mutate", help="write a seeded single-token mutant")
    mu.add_argument("file")
    mu.add_argument("--seed", type=int, required=True)
    mu.add_argument("--out", default=".")
    mu.add_argument(
        "--list-sites", action="store_true", help="print mutation sites instead"
    )
    mu.set_defaults(func=_cmd_mutate)

    co = sub.add_parser("count", help="annotation-kind histogram for a C file")
    co.add_argument("file")
    co.add_argument("--csv", action="store_true", help="emit kind,count rows")
    co.add_argument(
        "--merge-loop-assigns",
        action="store_true",
        help="fold 'loop assigns' into 'assigns' in the census",
    )
    co.set_defaults(func=_cmd_count)

    li = sub.add_parser("lint", help="structural annotation lint")
    li.add_argument("file")
    li.set_defaults(func=_cmd_lint)

    re = sub.add_parser("report", help="re-emit artifacts from a saved report.json")
    re.add_argument("--in", dest="infile", required=True)
    re.add_argument("--out", required=True)
    re.add_argument("--normalize", choices=("totals", "per-sample"), default="totals")
    re.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
