"""specforge command line: generate, parse-tests, parse-eva, mutate, count, lint, report.

Exit codes: 0 success, 1 findings or per-cell failures present, 2
configuration error (bad arguments, unreadable inputs or unwritable outputs,
unusable backend). Handlers raise; only :func:`main` turns an error into an
``error: …`` line and an exit code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analyzer import (
    NoCodeFence,
    TokenizeError,
    count_blocks_by_kind,
    lint as lint_code,
    merge_loop_assigns,
    parse_blocks,
    split_response,
)
from .eva import parse_eva_report
from .gateway import DEFAULT_API_KEY_ENV, LiveBackend, ReplayBackend
from .model import (
    GenerationConfig,
    NoMutationSite,
    PromptVariant,
    SourceProgram,
    canonical_json,
    csv_text,
)
from .pathcrawler import CsvError, parse_test_csv, summarize
from .prompts import TemplateError, default_template_dir, load_templates
from .runner import (
    DEFAULT_MAX_WORKERS,
    NORMALIZE_MODES,
    STATUS_OK,
    ConfigError,
    check_out_dir,
    check_run_config,
    emit,
    histogram_to_dict,
    load_corpus,
    load_report,
    run,
    run_hooks,
)

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_CONFIG = 2


def _read_file(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such file: {path}")
    return p.read_text(encoding="utf-8")


def _cmd_generate(args: argparse.Namespace) -> int:
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
    check_run_config(variants, templates, args.max_inflight)
    check_out_dir(args.out)  # no sources: generated/ must be absent or empty
    corpus = load_corpus(args.corpus)  # reads files only
    corpus = run_hooks(  # the costly step, once every check has passed
        corpus,
        tests_hook=args.run_pathcrawler if PromptVariant.PATHCRAWLER in variants else None,
        eva_hook=args.run_eva if PromptVariant.EVA in variants else None,
    )
    report = run(corpus, variants, config, backend, templates, max_workers=args.max_inflight)
    emit(report, args.out, normalize=args.normalize)

    for name, reason in corpus.skipped:
        print(f"skipped corpus entry {name}: {reason}", file=sys.stderr)
    for entry in corpus.entries:
        for err in entry.load_errors:
            print(f"load warning [{entry.program.name}]: {err}", file=sys.stderr)
    # every sample of a (program, variant) cell shares its prompt and warnings
    by_cell = {(r.program_name, r.variant.value): r.prompt_warnings for r in report.results}
    for (program, variant), warnings in by_cell.items():
        for warning in warnings:
            print(f"warning [{program}/{variant}]: {warning}", file=sys.stderr)

    failures = report.failures
    ok = sum(1 for r in report.results if r.status == STATUS_OK)
    print(
        f"{len(report.results)} results ({ok} ok), "
        f"{len(report.skips)} skipped cells, failures: {failures or 'none'}"
    )
    print(f"report written to {Path(args.out) / 'report.json'}")
    return EXIT_FINDINGS if failures else EXIT_OK


def _cmd_parse_tests(args: argparse.Namespace) -> int:
    suite = parse_test_csv(_read_file(args.file))
    data = suite.to_dict()
    data["summary"] = summarize(suite).to_dict()
    sys.stdout.write(canonical_json(data))
    return EXIT_OK


def _cmd_parse_eva(args: argparse.Namespace) -> int:
    sys.stdout.write(canonical_json(parse_eva_report(_read_file(args.file)).to_dict()))
    return EXIT_OK


def _cmd_mutate(args: argparse.Namespace) -> int:
    from .mutation import enumerate_sites, mutate  # only this command needs it

    program = SourceProgram(name=Path(args.file).stem, source=_read_file(args.file))
    if args.list_sites:
        sites = [
            {
                "operator": s.operator.value,
                "line": s.line,
                "token": s.token,
                "replacement": s.replacement,
                "single_token": s.single_token,
            }
            for s in enumerate_sites(program)
        ]
        sys.stdout.write(canonical_json(sites))
        return EXIT_OK
    if args.seed is None:
        raise ConfigError("--seed is required to draw a mutant")
    mutant, record = mutate(program, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{mutant.name}.c").write_text(mutant.source, encoding="utf-8")
    (out_dir / f"{mutant.name}.json").write_text(canonical_json(record.to_dict()), encoding="utf-8")
    print(f"wrote {out_dir / (mutant.name + '.c')}")
    return EXIT_OK


def _split_if_response(text: str) -> str:
    """Accept either bare C or a full model response with a code fence."""
    try:
        return split_response(text).code
    except NoCodeFence:
        return text


def _cmd_count(args: argparse.Namespace) -> int:
    analyzed = parse_blocks(_split_if_response(_read_file(args.file)))
    histogram = count_blocks_by_kind(analyzed.blocks)
    if args.merge_loop_assigns:
        histogram = merge_loop_assigns(histogram)
    if args.csv:
        sys.stdout.write(csv_text([("kind", "count"), *histogram_to_dict(histogram).items()]))
    else:
        sys.stdout.write(canonical_json(histogram_to_dict(histogram)))
    return EXIT_OK


def _cmd_lint(args: argparse.Namespace) -> int:
    issues = lint_code(parse_blocks(_split_if_response(_read_file(args.file))))
    sys.stdout.write(canonical_json([i.to_dict() for i in issues]))
    return EXIT_FINDINGS if issues else EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        report = load_report(args.infile)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot load report: {exc}") from exc
    emit(report, args.out, normalize=args.normalize)
    print(f"report re-emitted under {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specforge",
        description="Generate and analyze ACSL annotations for C programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = GenerationConfig()

    gen = sub.add_parser("generate", help="run the corpus x variants x samples study")
    gen.add_argument("--corpus", required=True, help="corpus directory")
    gen.add_argument(
        "--variants",
        default=",".join(v.value for v in PromptVariant),
        help="comma-separated prompt variants, each at most once",
    )
    gen.add_argument("--backend", choices=("replay", "live"), default="replay")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--samples", type=int, default=defaults.samples_per_program)
    gen.add_argument("--temperature", type=float, default=defaults.temperature)
    gen.add_argument("--fixtures", default="fixtures", help="replay fixture directory")
    gen.add_argument("--templates", default=None, help="prompt template directory")
    gen.add_argument("--model", default=defaults.model_id)
    gen.add_argument("--base-url", default=None, help="chat-completion endpoint base URL")
    gen.add_argument("--api-key-env", default=DEFAULT_API_KEY_ENV)
    gen.add_argument(
        "--max-inflight",
        type=int,
        default=DEFAULT_MAX_WORKERS,
        help="live requests on the wire at once; a replay run reads its fixtures "
        "on the calling thread",
    )
    gen.add_argument("--normalize", choices=NORMALIZE_MODES, default=NORMALIZE_MODES[0])
    gen.add_argument(
        "--run-pathcrawler",
        default=None,
        metavar="CMD",
        help="command producing test CSV on stdout for programs lacking tests.csv "
        "(run only when the pathcrawler variant is requested)",
    )
    gen.add_argument(
        "--run-eva",
        default=None,
        metavar="CMD",
        help="command producing a value-analysis report on stdout for programs lacking eva.txt "
        "(run only when the eva variant is requested)",
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
    mu.add_argument("--seed", type=int, help="required unless --list-sites")
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
    re.add_argument("--normalize", choices=NORMALIZE_MODES, default=NORMALIZE_MODES[0])
    re.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the only place an error becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CsvError, NoMutationSite, TokenizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FINDINGS
    except (ConfigError, TemplateError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
