"""Acceptance gate: one test per shipped capability, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.
"""

from __future__ import annotations

import json
import shutil
import time

from conftest import (
    ADPCM_CSV,
    ALIAS5_EVA_EXCERPT,
    CORPUS_DIR,
    FIXTURES_DIR,
    oracle_tokens,
)
from reference_analyzer import _strip_acsl
from specforge import model
from specforge.analyzer import (
    check_code_preserved,
    count_blocks_by_kind,
    lint,
    parse_annotations,
    parse_blocks,
    split_response,
    tokenize,
)
from specforge.cli import main
from specforge.eva import AlarmKind, parse_eva_report
from specforge.gateway import request_digest
from specforge.model import PromptVariant
from specforge.mutation import NoMutationSite, mutate
from specforge.pathcrawler import parse_test_csv
from specforge.prompts import build_prompt


def _passed(number: int, summary: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {summary}")


def test_criterion_1_csv_adapter():
    suite = parse_test_csv(ADPCM_CSV)
    assert len(suite.cases) == 3
    assert len(suite.input_columns) == 4
    assert [case.output for case in suite.cases] == ["0", "0", "1"]
    assert all(case.verdict == "unknown" for case in suite.cases)
    assert suite.raw == ADPCM_CSV

    best = min(_timed(lambda: parse_test_csv(ADPCM_CSV)) for _ in range(20))
    assert best < 1e-3, f"parse took {best * 1e3:.3f} ms"
    _passed(1, f"ADPCM suite parsed, raw text kept verbatim, in {best * 1e6:.0f} us")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_eva_adapter(labels_tritype_eva_report):
    report = parse_eva_report(labels_tritype_eva_report)
    assert len(report.alarms) == 6
    assert all(a.kind is AlarmKind.SIGNED_OVERFLOW for a in report.alarms)
    domains = {d.variable: d.domain for d in report.domains}
    assert domains["triOut"] == "{1; 2; 3; 4}"
    assert domains["__retres"] == "{1; 2; 3; 4}"
    assert report.summary_alarm_count == 6

    excerpt = parse_eva_report(ALIAS5_EVA_EXCERPT)
    assert len(excerpt.alarms) == 5
    writes = [a for a in excerpt.alarms if a.kind is AlarmKind.OUT_OF_BOUNDS_WRITE]
    assert len(writes) == 1
    assert writes[0].assertion == "\\valid(tab + 2)"
    _passed(2, "full report and alarm excerpt parsed with exact counts and domains")


def test_criterion_3_annotation_census(bsearch_annotated, bsearch_annotated_verbose):
    histogram = count_blocks_by_kind(parse_blocks(bsearch_annotated).blocks)
    assert {k.keyword: v for k, v in histogram.items() if v} == {
        "requires": 1,
        "ensures": 1,
        "assigns": 1,
        "loop invariant": 1,
        "loop assigns": 1,
        "loop variant": 1,
    }
    verbose = count_blocks_by_kind(parse_blocks(bsearch_annotated_verbose).blocks)
    assert verbose[model.ASSERT] >= 1
    assert verbose[model.ASSIGNS] >= 8
    _passed(3, "six-clause census exact; verbose listing has >=1 assert, >=8 assigns")


def test_criterion_4_preservation(
    bsearch_annotated, bsearch_annotated_verbose, corpus_load
):
    stripped_a = _strip_acsl(bsearch_annotated)
    stripped_b = _strip_acsl(bsearch_annotated_verbose)
    assert oracle_tokens(stripped_a) == oracle_tokens(stripped_b)

    entries = {e.program.name: e for e in corpus_load.entries}
    pair_count = 0
    for text_path in sorted(FIXTURES_DIR.rglob("*.txt")):
        original = entries[text_path.parts[-3]].program.comparable
        split = split_response(text_path.read_text(encoding="utf-8"))
        assert check_code_preserved(original, parse_blocks(split.code)).preserved, text_path
        pair_count += 1
    assert pair_count >= 24

    mutated = entries["tritype_mutated"].program
    repaired = mutated.source.replace("(i+k <= i)", "(j+k <= i)")
    verdict = check_code_preserved(
        entries["tritype_mutated"].program.comparable, parse_blocks(repaired)
    )
    assert not verdict.preserved
    site_line = next(
        i
        for i, line in enumerate(mutated.source.split("\n"), start=1)
        if "(i+k <= i)" in line
    )
    assert verdict.diff[0].line == site_line
    assert (verdict.diff[0].original, verdict.diff[0].modified) == ("i", "j")
    _passed(
        4,
        f"both recorded listings strip to identical tokens; {pair_count} fixture "
        "pairs preserved; repaired mutant localized",
    )


def test_criterion_5_lint(bsearch_annotated):
    bad_loop = (
        "int f(int n) {\n"
        "  int i = 0;\n"
        "  /*@\n"
        "    @ loop invariant 0 <= i <= n;\n"
        "    @ loop variant n - i;\n"
        "    @ loop assigns i;\n"
        "  */\n"
        "  while (i < n) { i = i + 1; }\n"
        "  return i;\n"
        "}\n"
    )
    issues = lint(parse_blocks(bad_loop))
    assert [i.rule.value for i in issues] == ["variant_before_assigns"]
    assert lint(parse_blocks(bsearch_annotated)) == []
    _passed(5, "variant-before-assigns fires exactly once; recorded listing is clean")


def test_criterion_6_mutation_engine(corpus_load):
    checked = 0
    programs_with_sites = 0
    for entry in corpus_load.entries:
        parent_tokens = oracle_tokens(entry.program.source)
        had_site = False
        for seed in range(100):
            try:
                mutant, record = mutate(entry.program, seed)
            except NoMutationSite:
                break
            had_site = True
            mutant_tokens = oracle_tokens(mutant.source)
            assert len(mutant_tokens) == len(parent_tokens), record
            deltas = [
                (a, b) for a, b in zip(parent_tokens, mutant_tokens) if a != b
            ]
            assert len(deltas) == 1, (entry.program.name, record)
            tokenize(mutant.source)  # lexical validity
            again, record_again = mutate(entry.program, seed)
            assert again.source == mutant.source and record_again == record
            checked += 1
        programs_with_sites += 1 if had_site else 0
    assert programs_with_sites == len(corpus_load.entries)
    assert checked == programs_with_sites * 100
    _passed(
        6,
        f"{checked} mutants over {programs_with_sites} programs: one-token delta, "
        "lexically valid, bit-reproducible",
    )


def test_criterion_7_end_to_end(tmp_path):
    out_dir = tmp_path / "out"
    started = time.perf_counter()
    code = main(
        [
            "generate",
            "--corpus",
            str(CORPUS_DIR),
            "--fixtures",
            str(FIXTURES_DIR),
            "--backend",
            "replay",
            "--samples",
            "3",
            "--out",
            str(out_dir),
        ]
    )
    elapsed = time.perf_counter() - started
    assert code == 0
    assert elapsed < 10.0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["failures"] == {}
    assert (out_dir / "histogram.csv").is_file()

    totals: dict[str, int] = {}
    for histogram in report["aggregate_histograms"].values():
        for keyword, count in histogram.items():
            totals[keyword] = totals.get(keyword, 0) + count
    top_two = sorted(totals, key=lambda k: -totals[k])[:2]
    assert set(top_two) == {"requires", "ensures"}

    # deleting one fixture fails exactly that cell, nothing else
    partial = tmp_path / "fixtures"
    shutil.copytree(FIXTURES_DIR, partial)
    (partial / "alias5" / "eva" / "2.txt").unlink()
    code = main(
        [
            "generate",
            "--corpus",
            str(CORPUS_DIR),
            "--fixtures",
            str(partial),
            "--out",
            str(tmp_path / "out2"),
        ]
    )
    assert code == 1  # failures present, no crash
    damaged = json.loads((tmp_path / "out2" / "report.json").read_text())
    assert damaged["failures"] == {"backend_failed": 1}
    failed = [r for r in damaged["results"] if r["status"] != "ok"]
    assert [(r["program_name"], r["variant"], r["sample_index"]) for r in failed] == [
        ("alias5", "eva", 2)
    ]
    _passed(
        7,
        f"replay study over {len(report['results'])} cells in {elapsed:.2f} s; "
        "requires/ensures lead the census; deleted fixture isolated",
    )


def test_criterion_8_robustness(corpus_load):
    intent = "i+j<=k||j+k<=i||i+k<=j"
    mutated_token_sequence = "i+k<=i"
    recorded = (FIXTURES_DIR / "tritype_mutated" / "baseline" / "0.txt").read_text(
        encoding="utf-8"
    )
    annotations = parse_annotations(parse_blocks(split_response(recorded).code))
    flattened = ["".join(a.clause_text.split()) for a in annotations]
    assert any(intent in clause for clause in flattened)
    assert all(mutated_token_sequence not in clause for clause in flattened)

    # and across every recorded sample for the mutant
    for text_path in sorted((FIXTURES_DIR / "tritype_mutated" / "baseline").glob("*.txt")):
        split = split_response(text_path.read_text(encoding="utf-8"))
        clauses = [
            "".join(a.clause_text.split()) for a in parse_annotations(parse_blocks(split.code))
        ]
        assert all(mutated_token_sequence not in c for c in clauses), text_path

    from specforge.gateway import ReplayBackend
    from specforge.model import GenerationConfig
    from specforge.prompts import load_templates
    from specforge.runner import run

    from conftest import TEMPLATES_DIR

    entries = {e.program.name: e for e in corpus_load.entries}
    rows = run(
        [entries["tritype"], entries["tritype_mutated"]],
        [PromptVariant.BASELINE],
        GenerationConfig(),
        ReplayBackend(FIXTURES_DIR),
        load_templates(TEMPLATES_DIR),
    ).robustness
    assert rows[0].mean_similarity is not None and rows[0].mean_similarity > 0
    _passed(
        8,
        "mutant spec states the intended disjunction, never the mutated "
        f"comparison; pair similarity {rows[0].mean_similarity:.3f}",
    )


def test_criterion_9_prompt_builder(corpus_load, templates):
    entries = {e.program.name: e for e in corpus_load.entries}
    cases = [
        (PromptVariant.BASELINE, entries["binary_search"], ""),
        (PromptVariant.PATHCRAWLER, entries["adpcm"], entries["adpcm"].suite.raw),
        (PromptVariant.EVA, entries["labels_tritype"], entries["labels_tritype"].report.raw),
    ]
    for variant, entry, context in cases:
        first = build_prompt(
            templates[variant],
            entry.program,
            suite=entry.suite if variant is PromptVariant.PATHCRAWLER else None,
            report=entry.report if variant is PromptVariant.EVA else None,
        )
        assert entry.program.source in first.text
        if context:
            assert context in first.text
        for name in ("{program}", "{csv}", "{eva}", "{valid_assigns}", "{invalid_assigns}"):
            assert name not in first.text
        second = build_prompt(
            templates[variant],
            entry.program,
            suite=entry.suite if variant is PromptVariant.PATHCRAWLER else None,
            report=entry.report if variant is PromptVariant.EVA else None,
        )
        assert request_digest(first.text, 0.7, 0) == request_digest(second.text, 0.7, 0)
    _passed(9, "all three variants embed program and context verbatim, byte-stable")
