from __future__ import annotations

import csv
import dataclasses
import errno
import hashlib
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import threading
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ADPCM_CSV, ALIAS5_EVA_EXCERPT, CORPUS_DIR, FIXTURES_DIR, TEMPLATES_DIR, load_synth, src_env,
    within,
)
from reference_analyzer import _COMMENTS, _is_acsl, count_by_kind
from specforge import runner
from specforge.analyzer import (
    PreservationVerdict,
    TokenKind,
    parse_blocks,
    split_response,
    tokenize,
)
from specforge.gateway import BackendError, CompletionResponse, ReplayBackend
from specforge.model import AnnotationKind, GenerationConfig, Origin, PromptVariant
from specforge.cli import main
from specforge.prompts import BuiltPrompt, TemplateError, build_prompt, load_templates
from specforge.runner import (
    REPLAY_PROVENANCE_NOTE,
    STATUS_BACKEND_FAILED,
    STATUS_NO_CODE_FENCE,
    STATUS_OK,
    ConfigError,
    ExperimentReport,
    GenerationResult,
    check_out_dir,
    emit,
    load_corpus,
    load_report,
    mutant_pairs,
    run,
    run_hooks,
    sum_histograms,
)

ALL_VARIANTS = list(PromptVariant)
CONFIG = GenerationConfig()


@pytest.fixture(scope="module")
def replay_backend():
    return ReplayBackend(FIXTURES_DIR)


@pytest.fixture(scope="module")
def full_report(corpus_load_module, templates_module, replay_backend):
    return run(corpus_load_module, ALL_VARIANTS, CONFIG, replay_backend, templates_module)


@pytest.fixture(scope="module")
def corpus_load_module():
    return load_corpus(CORPUS_DIR)


@pytest.fixture(scope="module")
def templates_module():
    from specforge.prompts import load_templates

    from conftest import TEMPLATES_DIR

    return load_templates(TEMPLATES_DIR)


# ------------------------------------------------------------------ load_corpus

def test_load_corpus_counts_match_shipped_files(corpus_load_module):
    # independent oracle: count the files actually shipped
    program_dirs = sorted(p for p in CORPUS_DIR.iterdir() if (p / "program.c").is_file())
    csv_count = sum(1 for p in program_dirs if (p / "tests.csv").is_file())
    eva_count = sum(1 for p in program_dirs if (p / "eva.txt").is_file())

    entries = corpus_load_module.entries
    assert len(entries) == len(program_dirs) >= 8
    assert sum(1 for e in entries if e.suite is not None) == csv_count
    assert sum(1 for e in entries if e.report is not None) == eva_count
    assert corpus_load_module.skipped == ()


def test_load_corpus_reads_meta(corpus_load_module):
    by_name = {e.program.name: e for e in corpus_load_module.entries}
    assert by_name["binary_search"].program.entry_function == "testme"
    mutated = by_name["tritype_mutated"].program
    assert mutated.origin.kind == "mutant"
    assert mutated.origin.parent_name == "tritype"
    assert by_name["tritype"].provenance == "curated"
    assert by_name["tritype"].load_errors == ()  # its clarity and complexity keys are ignored


def test_load_corpus_empty_directory(tmp_path):
    with pytest.raises(ConfigError, match="no corpus entries under"):
        load_corpus(tmp_path)


def test_load_corpus_malformed_csv_recorded_not_fatal(tmp_path):
    program = tmp_path / "broken"
    program.mkdir()
    (program / "program.c").write_text("int f(void) { return 0; }\n")
    (program / "tests.csv").write_text("not,a,proper,header\n1,2\n")
    load = load_corpus(tmp_path)
    entry = load.entries[0]
    assert entry.suite is None
    assert entry.load_errors and "tests.csv" in entry.load_errors[0]


@pytest.mark.parametrize(
    "meta",
    ['{"origin": {"kind": "mutant"}}', '{"origin": "mutant"}', '["x"]', '{"provenance": ["x"]}'],
)
def test_load_corpus_malformed_meta_recorded_not_fatal(tmp_path, meta):
    for name in ("broken", "good"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "program.c").write_text("int f(void) { return 0; }\n")
    (tmp_path / "broken" / "meta.json").write_text(meta)
    (tmp_path / "good" / "meta.json").write_text('{"entry_function": "f"}')
    by_name = {e.program.name: e for e in load_corpus(tmp_path).entries}
    broken = by_name["broken"]
    assert len(broken.load_errors) == 1
    assert broken.load_errors[0].startswith("meta.json: ")
    assert broken.program.origin == Origin.original()
    assert by_name["good"].load_errors == ()
    assert by_name["good"].program.entry_function == "f"


def test_load_corpus_untokenizable_program_skipped(tmp_path):
    good = tmp_path / "good"
    good.mkdir()
    (good / "program.c").write_text("int f(void) { return 0; }\n")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "program.c").write_text("int f(void) { /* never closed\n")
    load = load_corpus(tmp_path)
    assert [e.program.name for e in load.entries] == ["good"]
    assert load.skipped[0][0] == "bad"


def _program(root, name, source="int f(void) { return 0; }\n"):
    (root / name).mkdir()
    (root / name / "program.c").write_bytes(
        source if isinstance(source, bytes) else source.encode("utf-8")
    )
    return root / name


@pytest.mark.parametrize(
    "source, reason",
    [("", "program.c is empty"), (b"int f(void) { return '\xff'; }\n", "program.c: 'utf-8'")],
    ids=["empty", "non-utf8"],
)
def test_load_corpus_unreadable_program_skips_only_its_entry(tmp_path, source, reason):
    _program(tmp_path, "good")
    _program(tmp_path, "bad", source)
    load = load_corpus(tmp_path)
    assert [e.program.name for e in load.entries] == ["good"]
    ((name, why),) = load.skipped
    assert name == "bad" and why.startswith(reason)


@pytest.mark.parametrize("filename", ["meta.json", "tests.csv", "eva.txt"])
def test_load_corpus_undecodable_context_file_is_a_load_error(tmp_path, filename):
    program = _program(tmp_path, "p")
    (program / filename).write_bytes(b"\xff\xfe not utf-8\n")
    (entry,) = load_corpus(tmp_path).entries
    assert entry.suite is None and entry.report is None
    assert entry.program.origin == Origin.original()
    (error,) = entry.load_errors
    assert error.startswith(f"{filename}: 'utf-8' codec can't decode")


def _counting_hook(tmp_path, stdout: str) -> tuple[str, Path]:
    """A shell hook that prints ``stdout`` and appends its argument to a log."""
    log = tmp_path / "hook.log"
    hook = tmp_path / "hook.sh"
    hook.write_text(
        f'#!/bin/sh\necho "$1" >> "{log}"\ncat <<\'EOF\'\n{stdout}EOF\n'
    )
    hook.chmod(0o755)
    return str(hook), log


def test_load_corpus_tests_hook_replaces_a_malformed_suite(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    program = _program(corpus, "broken")
    (program / "tests.csv").write_text("not,a,proper,header\n1,2\n")
    hook, log = _counting_hook(tmp_path, "also,not,a,suite\n")
    (entry,) = run_hooks(load_corpus(corpus), tests_hook=hook, eva_hook=None).entries
    assert entry.suite is None
    assert [e.split(":")[0] for e in entry.load_errors] == ["tests.csv", "tests hook"]
    assert len(log.read_text().splitlines()) == 1


def test_load_corpus_tests_hook_skips_a_valid_suite(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (_program(corpus, "valid") / "tests.csv").write_text(ADPCM_CSV)
    _program(corpus, "bare")
    hook, log = _counting_hook(tmp_path, ADPCM_CSV)
    loaded = run_hooks(load_corpus(corpus), tests_hook=hook, eva_hook=None)
    by_name = {e.program.name: e for e in loaded.entries}
    assert by_name["valid"].suite is not None and by_name["bare"].suite is not None
    assert by_name["valid"].load_errors == by_name["bare"].load_errors == ()
    (ran,) = log.read_text().splitlines()
    assert Path(ran).name.startswith("bare-")


def _eva_hook(tmp_path, script: str) -> str:
    hook = tmp_path / "eva_hook.sh"
    hook.write_text("#!/bin/sh\n" + script)
    hook.chmod(0o755)
    return str(hook)


def test_load_corpus_non_utf8_hook_stdout_is_a_load_error(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    _program(corpus, "p")
    _program(corpus, "q")
    hook = _eva_hook(tmp_path, "printf '\\377'\n")
    entries = run_hooks(load_corpus(corpus), tests_hook=None, eva_hook=hook).entries
    assert [e.program.name for e in entries] == ["p", "q"]
    for entry in entries:
        assert entry.report is None
        (error,) = entry.load_errors
        assert error.startswith("eva hook output is not UTF-8: 'utf-8' codec can't decode")


def test_load_corpus_non_utf8_hook_stderr_is_kept_in_the_failure(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    _program(corpus, "p")
    hook = _eva_hook(tmp_path, "printf 'bad \\377 byte\\n' >&2\nexit 3\n")
    (entry,) = run_hooks(load_corpus(corpus), tests_hook=None, eva_hook=hook).entries
    assert entry.report is None
    assert entry.load_errors == ("eva hook failed (exit 3): bad \ufffd byte",)


MISCOUNTED_EVA = ALIAS5_EVA_EXCERPT + "  6 alarms generated by the analysis:\n"  # lists 5


def test_load_corpus_eva_summary_miscount_is_a_load_error(tmp_path):
    (_program(tmp_path, "p") / "eva.txt").write_text(MISCOUNTED_EVA)
    (entry,) = load_corpus(tmp_path).entries
    assert len(entry.report.alarms) == 5 and entry.report.summary_alarm_count == 6
    assert entry.load_errors == ("eva.txt: summary counts 6 alarms, 5 parsed",)


def test_load_corpus_eva_hook_summary_miscount_names_the_hook(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    _program(corpus, "p")
    hook = _eva_hook(tmp_path, f"cat <<'EOF'\n{MISCOUNTED_EVA}EOF\n")
    (entry,) = run_hooks(load_corpus(corpus), tests_hook=None, eva_hook=hook).entries
    assert entry.report is not None
    assert entry.load_errors == ("eva hook: summary counts 6 alarms, 5 parsed",)


def test_load_corpus_eva_report_without_summary_is_no_load_error(tmp_path):
    (_program(tmp_path, "p") / "eva.txt").write_text(ALIAS5_EVA_EXCERPT)
    (entry,) = load_corpus(tmp_path).entries
    assert entry.report.summary_alarm_count is None
    assert entry.load_errors == ()


def test_shipped_corpus_has_no_load_errors(corpus_load_module):
    assert [e.load_errors for e in corpus_load_module.entries if e.load_errors] == []


def test_generate_prints_an_eva_summary_miscount_as_a_load_warning(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (_program(corpus, "p") / "eva.txt").write_text(MISCOUNTED_EVA)
    cell = tmp_path / "fixtures" / "p" / "baseline"
    cell.mkdir(parents=True)
    for index in range(3):
        (cell / f"{index}.txt").write_text("```c\nint f(void) { return 0; }\n```\n")
    code = main(
        [
            "generate", "--corpus", str(corpus), "--fixtures", str(tmp_path / "fixtures"),
            "--variants", "baseline", "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if "load warning" in line]
    assert warnings == ["load warning [p]: eva.txt: summary counts 6 alarms, 5 parsed"]


def test_corpus_digest_tracks_content(tmp_path):
    program = tmp_path / "p"
    program.mkdir()
    (program / "program.c").write_text("int f(void) { return 0; }\n")
    first = load_corpus(tmp_path).digest
    (program / "program.c").write_text("int f(void) { return 1; }\n")
    assert load_corpus(tmp_path).digest != first


# -------------------------------------------------------------------------- run

def test_full_replay_run_shape(full_report, corpus_load_module):
    entries = corpus_load_module.entries
    assert len(full_report.results) <= len(entries) * len(ALL_VARIANTS) * 3
    assert full_report.failures == {}
    assert all(r.status == STATUS_OK for r in full_report.results)
    # skipped cells are exactly the program x variant combos without context
    expected_skips = sum(
        (1 if e.suite is None else 0) + (1 if e.report is None else 0) for e in entries
    )
    assert len(full_report.skips) == expected_skips


def test_every_skip_is_the_reason_build_prompt_refuses(
    full_report, corpus_load_module, templates_module
):
    entries = {e.program.name: e for e in corpus_load_module.entries}
    assert full_report.skips
    for program, variant, reason in full_report.skips:
        entry = entries[program]
        with pytest.raises(TemplateError) as exc:
            build_prompt(
                templates_module[PromptVariant(variant)],
                entry.program,
                suite=entry.suite,
                report=entry.report,
            )
        assert str(exc.value) == reason


def test_aggregate_equals_sum_of_ok_histograms(full_report):
    for variant, aggregate in full_report.aggregate_histograms.items():
        manual = sum_histograms(
            r.histogram
            for r in full_report.results
            if r.variant == variant and r.status == STATUS_OK
        )
        assert aggregate == manual


def test_state_mutation_warning_surfaces_on_results(full_report):
    flagged = {
        (r.program_name, r.variant.value)
        for r in full_report.results
        if r.prompt_warnings
    }
    assert ("apache", "pathcrawler") in flagged
    assert ("bugkpath", "pathcrawler") in flagged


def test_order_insensitivity(corpus_load_module, templates_module, replay_backend):
    entries = list(corpus_load_module.entries)
    shuffled = entries[:]
    random.Random(13).shuffle(shuffled)
    a = run(entries, ALL_VARIANTS, CONFIG, replay_backend, templates_module)
    b = run(shuffled, ALL_VARIANTS, CONFIG, replay_backend, templates_module)
    assert a.aggregate_histograms == b.aggregate_histograms
    assert a.results == b.results


def test_aggregation_linearity(corpus_load_module, templates_module, replay_backend):
    entries = list(corpus_load_module.entries)
    first, second = entries[: len(entries) // 2], entries[len(entries) // 2:]
    whole = run(entries, ALL_VARIANTS, CONFIG, replay_backend, templates_module)
    part_a = run(first, ALL_VARIANTS, CONFIG, replay_backend, templates_module)
    part_b = run(second, ALL_VARIANTS, CONFIG, replay_backend, templates_module)
    for variant in ALL_VARIANTS:
        combined = sum_histograms(
            [
                part_a.aggregate_histograms.get(variant, {}),
                part_b.aggregate_histograms.get(variant, {}),
            ]
        )
        assert combined == whole.aggregate_histograms.get(variant, {})


def test_missing_fixture_isolated_to_one_cell(
    tmp_path, corpus_load_module, templates_module
):
    partial = tmp_path / "fixtures"
    shutil.copytree(FIXTURES_DIR, partial)
    (partial / "adpcm" / "baseline" / "1.txt").unlink()
    report = run(
        corpus_load_module,
        ALL_VARIANTS,
        CONFIG,
        ReplayBackend(partial),
        templates_module,
    )
    failed = [r for r in report.results if r.status != STATUS_OK]
    assert len(failed) == 1
    only = failed[0]
    assert (only.program_name, only.variant.value, only.sample_index) == ("adpcm", "baseline", 1)
    assert only.status == STATUS_BACKEND_FAILED
    assert report.failures == {STATUS_BACKEND_FAILED: 1}


def test_undecodable_fixture_isolated_to_one_cell(
    tmp_path, corpus_load_module, templates_module
):
    partial = tmp_path / "fixtures"
    shutil.copytree(FIXTURES_DIR, partial)
    (partial / "adpcm" / "baseline" / "1.txt").write_bytes(b"```c\n\xff\n```\n")
    report = run(
        corpus_load_module, ALL_VARIANTS, CONFIG, ReplayBackend(partial), templates_module
    )
    (only,) = [r for r in report.results if r.status != STATUS_OK]
    assert (only.program_name, only.variant.value, only.sample_index) == ("adpcm", "baseline", 1)
    assert only.status == STATUS_BACKEND_FAILED


def test_stale_fixtures_fail_every_cell_of_a_changed_template(
    tmp_path, corpus_load_module, replay_backend
):
    templates = tmp_path / "templates"
    shutil.copytree(TEMPLATES_DIR, templates)
    baseline = templates / "baseline.txt"
    text = baseline.read_text(encoding="utf-8")
    assert "family" in text
    baseline.write_text(text.replace("family", "friends", 1), encoding="utf-8")
    report = run(
        corpus_load_module, ALL_VARIANTS, CONFIG, replay_backend, load_templates(templates)
    )
    by_variant = {
        variant: [r for r in report.results if r.variant is variant] for variant in ALL_VARIANTS
    }
    assert len(by_variant[PromptVariant.BASELINE]) == 3 * len(corpus_load_module.entries)
    for result in by_variant[PromptVariant.BASELINE]:
        assert result.status == STATUS_BACKEND_FAILED
        assert result.status_reason.startswith(
            f"stale fixture for {result.program_name}/baseline/{result.sample_index}: "
        )
    others = [r for v in ALL_VARIANTS if v is not PromptVariant.BASELINE for r in by_variant[v]]
    assert others and all(r.status == STATUS_OK for r in others)


def test_malformed_sidecar_isolated_to_one_cell(
    tmp_path, corpus_load_module, templates_module
):
    partial = tmp_path / "fixtures"
    shutil.copytree(FIXTURES_DIR, partial)
    (partial / "adpcm" / "baseline" / "1.json").write_text("{not json")
    report = run(
        corpus_load_module, ALL_VARIANTS, CONFIG, ReplayBackend(partial), templates_module
    )
    (only,) = [r for r in report.results if r.status != STATUS_OK]
    assert (only.program_name, only.variant.value, only.sample_index) == ("adpcm", "baseline", 1)
    assert only.status == STATUS_BACKEND_FAILED
    assert only.status_reason.startswith("cannot read fixture adpcm/baseline/1: ")


def test_variant_subset_runs_only_requested(
    corpus_load_module, templates_module, replay_backend
):
    report = run(
        corpus_load_module, [PromptVariant.EVA], CONFIG, replay_backend, templates_module
    )
    assert {r.variant for r in report.results} == {PromptVariant.EVA}
    eva_capable = sum(1 for e in corpus_load_module.entries if e.report is not None)
    assert len(report.results) == eva_capable * 3


@pytest.mark.parametrize("variants", [[], [PromptVariant.BASELINE, PromptVariant.BASELINE]])
def test_config_error_on_empty_or_repeated_variants(
    corpus_load_module, templates_module, replay_backend, variants
):
    with pytest.raises(ConfigError, match="prompt variants"):
        run(corpus_load_module, variants, CONFIG, replay_backend, templates_module)


@pytest.mark.parametrize("max_workers", [0, -3])
def test_config_error_on_fewer_than_one_worker(
    corpus_load_module, templates_module, replay_backend, max_workers
):
    expected = f"^max in-flight requests must be at least 1, got {max_workers}$"
    with pytest.raises(ConfigError, match=expected):
        run(
            corpus_load_module, ALL_VARIANTS, CONFIG, replay_backend, templates_module,
            max_workers=max_workers,
        )


def test_config_error_on_an_empty_corpus(templates_module, replay_backend):
    with pytest.raises(ConfigError, match="^empty corpus$"):
        run([], ALL_VARIANTS, CONFIG, replay_backend, templates_module)


def test_config_error_on_an_unknown_normalize_mode(full_report, tmp_path):
    with pytest.raises(ConfigError, match="^normalize must be .*, got 'x'$"):
        emit(full_report, tmp_path / "out", normalize="x")
    assert not (tmp_path / "out").exists()


def test_config_error_on_missing_templates(corpus_load_module, replay_backend):
    with pytest.raises(ConfigError):
        run(corpus_load_module, ALL_VARIANTS, CONFIG, replay_backend, templates={})


@pytest.mark.parametrize("name", ["", ".", "..", "../../escaped", "a/b", "a\\b", "a\0b"])
def test_result_rejects_a_program_name_that_is_not_one_path_component(name):
    with pytest.raises(ValueError, match="not one path component"):
        GenerationResult(
            program_name=name,
            variant=PromptVariant.BASELINE,
            sample_index=0,
            status=STATUS_BACKEND_FAILED,
        )


def test_load_corpus_skips_a_directory_name_with_a_backslash(tmp_path):
    shutil.copytree(CORPUS_DIR / "tritype", tmp_path / "tritype")
    shutil.copytree(CORPUS_DIR / "tritype", tmp_path / "tri\\type")
    corpus = load_corpus(tmp_path)
    assert [e.program.name for e in corpus.entries] == ["tritype"]
    assert [name for name, _ in corpus.skipped] == ["tri\\type"]


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(encoding="utf-8", newline="") as f:
        return list(csv.reader(f))


_AWKWARD_NAMES = ["tri,type", 'tri"type', "tri\ntype", "tri\rtype", 'a,"\r\n"b']


@pytest.mark.parametrize("name", _AWKWARD_NAMES)
def test_study_csvs_read_back_with_an_awkward_program_name(tmp_path, templates_module, name):
    corpus, fixtures = tmp_path / "corpus", tmp_path / "fixtures"
    for shipped, renamed in (("tritype", name), ("tritype_mutated", name + "_mutated")):
        shutil.copytree(CORPUS_DIR / shipped, corpus / renamed)
        shutil.copytree(FIXTURES_DIR / shipped, fixtures / renamed)
    meta = corpus / (name + "_mutated") / "meta.json"
    parent = '"parent_name": '
    meta.write_text(meta.read_text().replace(parent + '"tritype"', parent + json.dumps(name)))
    report = run(
        load_corpus(corpus), ALL_VARIANTS, CONFIG, ReplayBackend(fixtures), templates_module
    )
    emit(report, tmp_path / "out")
    rows = _read_csv(tmp_path / "out" / "robustness.csv")
    assert rows[0] == ["parent", "mutant", "variant", "mean_similarity", "pairs_compared"]
    assert [row[:3] for row in rows[1:]] == [
        [name, name + "_mutated", variant] for variant in ("baseline", "eva", "pathcrawler")
    ]
    assert [row[4] for row in rows[1:]] == ["3", "0", "0"]


@pytest.mark.parametrize("keyword", _AWKWARD_NAMES)
def test_histogram_csv_reads_back_with_an_awkward_clause_kind(tmp_path, keyword):
    result = GenerationResult(
        program_name="p",
        variant=PromptVariant.BASELINE,
        sample_index=0,
        status=STATUS_OK,
        histogram={AnnotationKind.other(keyword): 2},
        preservation=PreservationVerdict(preserved=True, diff=()),
    )
    report = ExperimentReport(
        config=CONFIG,
        corpus_digest="",
        backend_kind="test",
        results=(result,),
        skips=(),
        robustness=(),
    )
    emit(report, tmp_path)
    assert _read_csv(tmp_path / "histogram.csv") == [
        ["kind", "baseline_count", "pathcrawler_count", "eva_count"],
        [keyword, "2", "0", "0"],
    ]


def test_result_requires_analysis_when_ok():
    with pytest.raises(ValueError):
        GenerationResult(
            program_name="p",
            variant=PromptVariant.BASELINE,
            sample_index=0,
            status=STATUS_OK,
        )


def test_no_code_fence_status(tmp_path, templates_module, corpus_load_module):
    fixtures = tmp_path / "fixtures"
    target = fixtures / "binary_search" / "baseline"
    target.mkdir(parents=True)
    for index in range(3):
        (target / f"{index}.txt").write_text("prose without any code fence")
    entry = next(
        e for e in corpus_load_module.entries if e.program.name == "binary_search"
    )
    report = run(
        [entry],
        [PromptVariant.BASELINE],
        CONFIG,
        ReplayBackend(fixtures),
        templates_module,
    )
    assert {r.status for r in report.results} == {STATUS_NO_CODE_FENCE}
    assert report.failures == {STATUS_NO_CODE_FENCE: 3}


# ------------------------------------------------------------------- robustness

def test_robustness_rows_present_for_corpus_mutants(full_report):
    pairs = {(r.parent, r.mutant) for r in full_report.robustness}
    assert ("tritype", "tritype_mutated") in pairs
    assert ("levenshtein", "levenshtein_mutated") in pairs


def test_tritype_pair_similarity_positive(full_report):
    row = next(
        r
        for r in full_report.robustness
        if (r.parent, r.mutant, r.variant)
        == ("tritype", "tritype_mutated", PromptVariant.BASELINE)
    )
    assert row.mean_similarity is not None and row.mean_similarity > 0
    assert row.pairs_compared == 3


def test_identical_pair_scores_exactly_one(
    tmp_path, corpus_load_module, templates_module
):
    entry = next(
        e for e in corpus_load_module.entries if e.program.name == "binary_search"
    )
    twin = dataclasses.replace(
        entry,
        program=dataclasses.replace(
            entry.program,
            name="binary_search_twin",
            origin=Origin.mutant("binary_search", "identical"),
        ),
    )
    for name in ("binary_search", "binary_search_twin"):
        shutil.copytree(FIXTURES_DIR / "binary_search", tmp_path / name)
    rows = run(
        [entry, twin],
        [PromptVariant.BASELINE],
        CONFIG,
        ReplayBackend(tmp_path),
        templates_module,
    ).robustness
    assert len(rows) == 1
    assert rows[0].mean_similarity == 1.0


def test_pair_with_all_failures_marked_unavailable(
    tmp_path, corpus_load_module, templates_module
):
    entry_parent = next(
        e for e in corpus_load_module.entries if e.program.name == "tritype"
    )
    entry_mutant = next(
        e for e in corpus_load_module.entries if e.program.name == "tritype_mutated"
    )
    rows = run(
        [entry_parent, entry_mutant],
        [PromptVariant.BASELINE],
        CONFIG,
        ReplayBackend(tmp_path),  # no fixtures at all
        templates_module,
    ).robustness
    assert rows[0].mean_similarity is None
    assert rows[0].pairs_compared == 0


def test_mutant_pairs_only_with_parent_present(corpus_load_module):
    pairs = mutant_pairs(corpus_load_module.entries)
    assert ("tritype", "tritype_mutated") in pairs
    orphan = [e for e in corpus_load_module.entries if e.program.name == "tritype_mutated"]
    assert mutant_pairs(orphan) == []


# ------------------------------------------------------------------------- emit

def _tree(directory):
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def _emit_threads():
    return [t for t in threading.enumerate() if t.name.startswith("specforge-emit-")]


def test_emit_writes_expected_files(full_report, tmp_path):
    written = emit(full_report, tmp_path)
    ok_results = [r for r in full_report.results if r.status == STATUS_OK]
    assert written == [
        tmp_path / "report.json",
        tmp_path / "histogram.csv",
        tmp_path / "robustness.csv",
        *(
            tmp_path / "generated" / r.program_name / r.variant.value / f"{r.sample_index}.c"
            for r in ok_results
        ),
    ]
    assert sorted(_tree(tmp_path)) == sorted(str(p.relative_to(tmp_path)) for p in written)
    assert _emit_threads() == []


def test_emit_is_deterministic(full_report, tmp_path):
    emit(full_report, tmp_path / "a")
    emit(full_report, tmp_path / "b")
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")


# The shipped study's generated/ tree: one sha256 over each file's relative
# path and bytes, in path order. Recorded before the sources were written on
# threads.
SHIPPED_GENERATED_SHA256 = "c84e0ccb1413d4b80a5411898d8721a6b7b03778d93f7d71e7537f8869eae648"


def test_emit_shipped_study_generated_digest(full_report, tmp_path):
    emit(full_report, tmp_path)
    digest = hashlib.sha256()
    for name, data in sorted(_tree(tmp_path / "generated").items()):
        digest.update(name.encode() + b"\0" + data + b"\0")
    assert digest.hexdigest() == SHIPPED_GENERATED_SHA256


def test_an_emit_writer_error_reaches_the_caller(full_report, tmp_path, monkeypatch, capsys):
    cell = next(
        r for r in full_report.results[10:] if r.status == STATUS_OK and r.sample_index == 0
    )
    full_dir = ("generated", cell.program_name, cell.variant.value)
    write_text = Path.write_text

    def full_disk(path, *args, **kwargs):
        if path.parent.parts[-3:] == full_dir:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", full_disk)
    with pytest.raises(OSError) as caught:
        emit(full_report, tmp_path / "lib")
    assert caught.value.errno == errno.ENOSPC
    assert _emit_threads() == []

    out = tmp_path / "cli"
    argv = ["--corpus", str(CORPUS_DIR), "--fixtures", str(FIXTURES_DIR), "--out", str(out)]
    assert main(["generate", *argv]) == 2
    err = capsys.readouterr().err
    first = out.joinpath(*full_dir, "0.c")  # the first write into that directory
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{first}'"
    ]
    assert "Traceback" not in err and "Exception in thread" not in err
    assert _emit_threads() == []


def test_an_interrupted_emit_join_stops_and_joins_the_writers(full_report, tmp_path, monkeypatch):
    # Both writers hold in their first directory until the caller's first
    # join is interrupted; then each may finish that directory, and emit
    # raises only after both have stopped.
    gate = threading.Event()
    started: list[Path] = []
    write_sample_dir = runner._write_sample_dir

    def held(parent, files):
        started.append(parent)
        gate.wait(timeout=60)
        write_sample_dir(parent, files)

    class Interrupted(threading.Thread):
        def join(self, timeout=None):
            if not gate.is_set():
                gate.set()
                raise KeyboardInterrupt
            super().join(timeout)

    monkeypatch.setattr(runner, "_write_sample_dir", held)
    threads = SimpleNamespace(Thread=Interrupted, Event=threading.Event)
    monkeypatch.setattr(runner, "threading", threads)
    with pytest.raises(KeyboardInterrupt):
        emit(full_report, tmp_path)
    assert _emit_threads() == []
    ok = [r for r in full_report.results if r.status == STATUS_OK]
    sample_dirs = {(r.program_name, r.variant) for r in ok}
    assert 0 < len(started) < len(sample_dirs) / 2


# Recorded before the hand-written to_dict methods gave way to the dataclass
# codec; equal to perfbench/golden/replay.json.
SHIPPED_REPORT_SHA256 = "dce26d26446f95880e6b0cf909fcb70a7e2dac528a7908a5a6972d2c5120862b"


def test_emit_shipped_study_report_digest(full_report, tmp_path):
    emit(full_report, tmp_path)
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == SHIPPED_REPORT_SHA256


def _interpreter(python: str) -> str | None:
    """The path of ``python`` if it is on ``PATH`` and starts; a version shim
    may be found and exit 127."""
    found = shutil.which(python)
    if found is None:
        return None
    started = subprocess.run([found, "-c", "pass"], capture_output=True, timeout=60)
    return found if started.returncode == 0 else None


@pytest.mark.parametrize("python", ["python3.10", "python3.12", "python3.13"])
def test_generate_writes_the_shipped_digest_under_another_python(python, tmp_path):
    # From 3.12 on, ``sum`` of floats compensates its rounding error; a mean
    # added that way moves one digit of the shipped report.
    interpreter = _interpreter(python)
    if interpreter is None:
        pytest.skip(f"{python} is not on PATH or does not start")
    proc = subprocess.run(
        [
            interpreter, "-m", "specforge.cli", "generate",
            "--corpus", str(CORPUS_DIR), "--fixtures", str(FIXTURES_DIR), "--out", str(tmp_path),
        ],
        capture_output=True, text=True, env=src_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == SHIPPED_REPORT_SHA256


# The shipped study's CSVs, recorded before one writer replaced the hand-joined rows.
SHIPPED_CSV_SHA256 = {
    ("totals", "histogram.csv"): "0df7da1dad95acee5c53403d6d8d9c0581d17a4560b5cb1336d9d249fb7be506",
    ("per-sample", "histogram.csv"): "847b33edd9564010ddc00ba729f33865fd2c3363fbd8c4dd0901749488014995",
    ("totals", "robustness.csv"): "94d8dc4267843bd8bff1fd94c2537385d6e714f5aa25a3380dd82a4b1c7404dc",
}


@pytest.mark.parametrize("normalize, name", sorted(SHIPPED_CSV_SHA256))
def test_emit_shipped_study_csv_digests(full_report, tmp_path, normalize, name):
    emit(full_report, tmp_path, normalize=normalize)
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == SHIPPED_CSV_SHA256[normalize, name]


def test_report_load_emit_fixed_point(full_report, tmp_path):
    emit(full_report, tmp_path / "first")
    loaded = load_report(tmp_path / "first" / "report.json")
    emit(loaded, tmp_path / "second")
    assert _tree(tmp_path / "first") == _tree(tmp_path / "second")
    assert _emit_threads() == []


def test_emit_refuses_a_directory_holding_another_reports_sources(full_report, tmp_path):
    emit(full_report, tmp_path)
    before = _tree(tmp_path)
    first_samples = dataclasses.replace(
        full_report, results=tuple(r for r in full_report.results if r.sample_index == 0)
    )
    stale = len(full_report.results) - len(first_samples.results)
    with pytest.raises(ConfigError) as caught:
        emit(first_samples, tmp_path)
    message = str(caught.value)
    assert f"holds {stale} file(s)" in message
    assert str(tmp_path / "generated" / "adpcm" / "baseline" / "1.c") in message
    assert _tree(tmp_path) == before  # nothing written, nothing deleted


def test_generate_with_fewer_samples_into_a_used_directory_exits_2(
    tmp_path, capsys, monkeypatch
):
    out = tmp_path / "out"
    common = ["generate", "--corpus", str(CORPUS_DIR), "--fixtures", str(FIXTURES_DIR)]
    assert main([*common, "--samples", "3", "--out", str(out)]) == 0
    before = _tree(out)
    capsys.readouterr()
    sent = []
    complete = ReplayBackend.complete

    def counted(backend, request):
        sent.append(request)
        return complete(backend, request)

    monkeypatch.setattr(ReplayBackend, "complete", counted)
    marker = tmp_path / "hook_ran"  # levenshtein ships no tests.csv, so the hook would run
    hook = ["--run-pathcrawler", f"touch {shlex.quote(str(marker))}"]
    assert main([*common, *hook, "--samples", "1", "--out", str(out)]) == 2
    assert sent == [] and not marker.exists()  # refused before any request or hook
    assert str(out / "generated" / "adpcm" / "baseline" / "1.c") in capsys.readouterr().err
    assert _tree(out) == before


_A_DIRECTORY_IN_THE_WAY = "holds 1 directory(ies) where this report would write a file, first {};"


@pytest.mark.parametrize("command", ["generate", "report"])
@pytest.mark.parametrize(
    "obstacle, is_dir, refusal",
    [
        ("generated/adpcm/baseline/0.c", True, _A_DIRECTORY_IN_THE_WAY),
        ("report.json", True, _A_DIRECTORY_IN_THE_WAY),
        ("generated", False, "{} exists and is not a directory;"),
    ],
    ids=["a-source-dir", "a-report-json-dir", "a-generated-file"],
)
def test_what_stands_where_emit_writes_exits_2(
    command, obstacle, is_dir, refusal, full_report, tmp_path, capsys, monkeypatch
):
    study, out = tmp_path / "study", tmp_path / "out"
    emit(full_report, study)
    in_the_way = out / obstacle
    if is_dir:
        in_the_way.mkdir(parents=True)
    else:
        out.mkdir()
        in_the_way.touch()
    before = sorted(out.rglob("*"))
    sent = []
    complete = ReplayBackend.complete

    def counted(backend, request):
        sent.append(request)
        return complete(backend, request)

    monkeypatch.setattr(ReplayBackend, "complete", counted)
    marker = tmp_path / "hook_ran"  # levenshtein ships no tests.csv, so the hook would run
    argv = {
        "generate": [
            "generate", "--corpus", str(CORPUS_DIR), "--fixtures", str(FIXTURES_DIR),
            "--run-pathcrawler", f"touch {shlex.quote(str(marker))}",
        ],
        "report": ["report", "--in", str(study / "report.json")],
    }[command]
    assert main([*argv, "--out", str(out)]) == 2
    assert sent == [] and not marker.exists()  # refused before any request or hook
    assert refusal.format(in_the_way) in capsys.readouterr().err
    assert sorted(out.rglob("*")) == before  # nothing written, nothing deleted


@pytest.mark.parametrize(
    "name, refused",
    [
        ("f/baseline/0.c", False),
        ("f/pathcrawler/2.c", False),
        ("a name/baseline/1.c", False),
        ("f/baseline/3.c", True),  # beyond --samples 3
        ("f/eva/0.c", True),  # a variant not requested
        ("f/baseline/00.c", True),
        ("f/baseline/+1.c", True),
        ("f/baseline/\u0661.c", True),  # a digit emit never writes
        ("f/baseline/0.txt", True),
        ("baseline/0.c", True),
        ("g/f/baseline/0.c", True),
        ("g/baseline/0.c", True),  # a program not in the corpus
    ],
)
def test_check_out_dir_allows_only_files_a_run_could_write(tmp_path, name, refused):
    path = tmp_path / "generated" / name
    path.parent.mkdir(parents=True)
    path.write_text("int x;\n", encoding="utf-8")
    programs, variants = ["f", "a name"], [PromptVariant.BASELINE, PromptVariant.PATHCRAWLER]
    if refused:
        with pytest.raises(ConfigError, match="holds 1 file"):
            check_out_dir(tmp_path, programs, variants, 3)
    else:
        check_out_dir(tmp_path, programs, variants, 3)
    check_out_dir(tmp_path / "fresh", programs, variants, 3)  # an absent directory is fine
    with pytest.raises(ConfigError, match="exists and is not a directory"):
        check_out_dir(path, programs, variants, 3)


def test_report_re_emits_into_its_own_directory(full_report, tmp_path):
    emit(full_report, tmp_path)
    before = _tree(tmp_path)
    assert main(["report", "--in", str(tmp_path / "report.json"), "--out", str(tmp_path)]) == 0
    assert _tree(tmp_path) == before


def test_emit_into_a_fresh_directory_walks_nothing(full_report, tmp_path, monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("a missing generated/ is walked")

    monkeypatch.setattr(runner.os, "walk", no_walk)
    emit(full_report, tmp_path / "fresh")
    assert len(list((tmp_path / "fresh" / "generated").rglob("*.c"))) == len(full_report.results)


def test_check_out_dir_of_a_fresh_directory_makes_no_path(tmp_path, monkeypatch):
    def no_path(*args):
        raise AssertionError("a path is made for a missing directory")

    monkeypatch.setattr(runner, "_source_path", no_path)
    check_out_dir(tmp_path / "fresh", ["f"], list(PromptVariant), 10**9)


def test_histogram_csv_matches_report_recomputation(full_report, tmp_path):
    emit(full_report, tmp_path)
    # independent recomputation from report.json with plain dict math
    data = json.loads((tmp_path / "report.json").read_text())
    totals: dict[str, dict[str, int]] = {}
    for result in data["results"]:
        if result["status"] != "ok":
            continue
        bucket = totals.setdefault(result["variant"], {})
        for keyword, count in result["histogram"].items():
            bucket[keyword] = bucket.get(keyword, 0) + count

    lines = (tmp_path / "histogram.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == ["kind", "baseline_count", "pathcrawler_count", "eva_count"]
    seen: dict[str, dict[str, int]] = {}
    for line in lines[1:]:
        kind, *counts = line.split(",")
        for variant, count in zip(("baseline", "pathcrawler", "eva"), counts):
            if int(count):
                seen.setdefault(variant, {})[kind] = int(count)
    for variant in ("baseline", "pathcrawler", "eva"):
        nonzero = {k: v for k, v in totals.get(variant, {}).items() if v}
        assert seen.get(variant, {}) == nonzero


def test_emit_per_sample_normalization(full_report, tmp_path):
    emit(full_report, tmp_path, normalize="per-sample")
    lines = (tmp_path / "histogram.csv").read_text().strip().split("\n")
    requires_row = next(line for line in lines if line.startswith("requires,"))
    baseline_value = float(requires_row.split(",")[1])
    ok_baseline = sum(
        1
        for r in full_report.results
        if r.status == STATUS_OK and r.variant is PromptVariant.BASELINE
    )
    total_requires = full_report.aggregate_histograms[PromptVariant.BASELINE][
        next(k for k in full_report.aggregate_histograms[PromptVariant.BASELINE] if k.keyword == "requires")
    ]
    assert baseline_value == pytest.approx(total_requires / ok_baseline, abs=1e-4)


def test_emit_empty_report_headers_only(tmp_path):
    report = ExperimentReport(
        config=CONFIG,
        corpus_digest="",
        backend_kind="ReplayBackend",
        results=(),
        skips=(),
        robustness=(),
    )
    emit(report, tmp_path)
    assert (tmp_path / "histogram.csv").read_text() == (
        "kind,baseline_count,pathcrawler_count,eva_count\n"
    )
    assert (
        tmp_path / "robustness.csv"
    ).read_text() == "parent,mutant,variant,mean_similarity,pairs_compared\n"
    assert not (tmp_path / "generated").exists()


def test_report_json_round_trip(full_report):
    assert ExperimentReport.from_dict(full_report.to_dict()).to_dict() == full_report.to_dict()


def test_no_reply_is_tokenized(monkeypatch, corpus_load_module, templates_module, replay_backend):
    import specforge.analyzer.annotations
    import specforge.analyzer.checks
    import specforge.analyzer.lexer
    import specforge.mutation
    import specforge.runner

    from specforge.analyzer import scan, tokenize

    scanned: list[str] = []  # by the run's line-memo scan
    tokenized: list[str] = []  # into Tokens

    def counting_tokenize(source):
        tokenized.append(source)
        return tokenize(source)

    def counting_scan(source, seen):
        scanned.append(source)
        return scan(source, seen)

    for module in (
        specforge.analyzer.annotations,
        specforge.analyzer.checks,
        specforge.analyzer.lexer,
        specforge.runner,
        specforge.mutation,
    ):
        monkeypatch.setattr(module, "tokenize", counting_tokenize)
    monkeypatch.setattr(specforge.analyzer.annotations, "scan", counting_scan)

    report = run(corpus_load_module, ALL_VARIANTS, CONFIG, replay_backend, templates_module)
    replies = [r.split.code for r in report.results if r.split is not None]
    assert len(replies) == len(report.results) > 50
    assert sorted(scanned) == sorted(replies)  # each reply once, the programs never
    assert tokenized == []


def test_block_parses_are_shared_within_a_run_and_never_across_runs(
    monkeypatch, corpus_load_module, templates_module, replay_backend
):
    import specforge.analyzer.annotations as annotations

    scan = annotations._scan_clauses
    scans: list[str] = []

    def counting_scan(body, line, pos):
        scans.append(body)
        return scan(body, line, pos)

    monkeypatch.setattr(annotations, "_scan_clauses", counting_scan)
    per_run = []
    for _ in range(2):
        before = len(scans)
        report = run(corpus_load_module, ALL_VARIANTS, CONFIG, replay_backend, templates_module)
        per_run.append(len(scans) - before)
    ok = [r for r in report.results if r.status == STATUS_OK]
    comments = sum(1 for r in ok for token in tokenize(r.split.code) if _is_acsl(token))
    keys = set().union(*(_block_keys(r.split.code) for r in ok))
    assert per_run[0] == per_run[1]  # the second run reuses nothing from the first
    assert per_run[0] == len(keys) < comments  # one scan per text, loop head and file scope


def _block_keys(code):
    """Each ACSL comment's (text, heads a loop, at brace depth 0), from ``code``'s tokens."""
    keys = set()
    depth = 0
    tokens = tokenize(code)
    for i, token in enumerate(tokens):
        if _is_acsl(token):
            after = next((t.text for t in tokens[i + 1 :] if t.kind not in _COMMENTS), None)
            keys.add((token.text, after in ("for", "while", "do"), depth == 0))
        elif token.text == "{" and token.kind is TokenKind.PUNCT:
            depth += 1
        elif token.text == "}" and token.kind is TokenKind.PUNCT and depth:
            depth -= 1
    return keys


# Seeded synthetic runs, each repeating comment texts at other lines: the
# seeds guard the clause lines of moved parses.
_SYNTH_SEEDS = (7, 41, 902)


def _cells(report):
    """Each ok cell's annotations, histogram and lint issues, and the robustness rows."""
    cells = [
        (r.program_name, r.variant, r.sample_index, r.annotations, r.histogram, r.lint_issues)
        for r in report.results
        if r.status == STATUS_OK
    ]
    return cells, report.robustness


class _EchoBackend(ReplayBackend):
    """Answers each request with its program's source in a code fence; reads no fixture."""

    def __init__(self, sources):
        super().__init__(FIXTURES_DIR)
        self.sources = sources

    def complete(self, request):
        return CompletionResponse(
            text=f"```c\n{self.sources[request.prompt.program_name]}```\n",
            backend_kind="replay",
            backend_detail="echo",
            latency_ms=0,
            request_digest=request.digest,
        )


def _without_load_memo(corpus):
    """The same load with an empty ``load_lines``."""
    entries = tuple(dataclasses.replace(e, load_lines={}) for e in corpus.entries)
    return dataclasses.replace(corpus, entries=entries)


@pytest.mark.parametrize("corpus", ["shipped", *(f"synthetic seed {s}" for s in _SYNTH_SEEDS)])
def test_a_run_equals_one_that_parses_each_reply_with_a_fresh_memo(
    monkeypatch, tmp_path, templates_module, corpus
):
    if corpus == "shipped":
        entries, backend = load_corpus(CORPUS_DIR), ReplayBackend(FIXTURES_DIR)
        variants = ALL_VARIANTS
    else:
        load_synth(monkeypatch).generate(tmp_path, int(corpus.rpartition(" ")[2]), 7)
        entries = load_corpus(tmp_path / "corpus")
        backend, variants = ReplayBackend(tmp_path / "fixtures"), [PromptVariant.BASELINE]
    config = GenerationConfig(samples_per_program=3)
    shared = run(entries, variants, config, backend, templates_module)
    empty = run(_without_load_memo(entries), variants, config, backend, templates_module)
    assert shared.to_dict() == empty.to_dict()  # the load's memo seeds nothing but speed
    monkeypatch.setattr(runner, "parse_blocks", lambda code, parsed: parse_blocks(code))
    alone = run(entries, variants, config, backend, templates_module)
    assert _cells(shared) == _cells(alone)
    assert any(row.pairs_compared for row in shared.robustness)
    for result in shared.results:
        if result.status == STATUS_OK:  # the census summed from blocks is count_by_kind's
            assert result.histogram == count_by_kind(result.annotations)


# Each line 1, 3 and 6 starts a comment, directive or literal that runs on
# past its end, so no memo holds it.
_RUNS_ON = """/* a header comment
   over two lines */
#define MAX(a, b) \\
  ((a) > (b) ? (a) : (b))
int f(int a, int b) {
  const char *s = "x\\
y";

  return MAX(a, b);
}
"""


def test_a_run_lexes_only_the_code_lines_no_memo_can_hold(
    monkeypatch, tmp_path, templates_module
):
    from specforge.analyzer import lexer

    for path in sorted(CORPUS_DIR.glob("*/program.c")):
        _program(tmp_path, path.parent.name, path.read_text(encoding="utf-8"))
    _program(tmp_path, "runs_on", _RUNS_ON)
    lexed: list[int] = []
    lex = lexer._lex
    monkeypatch.setattr(
        lexer, "_lex", lambda source, pos, line: lexed.append(line) or lex(source, pos, line)
    )
    corpus = load_corpus(tmp_path)
    loaded = len(lexed)
    backend = _EchoBackend({e.program.name: e.program.source for e in corpus.entries})
    config = GenerationConfig(samples_per_program=2)

    def lexes(load):
        del lexed[:]
        report = run(load, [PromptVariant.BASELINE], config, backend, templates_module)
        assert all(r.status == STATUS_OK and r.preservation.preserved for r in report.results)
        return len(lexed)

    # Scanned through a memo that holds its program's lines, a reply's code
    # lexes just the lines that run on.
    unheld = {}
    for name, source in backend.sources.items():
        held: dict = {}
        lexer.scan(source, held)
        del lexed[:]
        lexer.scan(split_response(f"```c\n{source}```\n").code, held)
        unheld[name] = list(lexed)
    assert unheld.pop("runs_on") == [1, 3, 6]
    assert not any(unheld.values())
    assert lexes(corpus) == config.samples_per_program * 3
    # Started empty, a run lexes at least every line that the load lexed.
    assert lexes(_without_load_memo(corpus)) >= loaded > 100


def test_the_load_memo_is_shared_kept_by_hooks_and_never_grows(
    templates_module, replay_backend
):
    corpus = load_corpus(CORPUS_DIR)
    lines = corpus.entries[0].load_lines
    assert lines and all(entry.load_lines is lines for entry in corpus.entries)
    hooked = run_hooks(corpus, tests_hook=None, eva_hook=None)
    assert all(entry.load_lines is lines for entry in hooked.entries)
    size = len(lines)
    for _ in range(2):
        run(hooked, ALL_VARIANTS, CONFIG, replay_backend, templates_module)
        assert len(lines) == size


# A synthetic reply puts each clause on a line of its own: the line opens with
# '/*@', '@' or '//@' and ends the clause with ';', or ':' after a behavior name.
_SYNTH_CLAUSE_LINE = re.compile(r"^\s*(?:/\*@|@|//@)\s*(.*?)\s*[;:]\s*$")


@pytest.mark.parametrize("seed", _SYNTH_SEEDS)
def test_clause_lines_are_the_reply_lines_that_hold_them(
    monkeypatch, tmp_path, templates_module, seed
):
    load_synth(monkeypatch).generate(tmp_path, seed, 7)
    report = run(
        load_corpus(tmp_path / "corpus"),
        [PromptVariant.BASELINE],
        GenerationConfig(samples_per_program=3),
        ReplayBackend(tmp_path / "fixtures"),
        templates_module,
    )
    ok = [r for r in report.results if r.status == STATUS_OK]
    assert len(ok) == len(report.results) == 42
    for result in ok:
        held = [
            (number, " ".join(m.group(1).split()))
            for number, text in enumerate(result.split.code.split("\n"), 1)
            if (m := _SYNTH_CLAUSE_LINE.match(text))
        ]
        parsed = [
            (a.line, " ".join(f"{a.kind.keyword} {a.clause_text}".split()))
            for a in result.annotations
        ]
        assert parsed == held, (result.program_name, result.sample_index)


# ----------------------------------------------------------- whole-cell property

# Reply text: fences, ACSL comment openers and closers, plain comments, ACSL
# keywords, quotes, directives, braces and lines of the shipped programs.
_REPLY_PIECES = [
    "```", "```c\n", "```\n", "\n```\n", "/*@ ", "//@ ", "*/", "/* ", "// ", "\n", " ",
    "requires ", "ensures ", "assigns ", "assert ", "behavior b: ", "assumes ",
    "loop invariant ", "loop assigns ", "loop variant ", "x;", "i < n", ";", ":",
    "\"", "'", "\\", "#", "#define X 1\n", "{", "}", "for (;;) ", "while (x) ",
]
# Whole ACSL comments, so that many replies hold clauses in spite of the rest.
_ACSL_COMMENTS = [
    "/*@ requires x;\n  @ ensures y; */\n", "//@ assert x;\n", "/*@ assigns \\nothing; */ ",
    "/*@ loop invariant i < n;\n    loop assigns i; */\n", "//@ loop variant n - i;\n",
    "/*@ behavior b:\n  @   assumes x;\n  @   ensures y;\n  @ complete behaviors; */\n",
]
_PROGRAM_LINES = sorted(
    {line + "\n" for path in CORPUS_DIR.glob("*/program.c")
     for line in path.read_text(encoding="utf-8").splitlines()}
)
_PIECES = st.lists(
    st.sampled_from(_REPLY_PIECES)
    | st.sampled_from(_ACSL_COMMENTS)
    | st.sampled_from(_PROGRAM_LINES),
    max_size=30,
)
# Most replies fence their code, as models do; the pieces around and inside
# the fence may open, close or break it.
_MIXED_REPLIES = st.builds(
    lambda before, fence, code, after: (
        "".join(before) + "\n" + fence + "".join(code) + "".join(after)
    ),
    st.lists(st.sampled_from(_REPLY_PIECES), max_size=4),
    st.sampled_from(["```c\n", "```\n", ""]),
    _PIECES,
    st.lists(st.sampled_from(_REPLY_PIECES), max_size=4),
)


@cache
def _shared_run() -> tuple[list, dict]:
    """The corpus entries, and one block-parse dict for every example, as a run keeps one.

    Not fixtures: hypothesis prints a failing example's arguments, fixtures
    passed to ``@given`` among them, and the dict soon passes the size at
    which it warns (an error here) instead of showing the example.
    """
    return load_corpus(CORPUS_DIR).entries, {}


@settings(max_examples=200, deadline=None)
@given(cells=st.lists(
    st.tuples(st.integers(0, 99), st.integers(0, 2), _MIXED_REPLIES), min_size=1, max_size=4
))
def test_a_cell_analyzed_through_a_shared_memo_equals_one_analyzed_alone(cells):
    entries, shared_run_memo = _shared_run()
    for entry_index, sample_index, text in cells:
        entry = entries[entry_index % len(entries)]
        prompt = BuiltPrompt(PromptVariant.BASELINE, "prompt", entry.program.name)
        reply = CompletionResponse(text, "replay", "scripted", 0, "digest")
        shared_keys: dict = {}
        result = within(
            10, runner._analyze, entry, prompt, sample_index, reply, shared_run_memo, shared_keys
        )
        alone_keys: dict = {}
        assert result == runner._analyze(entry, prompt, sample_index, reply, {}, alone_keys)
        assert shared_keys == alone_keys
        assert GenerationResult.from_dict(result.to_dict()) == result


# Model text that looks like our syntax: template placeholders, and braces
# left open inside strings, plain comments and ACSL comments. Lines the first
# reply holds as code recur inside comments and a continued directive.
_ADVERSARIAL_PROGRAM = """int f(int x) {
  const char *s = "{program} }";
  if (x > 0) {
    return 1;
  }
  return 0;
}
#define BODY { \\
  return 0;
"""
_ADVERSARIAL_REPLIES = [
    """I kept {program} and {variant} as they were; a stray } here.
```c
/*@ requires x >= 0;
  @ assigns \\nothing; // { left open
  @ ensures \\result == 0 || \\result == 1;
*/
int f(int x) {
  const char *s = "{program} }";
  //@ assert x >= 0; }
  if (x > 0) {
    return 1;
  }
  return 0;
}
/* an earlier draft {
  if (x > 0) {
    return 1;
  }
*/
#define BODY { \\
  return 0;
```
""",
    """{program}
```c
/*@ requires x >= 0;
  if (x > 0) {
    return 1;
  }
*/
int f(int x) {
  const char *s = "{program} {";
  if (x > 0) {
    return 1;
  }
  return 0; /* } */
}
#define BODY { \\
  return 0;
```
""",
]


class _ScriptedBackend(ReplayBackend):
    """Answers sample ``i`` with the ``i``-th of ``replies``; reads no fixture."""

    def __init__(self, replies):
        super().__init__(FIXTURES_DIR)
        self.replies = replies

    def complete(self, request):
        return CompletionResponse(
            text=self.replies[request.sample_index],
            backend_kind="replay",
            backend_detail="scripted",
            latency_ms=0,
            request_digest=request.digest,
        )


def test_replies_that_look_like_our_syntax(monkeypatch, tmp_path, templates_module):
    import specforge.analyzer.annotations as annotations

    _program(tmp_path, "adversarial", _ADVERSARIAL_PROGRAM)
    corpus = load_corpus(tmp_path)
    backend = _ScriptedBackend(_ADVERSARIAL_REPLIES)
    config = GenerationConfig(samples_per_program=2)

    scan = annotations.scan
    seen_lines: dict = {}

    def keeping_seen(source, seen):
        seen_lines.update(seen)  # the lines known before this reply's scan
        return scan(source, seen)

    monkeypatch.setattr(annotations, "scan", keeping_seen)
    report = run(corpus, [PromptVariant.BASELINE], config, backend, templates_module)
    # the second reply was scanned with the first one's code lines at hand
    code_lines = {("int f(int x) {", 0), ("  if (x > 0) {", 1), ("    return 1;", 2), ("  }", 2)}
    assert code_lines <= seen_lines.keys()

    cells = [
        (
            r.status,
            {kind.keyword: n for kind, n in r.histogram.items() if n},
            r.preservation.preserved,
        )
        for r in report.results
    ]
    assert cells == [
        (STATUS_OK, {"requires": 1, "assigns": 1, "ensures": 1, "assert": 1}, True),
        (STATUS_OK, {"requires": 1}, False),
    ]

    monkeypatch.setattr(annotations, "scan", lambda source, seen: scan(source, {}))
    without_memo = run(corpus, [PromptVariant.BASELINE], config, backend, templates_module)
    assert report.to_dict() == without_memo.to_dict()


# ------------------------------------------------------------------ concurrency

class _BarrierBackend:
    """Fixture reads that wait until ``parties`` of them are in flight.

    A plain ``attempts``, not a ``ReplayBackend``, so ``run`` steps it on
    worker threads.
    """

    def __init__(self, parties: int):
        self.replay = ReplayBackend(FIXTURES_DIR)
        self.barrier = threading.Barrier(parties, timeout=10)
        self.lock = threading.Lock()
        self.inflight = 0
        self.peak = 0

    def attempts(self, request):
        yield from ()
        with self.lock:
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
        try:
            self.barrier.wait()
            return self.replay.complete(request)
        finally:
            with self.lock:
                self.inflight -= 1


def test_backend_concurrency_reaches_and_never_exceeds_max_workers(
    corpus_load_module, templates_module
):
    entries = [
        e for e in corpus_load_module.entries if e.program.name in ("binary_search", "tritype")
    ]
    backend = _BarrierBackend(parties=3)
    report = run(
        entries, [PromptVariant.BASELINE], CONFIG, backend, templates_module, max_workers=3
    )
    assert [r.status for r in report.results] == [STATUS_OK] * 6
    assert backend.peak == 3


def test_analysis_runs_on_the_calling_thread(
    monkeypatch, corpus_load_module, templates_module, replay_backend
):
    import specforge.runner

    threads: list[int] = []

    def on_caller(fn):
        def recorded(*args, **kwargs):
            threads.append(threading.get_ident())
            return fn(*args, **kwargs)

        return recorded

    for name in ("parse_blocks", "check_code_preserved"):
        monkeypatch.setattr(specforge.runner, name, on_caller(getattr(specforge.runner, name)))
    report = run(
        corpus_load_module, ALL_VARIANTS, CONFIG, replay_backend, templates_module,
        max_workers=4,
    )
    ok = sum(1 for r in report.results if r.status == STATUS_OK)
    assert len(threads) == 2 * ok
    assert set(threads) == {threading.get_ident()}


def test_backend_error_for_one_sample_fails_exactly_that_cell(
    corpus_load_module, templates_module
):
    class FlakyBackend(ReplayBackend):
        def complete(self, request):
            if request.key == "tritype/eva/1":
                raise BackendError(503, "overloaded")
            return super().complete(request)

    report = run(
        corpus_load_module, ALL_VARIANTS, CONFIG, FlakyBackend(FIXTURES_DIR), templates_module
    )
    failed = [r for r in report.results if r.status != STATUS_OK]
    assert [(r.program_name, r.variant, r.sample_index, r.status) for r in failed] == [
        ("tritype", PromptVariant.EVA, 1, STATUS_BACKEND_FAILED)
    ]
    assert "overloaded" in failed[0].status_reason


def test_replay_note_follows_the_backend_not_its_class_name(
    corpus_load_module, templates_module, replay_backend
):
    class RecordedReplay:  # says replay in its name, is no ReplayBackend
        def attempts(self, request):
            yield from ()
            return replay_backend.complete(request)

    class Curated(ReplayBackend):
        pass

    entries = [e for e in corpus_load_module.entries if e.program.name == "tritype"]
    variants = [PromptVariant.BASELINE]
    named = run(entries, variants, CONFIG, RecordedReplay(), templates_module)
    subclassed = run(entries, variants, CONFIG, Curated(FIXTURES_DIR), templates_module)
    assert REPLAY_PROVENANCE_NOTE not in named.notes
    assert REPLAY_PROVENANCE_NOTE in subclassed.notes
    assert named.results == subclassed.results


def test_prompt_built_once_per_program_and_variant(
    monkeypatch, corpus_load_module, templates_module, replay_backend
):
    import specforge.runner

    built: list[tuple[str, PromptVariant]] = []
    build_prompt = specforge.runner.build_prompt

    def counting_build_prompt(template, program, **context):
        built.append((program.name, template.variant))
        return build_prompt(template, program, **context)

    monkeypatch.setattr(specforge.runner, "build_prompt", counting_build_prompt)
    report = run(
        corpus_load_module, ALL_VARIANTS, CONFIG, replay_backend, templates_module
    )
    cells = {(r.program_name, r.variant) for r in report.results}
    assert sorted(built, key=str) == sorted(cells, key=str)
    assert len(report.results) == len(built) * CONFIG.samples_per_program
