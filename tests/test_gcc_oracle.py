"""gcc's object code as an outside oracle for the preservation verdict.

Comments and layout do not reach the object code under ``-O0 -g0``, so a
cell that reads preserved compiles to its program's bytes, and a cell that
changed a token compiles to other bytes. Each side is compiled alone, under
the same file name in a temporary directory of its own. The shipped study,
two seeded runs of ``perfbench/synth.py`` and replies with a ``#`` after
comments are checked. Runs where gcc is on ``PATH``.
"""

from __future__ import annotations

import shutil
import subprocess
import tempfile
from pathlib import Path

import pytest

from conftest import FIXTURES_DIR, load_synth, preservation
from specforge.analyzer import check_code_preserved, parse_blocks
from specforge.gateway import ReplayBackend
from specforge.model import GenerationConfig, PromptVariant
from specforge.runner import STATUS_OK, load_corpus, run

GCC = shutil.which("gcc")
pytestmark = pytest.mark.skipif(GCC is None, reason="gcc is not on PATH")

NEEDS_HEADER = frozenset({"apache"})  # includes apache.h, which the corpus does not ship


def _object_bytes(source: str) -> bytes:
    """The object code gcc makes of ``source``; raises CalledProcessError when it refuses."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "program.c").write_text(source, encoding="utf-8")
        subprocess.run(
            [GCC, "-std=c99", "-O0", "-g0", "-w", "-c", "program.c", "-o", "program.o"],
            cwd=tmp, check=True, capture_output=True, timeout=60,
        )
        return (Path(tmp) / "program.o").read_bytes()


@pytest.fixture(scope="module")
def study(corpus_load, templates):
    report = run(
        corpus_load, list(PromptVariant), GenerationConfig(), ReplayBackend(FIXTURES_DIR), templates
    )
    entries = {entry.program.name: entry for entry in corpus_load.entries}
    ok = [r for r in report.results if r.status == STATUS_OK]
    return entries, ok


def test_a_cell_reads_preserved_exactly_when_it_compiles_to_its_programs_bytes(study):
    entries, ok = study
    programs: dict[str, bytes] = {}
    checked = 0
    for result in ok:
        name = result.program_name
        if name in NEEDS_HEADER:
            continue
        if name not in programs:
            programs[name] = _object_bytes(entries[name].program.source)
        same = _object_bytes(result.split.code) == programs[name]
        assert result.preservation.preserved == same, (name, result.variant, result.sample_index)
        checked += 1
    assert checked == 51


def test_a_mutants_cells_differ_from_their_parents_program(study):
    entries, ok = study
    mutants = {
        name: entry.program.origin.parent_name
        for name, entry in entries.items()
        if entry.program.origin.kind == "mutant"
    }
    assert sorted(mutants) == ["levenshtein_mutated", "tritype_mutated"]
    parents = {parent: _object_bytes(entries[parent].program.source) for parent in mutants.values()}
    cells = [r for r in ok if r.program_name in mutants]
    assert cells
    for result in cells:
        parent = entries[mutants[result.program_name]]
        verdict = check_code_preserved(parent.program.comparable, parse_blocks(result.split.code))
        assert not verdict.preserved
        assert _object_bytes(result.split.code) != parents[parent.program.name]


# Synthetic programs gcc refuses: stillborn mutants, whose swapped name
# subscripts a scalar (p00) or is not declared where it now stands (p03).
_REFUSED = {
    41: [
        "p00.mut-variable_substitution-l11-s828133548",
        "p03.mut-variable_substitution-l206-s229161273",
    ],
    902: [],
}


@pytest.mark.parametrize("seed, agreed", [(41, 36), (902, 42)])
def test_a_synthetic_cell_reads_preserved_exactly_when_it_compiles_to_its_programs_bytes(
    monkeypatch, tmp_path, templates, seed, agreed
):
    load_synth(monkeypatch).generate(tmp_path, seed, 7)
    report = run(
        load_corpus(tmp_path / "corpus"),
        [PromptVariant.BASELINE],
        GenerationConfig(samples_per_program=3),
        ReplayBackend(tmp_path / "fixtures"),
        templates,
    )
    ok = [r for r in report.results if r.status == STATUS_OK]
    assert len(ok) == len(report.results) == 42
    programs: dict[str, bytes | None] = {}
    for name in sorted({r.program_name for r in ok}):
        try:
            programs[name] = _object_bytes((tmp_path / "corpus" / name / "program.c").read_text())
        except subprocess.CalledProcessError:
            programs[name] = None
    assert sorted(name for name, code in programs.items() if code is None) == _REFUSED[seed]
    checked = 0
    for result in ok:
        program = programs[result.program_name]
        if program is None:
            continue
        same = _object_bytes(result.split.code) == program
        assert result.preservation.preserved == same, (result.program_name, result.sample_index)
        checked += 1
    assert checked == agreed


# A '#' with only comments before it on its line starts a directive, as
# comments are one space by then in C (translation phase 3); after code it
# is a stray '#', which gcc refuses.
_HASH_PROGRAM = "int g;\n#define N 3\nint f(void) { return N; }\n"
_HASH_REST = "#define N 3\nint f(void) { return N; }\n"


@pytest.mark.parametrize(
    "reply, preserved",
    [
        ("int g;\n/* c */ " + _HASH_REST, True),
        ("int g;\n/*@ requires \\true; */ " + _HASH_REST, True),
        # a comment that opens at a line start and closes on the '#'s line
        ("int g;\n/*@ requires \\true;\n    ensures \\result == 3; */ " + _HASH_REST, True),
        ("int g;\n  /* a\n   b */" + _HASH_REST, True),
        # code, then such a comment, then the '#'
        ("int g; /*@ requires \\true;\n    ensures \\result == 3; */ " + _HASH_REST, False),
        ("int g; /* c */ " + _HASH_REST, False),
        # two comments before the '#'
        ("int g;\n/* a */ /*@ requires \\true; */ " + _HASH_REST, True),
        ("int g;\n/* a\n */ /*@ requires \\true;\n */ " + _HASH_REST, True),
    ],
)
def test_a_hash_after_comments_reads_preserved_exactly_when_gcc_gives_the_programs_bytes(
    reply, preserved
):
    try:
        same = _object_bytes(reply) == _object_bytes(_HASH_PROGRAM)
    except subprocess.CalledProcessError:  # a stray '#'
        same = False
    assert same is preserved
    assert preservation(_HASH_PROGRAM, reply).preserved is preserved
