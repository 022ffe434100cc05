"""gcc's object code as an outside oracle for the preservation verdict.

Comments and layout do not reach the object code under ``-O0 -g0``, so a
cell that reads preserved compiles to its program's bytes, and a cell that
changed a token compiles to other bytes. Each side is compiled alone, under
the same file name in a temporary directory of its own. Runs where gcc is on
``PATH``.
"""

from __future__ import annotations

import shutil
import subprocess
import tempfile
from pathlib import Path

import pytest

from conftest import FIXTURES_DIR
from specforge.analyzer import check_code_preserved, parse_blocks
from specforge.gateway import ReplayBackend
from specforge.model import GenerationConfig, PromptVariant
from specforge.runner import STATUS_OK, run

GCC = shutil.which("gcc")
pytestmark = pytest.mark.skipif(GCC is None, reason="gcc is not on PATH")

NEEDS_HEADER = frozenset({"apache"})  # includes apache.h, which the corpus does not ship


def _object_bytes(source: str) -> bytes:
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
