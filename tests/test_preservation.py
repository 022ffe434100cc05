from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES_DIR, oracle_tokens
from reference_analyzer import strip_and_rescan_verdict
from specforge.analyzer import (
    TokenizeError,
    check_code_preserved,
    split_response,
    strip_annotations,
)
from specforge.model import SourceProgram


def test_identical_source_is_preserved(corpus_load):
    for entry in corpus_load.entries:
        verdict = check_code_preserved(entry.program, entry.program.source)
        assert verdict.preserved
        assert verdict.diff == ()


def test_annotated_output_preserves_code(bsearch_annotated, corpus_load):
    programs = {e.program.name: e.program for e in corpus_load.entries}
    verdict = check_code_preserved(programs["binary_search"], bsearch_annotated)
    assert verdict.preserved


def test_both_recorded_listings_strip_to_same_tokens(
    bsearch_annotated, bsearch_annotated_verbose
):
    a = oracle_tokens(strip_annotations(bsearch_annotated))
    b = oracle_tokens(strip_annotations(bsearch_annotated_verbose))
    assert a == b


def test_every_recorded_fixture_preserves_its_program(corpus_load):
    programs = {e.program.name: e.program for e in corpus_load.entries}
    checked = 0
    for text_path in sorted(FIXTURES_DIR.rglob("*.txt")):
        program_name = text_path.parts[-3]
        split = split_response(text_path.read_text(encoding="utf-8"))
        verdict = check_code_preserved(programs[program_name], split.code)
        assert verdict.preserved, (text_path, verdict.diff[:3])
        checked += 1
    assert checked >= 24  # at least 8 programs x 3 samples


def test_silent_repair_detected(corpus_load):
    programs = {e.program.name: e.program for e in corpus_load.entries}
    mutated = programs["tritype_mutated"]
    # a response whose code quietly "fixes" the mutated disjunct
    repaired = mutated.source.replace("(i+k <= i)", "(j+k <= i)")
    assert repaired != mutated.source
    verdict = check_code_preserved(mutated, repaired)
    assert not verdict.preserved
    assert verdict.diff
    first = verdict.diff[0]
    # the mutated token sits on the condition line of the source
    expected_line = next(
        i
        for i, line in enumerate(mutated.source.split("\n"), start=1)
        if "(i+k <= i)" in line
    )
    assert first.line == expected_line
    assert first.original == "i"
    assert first.modified == "j"


def test_whitespace_and_comment_changes_do_not_count():
    program = SourceProgram(name="p", source="int f(int n) {\n  return n + 1;\n}\n")
    reformatted = "/* header */\nint f(int n) { return n + 1; }  // tail\n"
    assert check_code_preserved(program, reformatted).preserved


def test_dropped_statement_detected():
    program = SourceProgram(name="p", source="int f(int n) { n = n + 1; return n; }\n")
    truncated = "int f(int n) { return n; }\n"
    verdict = check_code_preserved(program, truncated)
    assert not verdict.preserved
    assert any("n = n + 1" in run.original.replace(" ", " ") for run in verdict.diff)


def test_diff_run_limit_respected():
    original = SourceProgram(
        name="p", source="".join(f"int v{i} = {i};\n" for i in range(40))
    )
    modified = "".join(f"int v{i} = {i + 1};\n" for i in range(40))
    verdict = check_code_preserved(original, modified, max_diff_runs=10)
    assert not verdict.preserved
    assert len(verdict.diff) == 10


def test_preservation_verdict_json_round_trip(corpus_load):
    from specforge.analyzer import PreservationVerdict

    programs = {e.program.name: e.program for e in corpus_load.entries}
    mutated = programs["tritype_mutated"]
    verdict = check_code_preserved(
        mutated, mutated.source.replace("(i+k <= i)", "(j+k <= i)")
    )
    assert PreservationVerdict.from_dict(verdict.to_dict()) == verdict


# A '#' right after an ACSL comment lexes as a punctuator in the reply, but
# as a directive once the comment is stripped and the '#' starts its line.
HASH_PARENT = SourceProgram(name="p", source="#define N 3\nint f(void) { return N; }\n")
HASH_BODY = "#define N 3\nint f(void) { return N; }\n"


@pytest.mark.parametrize(
    "reply, preserved",
    [
        ("/*@ requires \\true; */ " + HASH_BODY, True),
        ("/*@ requires \\true;\n ensures 1; */" + HASH_BODY, True),
        ("/* c */ " + HASH_BODY, False),
    ],
)
def test_directive_after_comment_verdicts(reply, preserved):
    verdict = check_code_preserved(HASH_PARENT, reply)
    assert verdict.preserved is preserved
    assert verdict == strip_and_rescan_verdict(HASH_PARENT.source, reply)


_PARENTS = [
    HASH_PARENT.source,
    "#define N 3\n#include <a.h>\nint g;\nint f(int a) {\n"
    "  if (a < N) a = a + 1;\n  return a; /* end */\n}\n",
    "/* nothing but a comment */\n",
]
_PREFIXES = [
    "", " ", "\n",
    "/*@ requires \\true; */", "/*@ requires a;\n   ensures 1; */", "/*@ assigns g; */\n",
    "//@ assert a;\n", "/* c */", "/* c\n */", "// c\n", "#", "\\\n",
]
_EDITS = ["a", "b", "<=", "+", "#", "", "/*@ x */", "#define M 1\n"]
_LEXEME_RE = re.compile(r"\w+|\S")


@st.composite
def _replies(draw):
    parent = draw(st.sampled_from(_PARENTS))
    lines = parent.split("\n")
    out = []
    for line in lines:
        prefix = draw(st.sampled_from(_PREFIXES))
        out.append(prefix + draw(st.sampled_from(["", " "])) + line)
    if draw(st.booleans()):  # one-token edit: replace, delete or insert
        i = draw(st.integers(0, len(out) - 1))
        lexemes = list(_LEXEME_RE.finditer(out[i]))
        replacement = draw(st.sampled_from(_EDITS))
        if lexemes:
            m = lexemes[draw(st.integers(0, len(lexemes) - 1))]
            if draw(st.booleans()):
                out[i] = out[i][: m.start()] + replacement + out[i][m.end():]
            else:
                out[i] = out[i][: m.start()] + replacement + " " + out[i][m.start():]
        else:
            out[i] = replacement + out[i]
    return parent, "\n".join(out)


def _outcome(check, *args):
    try:
        return check(*args)
    except TokenizeError as exc:
        return type(exc), exc.line


@settings(max_examples=400, deadline=None)
@given(_replies())
def test_verdict_equals_strip_and_rescan(case):
    parent, reply = case
    program = SourceProgram(name="p", source=parent)
    assert _outcome(check_code_preserved, program, reply) == _outcome(
        strip_and_rescan_verdict, parent, reply
    )
