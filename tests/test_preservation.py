from __future__ import annotations

import re
from difflib import SequenceMatcher

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES_DIR, oracle_tokens, preservation
from reference_analyzer import strip_and_rescan_verdict
from specforge.analyzer import (
    DiffRun,
    TokenizeError,
    check_code_preserved,
    parse_blocks,
    split_response,
    strip_annotations,
)
from specforge.analyzer import checks
from specforge.model import SourceProgram


def test_identical_source_is_preserved(corpus_load):
    for entry in corpus_load.entries:
        verdict = check_code_preserved(entry.program.comparable, parse_blocks(entry.program.source))
        assert verdict.preserved
        assert verdict.diff == ()


def test_annotated_output_preserves_code(bsearch_annotated, corpus_load):
    entries = {e.program.name: e for e in corpus_load.entries}
    verdict = check_code_preserved(
        entries["binary_search"].program.comparable, parse_blocks(bsearch_annotated)
    )
    assert verdict.preserved


def test_both_recorded_listings_strip_to_same_tokens(
    bsearch_annotated, bsearch_annotated_verbose
):
    a = oracle_tokens(strip_annotations(bsearch_annotated))
    b = oracle_tokens(strip_annotations(bsearch_annotated_verbose))
    assert a == b


def test_every_recorded_fixture_preserves_its_program(corpus_load):
    entries = {e.program.name: e for e in corpus_load.entries}
    checked = 0
    for text_path in sorted(FIXTURES_DIR.rglob("*.txt")):
        program_name = text_path.parts[-3]
        split = split_response(text_path.read_text(encoding="utf-8"))
        verdict = check_code_preserved(
            entries[program_name].program.comparable, parse_blocks(split.code)
        )
        assert verdict.preserved, (text_path, verdict.diff[:3])
        checked += 1
    assert checked >= 24  # at least 8 programs x 3 samples


def test_silent_repair_detected(corpus_load):
    programs = {e.program.name: e.program for e in corpus_load.entries}
    mutated = programs["tritype_mutated"]
    # a response whose code quietly "fixes" the mutated disjunct
    repaired = mutated.source.replace("(i+k <= i)", "(j+k <= i)")
    assert repaired != mutated.source
    verdict = preservation(mutated.source, repaired)
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
    assert preservation(program.source, reformatted).preserved


def test_dropped_statement_detected():
    program = SourceProgram(name="p", source="int f(int n) { n = n + 1; return n; }\n")
    truncated = "int f(int n) { return n; }\n"
    verdict = preservation(program.source, truncated)
    assert not verdict.preserved
    assert any("n = n + 1" in run.original.replace(" ", " ") for run in verdict.diff)


def test_diff_run_limit_respected(monkeypatch):
    original = SourceProgram(
        name="p", source="".join(f"int v{i} = {i};\n" for i in range(40))
    )
    modified = "".join(f"int v{i} = {i + 1};\n" for i in range(40))
    verdict = preservation(original.source, modified)
    assert not verdict.preserved
    assert len(verdict.diff) == checks.MAX_DIFF_RUNS == 10
    monkeypatch.setattr(checks, "MAX_DIFF_RUNS", 3)  # read at each call
    assert len(preservation(original.source, modified).diff) == 3


def test_preservation_verdict_json_round_trip(corpus_load):
    from specforge.analyzer import PreservationVerdict

    programs = {e.program.name: e.program for e in corpus_load.entries}
    mutated = programs["tritype_mutated"]
    verdict = preservation(mutated.source, mutated.source.replace("(i+k <= i)", "(j+k <= i)"))
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
    verdict = preservation(HASH_PARENT.source, reply)
    assert verdict.preserved is preserved
    assert verdict == strip_and_rescan_verdict(HASH_PARENT.source, reply)



@pytest.mark.parametrize(
    "reply, tokenized",
    [
        (HASH_BODY, 0),
        ("#\n" + HASH_BODY, 1),  # a lone '#': stripped (of nothing) and scanned again
        ("/*@ requires \\true; */ " + HASH_BODY, 1),  # a punctuator '#': the same, no probe
    ],
)
def test_a_reply_is_tokenized_only_to_resolve_a_lone_hash(monkeypatch, reply, tokenized):
    import specforge.analyzer.annotations as annotations
    import specforge.analyzer.checks as checks
    from specforge.analyzer import tokenize

    calls: list[str] = []

    def counting_tokenize(source):
        calls.append(source)
        return tokenize(source)

    monkeypatch.setattr(annotations, "tokenize", counting_tokenize)
    monkeypatch.setattr(checks, "tokenize", counting_tokenize)
    preservation(HASH_PARENT.source, reply)
    assert calls == [reply] * tokenized


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
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(_replies())
def test_verdict_equals_strip_and_rescan(case):
    parent, reply = case
    assert _outcome(preservation, parent, reply) == _outcome(
        strip_and_rescan_verdict, parent, reply
    )


# ------------------------------------------------- edited-window diff exactness

def _full_opcodes(a, b):
    return SequenceMatcher(None, a, b, autojunk=False).get_opcodes()


@st.composite
def _streams(draw):
    """Two token streams over a 1-3 letter alphabet; the second often an edit of the first."""
    alphabet = "abc"[: draw(st.integers(1, 3))]
    letters = st.sampled_from(alphabet)
    a = draw(st.lists(letters, max_size=16))
    if draw(st.booleans()):
        return a, draw(st.lists(letters, max_size=16))
    b = list(a)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(b)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            b.insert(at, draw(letters))
        elif b:
            at = min(at, len(b) - 1)
            if edit == "delete":
                del b[at]
            else:
                b[at] = draw(letters)
    return a, b


@settings(max_examples=1000, deadline=None)
@given(_streams())
def test_edited_window_opcodes_equal_full_matcher(pair):
    a, b = pair
    assert checks._opcodes(a, b) == _full_opcodes(a, b)
    original, reply = "\n".join(a), "\n".join(b)
    with pytest.MonkeyPatch.context() as patch:  # hypothesis takes no function-scoped fixture
        patch.setattr(checks, "MAX_DIFF_RUNS", 100)
        verdict = preservation(original, reply)
    assert verdict == strip_and_rescan_verdict(original, reply, max_diff_runs=100)


@pytest.fixture
def matcher_windows(monkeypatch):
    """The (a, b) pairs ``check_code_preserved`` hands to SequenceMatcher."""
    seen = []

    class Recording(SequenceMatcher):
        def __init__(self, isjunk, a, b, autojunk):
            seen.append((tuple(a), tuple(b)))
            super().__init__(isjunk, a, b, autojunk)

    monkeypatch.setattr(checks, "SequenceMatcher", Recording)
    return seen


@pytest.mark.parametrize(
    "a, b, window",
    [
        # a block longer than the prefix: the suffix "A B" is it, taken first
        ("A B", "A C A B", ((), ("A", "C"))),
        # a block longer than both ends: the whole streams go to the matcher
        ("A B C D X", "A Y B C D", None),
        # a tie with the suffix: the earlier "A B" wins, so the suffix is not taken
        ("Q A B X A B", "A B Z A B", None),
        # a tie between prefix and suffix goes to the prefix, then the suffix
        ("A B X A B", "A B Y A B", (("X",), ("Y",))),
        # an edit near the start: the longer suffix is taken first, then the prefix
        ("A X " + " ".join(f"t{i}" for i in range(50)),
         "A Y " + " ".join(f"t{i}" for i in range(50)), (("X",), ("Y",))),
    ],
)
def test_edited_window_pinned_cases(matcher_windows, a, b, window):
    a, b = a.split(), b.split()
    assert checks._opcodes(a, b) == _full_opcodes(a, b)
    assert matcher_windows[0] == (window or (tuple(a), tuple(b)))


def test_edit_near_end_of_long_program_diffs_a_small_window(matcher_windows):
    lines = [f"  v{i % 7} = v{(i + 1) % 7} + {i % 5};" for i in range(800)]
    source = "int f(void) {\n" + "\n".join(lines) + "\n}\n"
    lines[793] = lines[793].replace("+", "-")  # source line 795
    edited = "int f(void) {\n" + "\n".join(lines) + "\n}\n"
    verdict = preservation(source, edited)
    assert verdict.diff == (DiffRun(line=795, original="+", modified="-"),)
    (window,) = matcher_windows
    assert max(map(len, window)) <= 3
