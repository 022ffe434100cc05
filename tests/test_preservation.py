from __future__ import annotations

import os
import re
from difflib import SequenceMatcher

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR, DATA_DIR, FIXTURES_DIR, load_synth, oracle_tokens, preservation
from reference_analyzer import _strip_acsl, strip_and_rescan_verdict
from specforge.analyzer import (
    DiffRun,
    TokenKind,
    TokenizeError,
    check_code_preserved,
    parse_blocks,
    scan,
    split_response,
    tokenize,
)
from specforge.analyzer import checks
from specforge.model import SourceProgram, canonical_json
from specforge.runner import load_corpus


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
    a = oracle_tokens(_strip_acsl(bsearch_annotated))
    b = oracle_tokens(_strip_acsl(bsearch_annotated_verbose))
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


# A '#' after comments alone on its line starts a directive, as in C: gcc
# compiles each of these replies to its parent's object bytes.
HASH_PARENT = SourceProgram(name="p", source="#define N 3\nint f(void) { return N; }\n")
HASH_BODY = "#define N 3\nint f(void) { return N; }\n"


@pytest.mark.parametrize(
    "reply, preserved",
    [
        ("/*@ requires \\true; */ " + HASH_BODY, True),
        ("/*@ requires \\true;\n ensures 1; */" + HASH_BODY, True),
        ("/* c */ " + HASH_BODY, True),
    ],
)
def test_directive_after_comment_verdicts(reply, preserved):
    verdict = preservation(HASH_PARENT.source, reply)
    assert verdict.preserved is preserved
    assert verdict == strip_and_rescan_verdict(HASH_PARENT.source, reply)


# A reply's own scan is what the verdict compares, a lone '#' or one after
# an ACSL comment included: no reply is tokenized.
@pytest.mark.parametrize(
    "reply",
    [
        HASH_BODY,
        "#\n" + HASH_BODY,  # a lone '#': an empty directive
        "/*@ requires \\true; */ " + HASH_BODY,  # a directive after a comment
    ],
)
def test_a_reply_is_tokenized_only_to_resolve_a_lone_hash(monkeypatch, reply):
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
    assert calls == []


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


# ------------------------------------------------------- C's translation phase 3

_SHIPPED_PROGRAMS = sorted(
    path.read_text(encoding="utf-8") for path in CORPUS_DIR.glob("*/program.c")
)
_ACSL_COMMENTS = [
    "/*@ assert a; */",
    "/*@ requires a;\n    ensures \\result == 0; */",
    "//@ assert a;\n",
]


@st.composite
def _programs_with_acsl(draw):
    """A shipped program with ACSL comments inserted at token boundaries,
    often at the start of a directive."""
    program = draw(st.sampled_from(_SHIPPED_PROGRAMS))
    tokens = tokenize(program)
    boundaries = sorted({0} | {t.start for t in tokens} | {t.end for t in tokens})
    directives = [t.start for t in tokens if t.kind is TokenKind.PREPROC] or boundaries
    at = st.one_of(st.sampled_from(boundaries), st.sampled_from(directives))
    inserts = draw(st.lists(st.tuples(at, st.sampled_from(_ACSL_COMMENTS)), min_size=1, max_size=4))
    for pos, comment in sorted(inserts, reverse=True):
        program = program[:pos] + comment + program[pos:]
    return program


@settings(max_examples=300, deadline=None)
@given(_programs_with_acsl())
def test_an_acsl_comment_read_as_one_space_changes_no_compare_text(reply):
    spaced = reply
    for token in reversed([t for t in tokenize(reply) if t.is_acsl]):
        spaced = spaced[: token.start] + " " + spaced[token.end :]
    assert scan(reply, {})[0].texts == scan(spaced, {})[0].texts


# ------------------------------------------------------- edited-window diff

def _ends(a, b):
    """The maximal common prefix's length, then that of the rest's common suffix."""
    head = len(os.path.commonprefix([a, b]))
    return head, len(os.path.commonprefix([a[head:][::-1], b[head:][::-1]]))


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
def test_edited_window_opcodes_are_one_edit_script(pair):
    a, b = pair
    at, last_tag = (0, 0), None
    for tag, i1, i2, j1, j2 in checks._opcodes(a, b):
        assert (i1, j1) == at and (i1, j1) < (i2, j2) and i1 <= i2 and j1 <= j2
        if tag == "equal":
            assert a[i1:i2] == b[j1:j2] and last_tag != "equal"
        else:
            kinds = {(True, True): "replace", (True, False): "delete", (False, True): "insert"}
            assert tag == kinds[i1 < i2, j1 < j2]
        at, last_tag = (i2, j2), tag
    assert at == (len(a), len(b))


@settings(max_examples=1000, deadline=None)
@given(_streams())
def test_edited_window_is_what_the_maximal_ends_leave(pair):
    a, b = pair
    ops = checks._opcodes(a, b)
    head, tail = _ends(a, b)
    assert (ops[:1] == [("equal", 0, head, 0, head)]) == bool(head)
    assert (ops[-1:] == [("equal", len(a) - tail, len(a), len(b) - tail, len(b))]) == bool(tail)
    window = SequenceMatcher(None, a[head : len(a) - tail], b[head : len(b) - tail], autojunk=False)
    middle = [(t, i1 + head, i2 + head, j1 + head, j2 + head)
              for t, i1, i2, j1, j2 in window.get_opcodes()]
    assert ops[bool(head) : len(ops) - bool(tail)] == middle
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
        # the prefix "A" is taken, though the suffix "A B" of b is a longer block
        ("A B", "A C A B", ((), ("C", "A"))),
        # the prefix is taken, though "B C D" is a longer block
        ("A B C D X", "A Y B C D", (("B", "C", "D", "X"), ("Y", "B", "C", "D"))),
        # the suffix is taken, though the earlier "A B" is as long
        ("Q A B X A B", "A B Z A B", (("Q", "A", "B", "X"), ("A", "B", "Z"))),
        # a prefix and a suffix of equal length: both are taken
        ("A B X A B", "A B Y A B", (("X",), ("Y",))),
        # an edit near the start: a short prefix and a long suffix
        ("A X " + " ".join(f"t{i}" for i in range(50)),
         "A Y " + " ".join(f"t{i}" for i in range(50)), (("X",), ("Y",))),
    ],
)
def test_edited_window_pinned_cases(matcher_windows, a, b, window):
    a, b = a.split(), b.split()
    checks._opcodes(a, b)
    assert matcher_windows == [window]


# What the preservation check reported for the two shipped mutants read as
# replies to their parents, and for every unpreserved cell of six seeded
# robustness-scale corpora, recorded before the edited-window rule.
_TRAFFIC_SEEDS = (41, 7, 902, 1, 2, 3)


def test_traffic_verdicts_are_the_recorded_ones(monkeypatch, tmp_path, corpus_load):
    verdicts = {}
    shipped = {e.program.name: e.program for e in corpus_load.entries}
    for name, program in shipped.items():
        if program.origin.kind == "mutant":
            parent = shipped[program.origin.parent_name]
            verdicts[f"shipped/{name}"] = check_code_preserved(
                parent.comparable, parse_blocks(program.source)
            )
    synth = load_synth(monkeypatch)
    for seed in _TRAFFIC_SEEDS:
        root = tmp_path / str(seed)
        parents = synth.generate(root, seed, 7)
        programs = {e.program.name: e.program for e in load_corpus(root / "corpus").entries}
        for parent in parents:
            for name, expected in parent.replies.items():
                for sample in (s for s, e in enumerate(expected) if not e.preserved):
                    reply = root / "fixtures" / name / "baseline" / f"{sample}.txt"
                    code = split_response(reply.read_text(encoding="utf-8")).code
                    verdicts[f"seed {seed}/{name}/{sample}"] = check_code_preserved(
                        programs[name].comparable, parse_blocks(code)
                    )
    assert len(verdicts) == 44
    recorded = (DATA_DIR / "traffic_verdicts.json").read_text(encoding="utf-8")
    assert canonical_json({k: v.to_dict() for k, v in verdicts.items()}) == recorded


def test_edit_near_end_of_long_program_diffs_a_small_window(matcher_windows):
    lines = [f"  v{i % 7} = v{(i + 1) % 7} + {i % 5};" for i in range(800)]
    source = "int f(void) {\n" + "\n".join(lines) + "\n}\n"
    lines[793] = lines[793].replace("+", "-")  # source line 795
    edited = "int f(void) {\n" + "\n".join(lines) + "\n}\n"
    verdict = preservation(source, edited)
    assert verdict.diff == (DiffRun(line=795, original="+", modified="-"),)
    (window,) = matcher_windows
    assert max(map(len, window)) <= 3
