from __future__ import annotations

import contextlib
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES_DIR, oracle_tokens, within
from reference_analyzer import _normalize_line as reference_normalize_line
from reference_analyzer import _strip_acsl, reference_tokenize
from reference_analyzer import count_by_kind, reference_parse_blocks, reference_split_response
from specforge import model
from specforge.analyzer import (
    STATEMENT,
    Annotation,
    AnnotationBlock,
    Enclosing,
    NoCodeFence,
    TokenizeError,
    count_blocks_by_kind,
    merge_loop_assigns,
    normalize_clause,
    parse_annotations,
    parse_blocks,
    split_response,
)
from specforge.analyzer import annotations as annotations_module
from specforge.analyzer.annotations import _DECORATION, _normalize_line, _parse_block


# --------------------------------------------------------------- split_response

def test_split_prose_and_single_fence():
    response = "Reasoning about the loop.\n\n```c\nint x;\n```\nClosing remark.\n"
    split = split_response(response)
    assert split.code == "int x;"
    assert "Reasoning about the loop." in split.reasoning
    assert "Closing remark." in split.reasoning
    assert "int x;" not in split.reasoning


def test_split_selects_longest_c_fence():
    short = "int a;"
    long = "int a;\nint b;\nint c;"
    response = f"first\n```c\n{short}\n```\nmid\n```c\n{long}\n```\n"
    # oracle: straight length comparison of the two fence bodies
    assert len(long) > len(short)
    assert split_response(response).code == long


def test_split_tie_breaks_to_last_fence():
    response = "```c\nint a;\n```\n```c\nint b;\n```\n"
    assert split_response(response).code == "int b;"


def test_split_falls_back_to_untagged_fence():
    response = "text\n```\nint fallback;\n```\n"
    assert split_response(response).code == "int fallback;"


def test_split_prefers_c_over_longer_untagged():
    response = "```\nlonger untagged content here\n```\n```c\nint x;\n```\n"
    assert split_response(response).code == "int x;"


def test_split_unclosed_fence_runs_to_end():
    response = "prose\n```c\nint x;\nint y;"
    assert split_response(response).code == "int x;\nint y;"


def test_split_no_fence_raises():
    with pytest.raises(NoCodeFence):
        split_response("no code here at all")


# Fence lines with and without tags and leading blanks, Unicode blanks that
# ``str.strip`` removes, line ends of every kind, near-fences, and lines of
# many fences behind prose.
_REPLY_FRAGMENTS = [
    "```", "```c", "```C ", "``` c\r", "```python", "  ```", "\t```c", "\u3000```",
    "\x1c```", "``", "`", "c", " ", "\t", "\r", "\n", "\n", "\r\n", "\x85", "\u2028",
    "int x;", "prose", "\n```c\nint a;\n```\n", "\n```\n", "``````", "x```",
]


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(_REPLY_FRAGMENTS), max_size=30).map("".join))
def test_split_matches_reference_splitter(response):
    try:
        expected = reference_split_response(response)
    except NoCodeFence:
        with pytest.raises(NoCodeFence):
            split_response(response)
        return
    got = split_response(response)
    assert (got.code, got.reasoning) == (expected.code, expected.reasoning)


def test_split_matches_reference_on_fixture_replies():
    for path in sorted(FIXTURES_DIR.rglob("*.txt")):
        text = path.read_text(encoding="utf-8")
        assert split_response(text) == reference_split_response(text), path.name


def test_split_skips_a_line_of_fences_behind_prose_at_once():
    response = " " * 32_000 + "x" + "```" * 32_000 + "\n```c\nint x;\n```\n"
    split = within(5, split_response, response)
    assert split.code == "int x;"
    assert split == reference_split_response(response)


def test_decoration_is_at_and_every_space_character():
    spaces = {c for c in map(chr, range(0x110000)) if c.isspace()}
    assert set(_DECORATION) == {"@"} | spaces


# '@' runs with spaces of every kind between them, '//' comments, and text.
_DECORATED_FRAGMENTS = ["@", "@@", " ", "\t", "\u3000", "\x85", "//", "/", "x", "x y", "@x"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_DECORATED_FRAGMENTS), max_size=30).map("".join))
def test_normalize_line_matches_reference(raw_line):
    assert _normalize_line(raw_line) == reference_normalize_line(raw_line)


def test_a_clause_ending_in_a_long_at_run_parses_in_linear_time():
    code = "/*@ requires x > 0" + " @" * 400_000 + " */\nint f(int x);\n"
    (annotation,) = parse_annotations(within(5, parse_blocks, code))
    assert (annotation.kind.keyword, annotation.clause_text) == ("requires", "x > 0")


# ------------------------------------------------------------ parse_annotations

def test_six_clause_census(bsearch_annotated):
    histogram = count_blocks_by_kind(parse_blocks(bsearch_annotated).blocks)
    nonzero = {k.keyword: v for k, v in histogram.items() if v}
    assert nonzero == {
        "requires": 1,
        "ensures": 1,
        "assigns": 1,
        "loop invariant": 1,
        "loop assigns": 1,
        "loop variant": 1,
    }


def test_verbose_listing_census(bsearch_annotated_verbose):
    analyzed = parse_blocks(bsearch_annotated_verbose)
    annotations = parse_annotations(analyzed)
    histogram = count_blocks_by_kind(analyzed.blocks)
    assert histogram[model.ASSERT] >= 1
    assert histogram[model.ASSIGNS] >= 8
    statement_assigns = [
        a
        for a in annotations
        if a.kind == model.ASSIGNS and a.enclosing.context == "statement"
    ]
    assert len(statement_assigns) >= 8


def test_no_annotations_yields_empty_list():
    assert parse_annotations(parse_blocks("int f(void) { return 1; } /* plain */\n")) == []


def test_clause_text_has_no_decoration(bsearch_annotated):
    for annotation in parse_annotations(parse_blocks(bsearch_annotated)):
        assert "@" not in annotation.clause_text[:1]
        assert not annotation.clause_text.endswith(";")


def test_loop_kinds_imply_loop_enclosing(bsearch_annotated, bsearch_annotated_verbose):
    for code in (bsearch_annotated, bsearch_annotated_verbose):
        for a in parse_annotations(parse_blocks(code)):
            if a.kind.keyword.startswith("loop "):
                assert a.enclosing.context == "loop"


def test_behavior_header_and_nested_clauses():
    code = (
        "/*@\n"
        "  @ requires i >= 0;\n"
        "  @ behavior not_triangle:\n"
        "  @   assumes i == 0 || i+j <= k;\n"
        "  @   ensures \\result == 4;\n"
        "*/\n"
        "int f(int i, int j, int k) { return 4; }\n"
    )
    analyzed = parse_blocks(code)
    annotations = parse_annotations(analyzed)
    by_kind = {a.kind.keyword: a for a in annotations}
    assert by_kind["behavior"].clause_text == "not_triangle"
    assert by_kind["behavior"].enclosing.context == "function_contract"
    assert by_kind["assumes"].enclosing.context == "behavior_body"
    assert by_kind["assumes"].enclosing.behavior == "not_triangle"
    assert by_kind["ensures"].enclosing.behavior == "not_triangle"
    histogram = count_blocks_by_kind(analyzed.blocks)
    assert histogram[model.BEHAVIOR] == 1
    assert histogram[model.ASSUMES] == 1
    assert histogram[model.ENSURES] == 1


def test_binder_semicolon_does_not_split_clause():
    code = (
        "/*@ ensures \\forall integer i; 0 <= i < n ==> \\result >= i; */\n"
        "int f(int n) { return n; }\n"
    )
    annotations = parse_annotations(parse_blocks(code))
    assert len(annotations) == 1
    assert annotations[0].kind == model.ENSURES
    assert "\\forall integer i;" in annotations[0].clause_text


def test_unrecognized_clause_keyword_maps_to_other():
    code = (
        "/*@ requires n > 0;\n"
        "  @ terminates n >= 0;\n"
        "  @ ensures \\result > 0;\n"
        "*/\n"
        "int f(int n) { return n; }\n"
    )
    analyzed = parse_blocks(code)
    others = [a for a in parse_annotations(analyzed) if not a.kind.known]
    assert [a.kind.keyword for a in others] == ["terminates"]
    assert count_blocks_by_kind(analyzed.blocks)[model.AnnotationKind.other("terminates")] == 1


def test_census_totality(bsearch_annotated_verbose):
    analyzed = parse_blocks(bsearch_annotated_verbose)
    histogram = count_blocks_by_kind(analyzed.blocks)
    assert sum(histogram.values()) == len(parse_annotations(analyzed))


def test_census_additivity(bsearch_annotated, bsearch_annotated_verbose):
    a = parse_blocks(bsearch_annotated).blocks
    b = parse_blocks(bsearch_annotated_verbose).blocks
    combined = count_blocks_by_kind(a + b)
    separate_a, separate_b = count_blocks_by_kind(a), count_blocks_by_kind(b)
    for kind in set(combined) | set(separate_a) | set(separate_b):
        assert combined.get(kind, 0) == separate_a.get(kind, 0) + separate_b.get(kind, 0)


def test_empty_census_is_all_zero():
    histogram = count_blocks_by_kind([])
    assert set(histogram) == set(model.KNOWN_KINDS)
    assert all(v == 0 for v in histogram.values())


_KINDS = st.one_of(
    st.sampled_from(model.KNOWN_KINDS),
    st.sampled_from(["terminates", "decreases", "exits", "allocates"]).map(
        model.AnnotationKind.other
    ),
)


@given(st.lists(_KINDS, max_size=40))
def test_census_matches_one_lookup_per_clause(kinds):
    annotations = [
        Annotation(
            kind=kind, clause_text="x", block_style=True, line=1,
            enclosing=Enclosing("statement"),
        )
        for kind in kinds
    ]
    expected = {kind: 0 for kind in model.KNOWN_KINDS}
    for kind in kinds:
        expected[kind] = expected.get(kind, 0) + 1
    assert list(count_by_kind(annotations).items()) == list(expected.items())
    # the package's census, one block per clause, gives the oracle's histogram
    blocks = [AnnotationBlock((a,), 0, None, STATEMENT, {a.kind.keyword: 1}) for a in annotations]
    assert list(count_blocks_by_kind(blocks).items()) == list(expected.items())


def test_merge_loop_assigns_option(bsearch_annotated):
    histogram = count_blocks_by_kind(parse_blocks(bsearch_annotated).blocks)
    merged = merge_loop_assigns(histogram)
    assert model.LOOP_ASSIGNS not in merged
    assert merged[model.ASSIGNS] == histogram[model.ASSIGNS] + histogram[model.LOOP_ASSIGNS]
    assert sum(merged.values()) == sum(histogram.values())
    assert histogram[model.LOOP_ASSIGNS] == 1  # original left untouched


def test_source_order_preserved(bsearch_annotated):
    lines = [a.line for a in parse_annotations(parse_blocks(bsearch_annotated))]
    assert lines == sorted(lines)


# ------------------------------------------- strip (the reference's _strip_acsl)

def test_strip_removes_all_annotation_markers(bsearch_annotated):
    stripped = _strip_acsl(bsearch_annotated)
    assert "/*@" not in stripped
    assert "//@" not in stripped
    assert parse_annotations(parse_blocks(stripped)) == []


def test_strip_is_identity_without_annotations():
    code = "int f(void) { /* plain comment */ return 0; } // tail\n"
    assert _strip_acsl(code) == code


def test_strip_keeps_non_annotation_comments():
    code = "/* keep */ /*@ requires x; */ int x; // keep too\n"
    stripped = _strip_acsl(code)
    assert "/* keep */" in stripped
    assert "// keep too" in stripped


def test_strip_preserves_token_stream(bsearch_annotated, corpus_load):
    programs = {e.program.name: e.program.source for e in corpus_load.entries}
    assert oracle_tokens(_strip_acsl(bsearch_annotated)) == oracle_tokens(
        programs["binary_search"]
    )


def test_strip_then_parse_is_empty(bsearch_annotated_verbose, corpus_load):
    for code in [bsearch_annotated_verbose] + [
        e.program.source for e in corpus_load.entries
    ]:
        assert parse_annotations(parse_blocks(_strip_acsl(code))) == []


def test_strip_preserves_line_numbers():
    code = "/*@ requires x;\n  @ ensures y;\n*/\nint f(int x) { return x; }\n"
    stripped = _strip_acsl(code)
    assert stripped.count("\n") == code.count("\n")
    assert stripped.split("\n")[3].startswith("int f")


def test_strip_starts_no_line_that_c_does_not_have():
    # as gcc reads them: the first '#' comes after code, the second starts a directive
    code = "int g; /*@ requires x;\n  ensures y; */ # define N\n/*@ a\n */ #define M 1\n"
    stripped = _strip_acsl(code)
    assert stripped == "int g;   # define N\n\n #define M 1\n"
    assert [t[1] for t in reference_tokenize(stripped)][3:] == ["#", "define", "N", "#define M 1"]


@given(
    st.lists(
        st.sampled_from(
            [
                "int x;",
                "/*@ requires x > 0; */",
                "//@ assert x == 1;",
                "/* plain */",
                "x = x + 1;",
                "/*@\n  @ loop invariant x >= 0;\n  @ loop assigns x;\n*/",
                "while (x > 0) { x = x - 1; }",
            ]
        ),
        min_size=1,
        max_size=12,
    )
)
def test_strip_parse_coherence_property(pieces):
    code = "\n".join(pieces) + "\n"
    stripped = _strip_acsl(code)
    assert parse_annotations(parse_blocks(stripped)) == []
    acsl_free = [t for t in oracle_tokens(code)]
    # the oracle is comment-blind, so stripped and original agree token-wise
    assert oracle_tokens(stripped) == acsl_free


# ------------------------------------------------- scanner vs frozen reference

_KEYWORDS = [
    "requires", "ensures", "assigns", "assert", "behavior", "assumes",
    "predicate", "ghost", "loop invariant", "loop assigns", "loop variant",
    "complete behaviors", "disjoint behaviors", "global invariant",
    "loop allocates", "loop frees", "terminates", "decreases", "invariant",
    "variant", "axiom", "lemma", "logic", "check", "admit", "exits",
]
# Clause-body pieces: binder semicolons, keywords in mid-clause position,
# colons, '@' decoration, '//' tails, and words that merely contain keywords.
_BODY_PIECES = [
    "x", " ", "\n", "\n  @ ", " @", "@", ";", ":", "::", " ; ", "0 <= i < n",
    "\\forall integer i;", "\\exists int k; ", "a[i] == 0", "==>", "(", ")",
    "requires", "ensures", "loop", "invariant", "behavior", "assignsx",
    "xrequires", "b:", " // note", "\\result", "_", "\t", "\u00a0", "\x1c",
]


@st.composite
def _acsl_body(draw):
    out = [draw(st.sampled_from(["", " ", "\n  ", "@ ", "\n@"]))]
    for _ in range(draw(st.integers(0, 6))):
        sep = draw(st.sampled_from([" ", "  ", "\n", "\n  @ ", "\t"]))  # inside a keyword
        out.append(sep.join(draw(st.sampled_from(_KEYWORDS)).split()))
        out.extend(draw(st.lists(st.sampled_from(_BODY_PIECES), max_size=6)))
        out.append(draw(st.sampled_from([";", ";\n", "; ", "", ":", " ;;"])))
    return "".join(out)


@st.composite
def _annotated_c(draw):
    pieces = []
    for _ in range(draw(st.integers(1, 6))):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            pieces.append("/*@" + draw(_acsl_body()) + "*/")
        elif choice == 1:
            pieces.append("//@" + draw(_acsl_body()).replace("\n", " ") + "\n")
        else:
            pieces.append(draw(st.sampled_from([
                "{", "}", "\n", "int f(int n) ", "for (i = 0; i < n; i++) ",
                "while (x) ", "do ", "x = 1;\n", "/* plain */", "// c\n",
            ])))
    return "".join(pieces)


def _blocks_or_error(parse, code):
    try:
        return parse(code)
    except TokenizeError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(_annotated_c())
def test_parse_blocks_matches_reference_scanner(code):
    mine = _blocks_or_error(lambda c: parse_blocks(c).blocks, code)
    assert mine == _blocks_or_error(reference_parse_blocks, code)


def test_parse_blocks_matches_reference_on_fixture_replies():
    replies = sorted(FIXTURES_DIR.rglob("*.txt"))
    assert replies
    for path in replies:
        code = split_response(path.read_text(encoding="utf-8")).code
        assert parse_blocks(code).blocks == reference_parse_blocks(code), path


@pytest.mark.parametrize(
    "body",
    [
        "requires \\forall integer i; 0 <= i < n ==> a[i] == 0;",
        "loop\n  @ invariant 0 <= i;\n  @ loop\n   assigns i;",
        "behavior pos:\n assumes x > 0;\n ensures \\result == 1;\n"
        "behavior neg: assumes x <= 0; complete behaviors; disjoint\n behaviors;",
        "behavior ; requires x;",
        "ensures x requires y; assigns\u00a0x;",
    ],
)
def test_parse_blocks_matches_reference_on_pinned_bodies(body):
    for code in (f"/*@ {body} */\nint f(int x);\n", f"{{ /*@ {body} */ x = 1; }}\n"):
        parsed = parse_blocks(code)
        assert parsed.blocks == reference_parse_blocks(code)
        assert parse_annotations(parsed)


# ------------------------------------------------ block parses shared across replies

# Lines before the shared comment: their braces set its depth; some add an
# ACSL comment of their own.
_LINES_BEFORE = [
    "", "{", "}", "int f(int n) {", "x = 1;", "/* { */", "//@ assert x;", "/*@ ghost int g; */",
]
# What follows the shared comment: a loop head, a statement, a declaration,
# a plain comment and then one of those, or nothing.
_AFTER_BLOCK = [
    "for (;;) x--;", "while (x) x--;", "do x--; while (x);", "x = 1;", "int f(int n);",
    "/* c */ for (;;) ;", "// c\nx = 1;", "", "}",
]


@st.composite
def _replies_sharing_a_block(draw):
    """Replies holding one ACSL comment, the same text on the same line, placed variously."""
    body = draw(_acsl_body())
    block = draw(st.sampled_from(["/*@" + body + "*/ ", "//@" + body.replace("\n", " ") + "\n"]))
    lines_before = draw(st.integers(0, 3))
    replies = []
    for _ in range(draw(st.integers(2, 5))):
        before = [draw(st.sampled_from(_LINES_BEFORE)) for _ in range(lines_before)]
        after = draw(st.sampled_from(_AFTER_BLOCK))
        replies.append("".join(f"{line}\n" for line in before) + block + after)
    return replies


@settings(max_examples=300, deadline=None)
@given(_replies_sharing_a_block())
def test_parse_blocks_with_a_shared_dict_equals_parsing_each_reply_alone(replies):
    parsed: dict = {}
    shared = [_blocks_or_error(lambda c: parse_blocks(c, parsed).blocks, r) for r in replies]
    assert shared == [_blocks_or_error(lambda c: parse_blocks(c).blocks, r) for r in replies]


_SHARED = "/*@ assert x >= 0; */"  # line 2 of each reply below
_SHARED_IN = {
    "loop": "int f(int x) {\n" + _SHARED + "\nfor (;;) x--;\n}\n",
    "statement": "int f(int x) {\n" + _SHARED + "\nx--;\n}\n",
    "function_contract": "int g;\n" + _SHARED + "\nint f(int x);\n",
}


@pytest.mark.parametrize("first", sorted(_SHARED_IN))
def test_a_shared_block_parse_keeps_loop_head_and_file_scope_apart(first):
    # before a loop head or a statement inside a body, and at file scope, each
    # at line 2 and then at line 5: three placements, so three parses
    parsed: dict = {}
    order = [first, *(context for context in sorted(_SHARED_IN) if context != first)]
    placed = [(before, context) for before in (0, 3) for context in order]
    codes = ["\n" * before + _SHARED_IN[context] for before, context in placed]
    with _parses_made() as made:
        shared = [_blocks_with_facts(parse_blocks(code, parsed)) for code in codes]
    assert shared == [_blocks_with_facts(parse_blocks(code)) for code in codes]
    for (before, context), [(block, _, _)] in zip(placed, shared):
        (annotation,) = block.annotations
        assert (annotation.enclosing.context, annotation.line) == (context, 2 + before)
        assert (block.loop_key is None) == (context != "loop")
        assert block.placement.context == context
    assert sorted(made) == [(_SHARED, False, False), (_SHARED, False, True), (_SHARED, True, False)]


# ------------------------------------------- a block parsed against the last one

def test_a_missing_text_is_parsed_against_the_last_parse_at_its_place(monkeypatch):
    import specforge.analyzer.annotations as annotations

    # texts A, B, A, C at one place: line 1, at file scope, heading no loop
    a, b, c = (f"/*@ requires a; ensures {x}; */\nint f(int x);\n" for x in "abc")
    alone = {code: parse_blocks(code).blocks for code in (a, b, c)}
    calls: list[tuple[str, tuple]] = []
    made: dict[str, tuple] = {}

    def spy(text, line, heads_loop, at_file_scope, last=annotations._NOTHING_PARSED):
        calls.append((text, last))
        made[text] = _parse_block(text, line, heads_loop, at_file_scope, last)
        return made[text]

    monkeypatch.setattr(annotations, "_parse_block", spy)
    parsed: dict = {}
    for code in (a, b, a, c):
        assert parse_blocks(code, parsed).blocks == alone[code]
    comment = {code: code.partition("\n")[0] for code in (a, b, c)}
    assert [text for text, _ in calls] == [comment[a], comment[b], comment[c]]  # A once
    assert calls[2][1] is made[comment[b]]  # C against B, the last parse made there


@contextlib.contextmanager
def _parses_made():
    """The (text, loop head, file scope) key of each block ``parse_blocks`` parses
    meanwhile; a fresh re-parse inside ``_parse_block`` is not another."""
    made: list[tuple[str, bool, bool]] = []
    inside: list[bool] = []
    parse = annotations_module._parse_block

    def spy(text, line, heads_loop, at_file_scope, *last):
        if not inside:
            made.append((text, heads_loop, at_file_scope))
        inside.append(True)
        try:
            return parse(text, line, heads_loop, at_file_scope, *last)
        finally:
            inside.pop()

    with mock.patch.object(annotations_module, "_parse_block", spy):
        yield made


def test_a_comment_seen_at_another_line_is_moved_not_parsed_again(monkeypatch):
    contract = "/*@ requires n >= 0;\n  @ assigns \\nothing;\n  @ ensures \\result >= n; */\n"
    first, second = ("\n" * before + contract + "int f(int n);\n" for before in (4, 8))
    scan = annotations_module._scan_clauses
    scans: list[str] = []

    def counting_scan(body, line, pos):
        scans.append(body)
        return scan(body, line, pos)

    monkeypatch.setattr(annotations_module, "_scan_clauses", counting_scan)
    parsed: dict = {}
    (at_5,) = parse_blocks(first, parsed).blocks
    (at_9,) = parse_blocks(second, parsed).blocks
    assert len(scans) == 1
    assert [a.line for a in at_5.annotations] == [5, 6, 7]
    assert [a.line for a in at_9.annotations] == [9, 10, 11]  # each 4 higher
    assert _blocks_with_facts(parse_blocks(second)) == [
        (at_9, at_9.kind_counts, at_9.clause_keys)
    ]


# What an edit inserts: clause pieces, keywords, and the behavior headers and
# loop keywords that change enclosings and placement.
_EDIT_PIECES = st.sampled_from(
    _BODY_PIECES + [kw + " " for kw in _KEYWORDS] + ["behavior b: ", "loop ", "\n", ""]
)


@st.composite
def _edited_bodies(draw):
    """An annotation body and the same body after one to three random edits."""
    old = new = draw(_acsl_body())
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(new)))
        end = draw(st.integers(start, min(len(new), start + 8)))
        inserted = "".join(draw(st.lists(_EDIT_PIECES, max_size=3)))
        new = new[:start] + inserted + new[end:]
    return old, new


def _block_facts(parse):
    """A ``_parse_block`` result: annotations as encoded, placement, kind counts, keys."""
    body, starts, annotations, placement, kind_counts, keys = parse
    return body, starts, [a.to_dict() for a in annotations], placement, kind_counts, keys


@settings(max_examples=500, deadline=None)
@given(
    bodies=_edited_bodies(),
    style=st.sampled_from(["/*@", "//@"]),
    line=st.integers(1, 4),
    heads_loop=st.booleans(),
    at_file_scope=st.booleans(),
)
# no old match starts in the common prefix: the scan restarts at 0, not there
@example(bodies=("x; requires a;", "requires x; requires a;"), style="/*@", line=1,
         heads_loop=False, at_file_scope=True)
# the window starts lines into the body; its first line is counted once
@example(bodies=("requires a;\nrequires b;\nrequires c;\n ensures d;",
                 "requires a;\nrequires b;\nrequires c;\n ensures e;"), style="/*@", line=3,
         heads_loop=False, at_file_scope=True)
# a loop keyword in the window turns every clause into a loop annotation
@example(bodies=("assert x;\nassert y;\nassert z;\nassert w;",
                 "assert x;\nassert y;\nloop invariant z;\nassert w;"), style="/*@", line=1,
         heads_loop=False, at_file_scope=False)
# a behavior header past the common prefix puts the re-scanned tail into its body
@example(bodies=("requires a;\nassumes b;\nensures c;\nensures d;\nensures e;",
                 "requires a; behavior p:\nassumes b;\nensures c;\nensures d;\nensures e;"),
         style="/*@", line=1, heads_loop=False, at_file_scope=True)
# clauses are kept while the placement turns to loop: the block is parsed fresh
@example(bodies=("assert a; assert b; assert c; assert d; assert e;",
                 "assert a; assert b; assert c; assert d; loop invariant e;"), style="/*@",
         line=1, heads_loop=False, at_file_scope=False)
# a behavior header would be the last kept clause: the scan restarts at it
@example(bodies=("requires a; behavior a: assumes b; ensures c;",
                 "requires a; behavior a: assumes b; ensures x;"), style="/*@", line=1,
         heads_loop=False, at_file_scope=True)
# so it does at the first of two headers in a row
@example(bodies=("requires a; behavior a: behavior b: assumes c; ensures d;",
                 "requires a; behavior a: behavior b: assumes c; ensures x;"), style="/*@",
         line=1, heads_loop=False, at_file_scope=True)
def test_a_block_parsed_against_the_last_equals_a_fresh_parse(
    bodies, style, line, heads_loop, at_file_scope
):
    old, new = ((style + body + "*/" if style == "/*@" else style + body.replace("\n", " "))
                for body in bodies)
    last = _parse_block(old, line, heads_loop, at_file_scope)
    fresh = _parse_block(new, line, heads_loop, at_file_scope)
    windowed = _parse_block(new, line, heads_loop, at_file_scope, last)
    assert _block_facts(windowed) == _block_facts(fresh)
    # the keys are the one rule's, and the counts the census of the clauses
    _, _, annotations, _, kind_counts, keys = fresh
    assert keys == tuple(map(normalize_clause, annotations))
    assert kind_counts == {
        kind.keyword: n for kind, n in count_by_kind(annotations).items() if n
    }



def test_a_near_repeat_contract_scans_only_past_its_unchanged_prefix(monkeypatch):
    import specforge.analyzer.annotations as annotations

    requires = "".join(f"  @ requires p{i} >= 0;\n" for i in range(300))
    parent, mutant = (
        f"/*@\n{requires}  @ ensures \\result == {value};\n  @*/\nint f(int x);\n"
        for value in (0, 1)
    )
    scan = annotations._scan_clauses
    scanned: list[int] = []  # clauses per scan

    def counting_scan(body, line, pos):
        clauses, starts = scan(body, line, pos)
        scanned.append(len(clauses))
        return clauses, starts

    monkeypatch.setattr(annotations, "_scan_clauses", counting_scan)
    parsed: dict = {}
    parse_blocks(parent, parsed)
    assert scanned == [301]
    near_repeat = _blocks_with_facts(parse_blocks(mutant, parsed))
    assert len(scanned) == 2 and scanned[1] <= 3  # the kept requires are not scanned again
    assert near_repeat == _blocks_with_facts(parse_blocks(mutant))


@st.composite
def _replies_with_fragments(draw):
    """Shipped replies, some with a fragment inserted, in random order."""
    replies = []
    for code in draw(st.lists(st.sampled_from(_SHIPPED_REPLIES), min_size=2, max_size=6)):
        if draw(st.booleans()):
            at = draw(st.integers(0, len(code)))
            fragment = "".join(draw(st.lists(_EDIT_PIECES, max_size=3)))
            code = code[:at] + fragment + code[at:]
        replies.append(code)
    return replies


_SHIPPED_REPLIES = sorted(
    {split_response(path.read_text(encoding="utf-8")).code for path in FIXTURES_DIR.rglob("*.txt")}
)


def _blocks_with_facts(analyzed):
    return [(b, b.kind_counts, b.clause_keys) for b in analyzed.blocks]


@settings(max_examples=150, deadline=None)
@given(_replies_with_fragments())
def test_shipped_replies_through_one_dict_equal_each_parsed_alone(replies):
    parsed: dict = {}
    shared = [_blocks_or_error(lambda c: _blocks_with_facts(parse_blocks(c, parsed)), r)
              for r in replies]
    alone = [_blocks_or_error(lambda c: _blocks_with_facts(parse_blocks(c)), r) for r in replies]
    assert shared == alone


# Lines put before a reply: they move its comments down, and the braces also
# change the depth they sit at.
_LEADING_LINES = ["\n", "int g;\n", "/* c */\n", "//@ ghost int h;\n", "{\n", "}\n"]


@st.composite
def _moved_replies(draw):
    """Shipped replies, each twice in random order, each time after random leading lines."""
    chosen = draw(st.lists(st.sampled_from(_SHIPPED_REPLIES), min_size=1, max_size=3))
    return [
        "".join(draw(st.lists(st.sampled_from(_LEADING_LINES), max_size=4))) + code
        for code in draw(st.permutations(chosen * 2))
    ]


@settings(max_examples=100, deadline=None)
@given(_moved_replies())
def test_shipped_replies_moved_by_leading_lines_parse_each_text_once(replies):
    parsed: dict = {}
    with _parses_made() as made:
        shared = [_blocks_or_error(lambda c: _blocks_with_facts(parse_blocks(c, parsed)), r)
                  for r in replies]
    alone = [_blocks_or_error(lambda c: _blocks_with_facts(parse_blocks(c)), r) for r in replies]
    assert shared == alone
    assert len(made) == len(set(made))  # each (text, loop head, file scope) once


def test_count_blocks_by_kind_is_count_by_kind_of_their_annotations():
    parsed: dict = {}
    for code in _SHIPPED_REPLIES:
        blocks = parse_blocks(code, parsed).blocks
        annotations = [a for b in blocks for a in b.annotations]
        census = count_blocks_by_kind(blocks)
        assert list(census.items()) == list(count_by_kind(annotations).items())
