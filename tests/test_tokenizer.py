from __future__ import annotations

import shutil
import subprocess
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES_DIR, oracle_tokens
from reference_analyzer import (
    _COMMENTS,
    _comparable,
    _file_scope_names,
    _is_acsl,
    reference_tokenize,
)
from specforge.analyzer import (
    Token,
    TokenizeError,
    TokenKind,
    lint,
    parse_blocks,
    scan,
    split_response,
    tokenize,
)
from specforge.analyzer import lexer


def kinds(code):
    return [t.kind for t in tokenize(code)]


def texts(code):
    return [t.text for t in tokenize(code)]


def test_basic_stream():
    toks = tokenize("int x = a[3] + 0x1F;\n")
    assert [t.text for t in toks] == ["int", "x", "=", "a", "[", "3", "]", "+", "0x1F", ";"]
    assert toks[0].kind is TokenKind.ID
    assert toks[2].kind is TokenKind.PUNCT
    assert toks[8].kind is TokenKind.NUMBER


def test_comments_are_tokens():
    toks = tokenize("/*@ requires x; */ int x; //@ assert x;\n// plain\n")
    assert toks[0] == (TokenKind.COMMENT, "/*@ requires x; */", 1, 0, 18)
    line_comments = [t.text for t in toks if t.kind is TokenKind.LINE_COMMENT]
    assert line_comments == ["//@ assert x;", "// plain"]


def test_block_comment_spans_lines_and_tracks_line_numbers():
    code = "a;\n/* one\ntwo */\nb;\n"
    toks = tokenize(code)
    assert toks[2].kind is TokenKind.COMMENT
    assert toks[2].line == 2
    b = [t for t in toks if t.text == "b"][0]
    assert b.line == 4


def test_preproc_directive_is_one_token():
    toks = tokenize('#include <string.h>\nint x;\n#define EOS \'\\0\'\n')
    preproc = [t for t in toks if t.kind is TokenKind.PREPROC]
    assert [t.text for t in preproc] == ["#include <string.h>", "#define EOS '\\0'"]


def test_preproc_continuation_line():
    toks = tokenize("#define MAX(a, b) \\\n  ((a) > (b) ? (a) : (b))\nint y;\n")
    assert toks[0].kind is TokenKind.PREPROC
    assert "((a) > (b)" in toks[0].text
    assert toks[1].text == "int"


def test_hash_inside_line_is_not_preproc():
    toks = tokenize("int a; a = b # c;\n")
    hash_tok = [t for t in toks if t.text == "#"][0]
    assert hash_tok.kind is TokenKind.PUNCT


def test_string_and_char_literals():
    toks = tokenize("char c = '\\n'; char *s = \"a\\\"b\";\n")
    assert [t.kind for t in toks if t.kind in (TokenKind.CHAR, TokenKind.STRING)] == [
        TokenKind.CHAR,
        TokenKind.STRING,
    ]


def test_longest_match_punctuators():
    assert texts("a <<= b >> c <= d < e;") == [
        "a", "<<=", "b", ">>", "c", "<=", "d", "<", "e", ";",
    ]


def test_unknown_bytes_become_single_punct():
    toks = tokenize("x @ y \\ z;")
    assert [t.text for t in toks] == ["x", "@", "y", "\\", "z", ";"]


def test_unterminated_block_comment_raises_with_line():
    with pytest.raises(TokenizeError, match=r"^line 2: unterminated block comment$"):
        tokenize("int a;\n/* no close\nint b;\n")


def test_unterminated_string_raises():
    with pytest.raises(TokenizeError, match=r'^line 1: unterminated " literal$'):
        tokenize('char *s = "oops;\n')


_ID, _PUNCT = TokenKind.ID, TokenKind.PUNCT


@pytest.mark.parametrize(
    "source, expected",
    [
        ("a \v\f\t b", [(_ID, "a", 1, 0, 1), (_ID, "b", 1, 6, 7)]),
        ("x;  \t", [(_ID, "x", 1, 0, 1), (_PUNCT, ";", 1, 1, 2)]),
        ("  #define X 1\n", [(TokenKind.PREPROC, "#define X 1", 1, 2, 13)]),
        ("/* c */ # x\n", [(TokenKind.COMMENT, "/* c */", 1, 0, 7), (TokenKind.PREPROC, "# x", 1, 8, 11)]),
        ("x\r\n  y", [(_ID, "x", 1, 0, 1), (_ID, "y", 2, 5, 6)]),
    ],
)
def test_spans_at_blank_run_edges(source, expected):
    assert tokenize(source) == expected


def test_unterminated_literal_after_blanks_keeps_its_line():
    with pytest.raises(TokenizeError, match=r"^line 1: unterminated ' literal$"):
        tokenize("x = '")


@pytest.mark.parametrize(
    "source, head",
    [('char *s = "a\\\r\nb";\n', ["char", "*", "s"]), ("int c = 'a\\\r\nb';\n", ["int", "c"])],
)
def test_a_literal_continued_by_backslash_cr_lf_lexes(tmp_path, source, head):
    # gcc splices the backslash, CR and LF away in translation phase 2
    literal = source[source.index("=") + 2 : source.rindex(";")]
    expected = [(text, 1) for text in [*head, "=", literal]] + [(";", 2)]
    assert [(t.text, t.line) for t in tokenize(source)] == expected
    assert [(t[1], t[2]) for t in reference_tokenize(source)] == expected
    gcc = shutil.which("gcc")
    if gcc is not None:
        (tmp_path / "literal.c").write_bytes(source.encode())
        subprocess.run(
            [gcc, "-std=c99", "-fsyntax-only", "-w", "literal.c"],
            cwd=tmp_path, check=True, capture_output=True, timeout=60,
        )


def _opcodes(node, parser):
    if isinstance(node, parser.SubPattern):
        for op, av in node:
            yield op
            yield from _opcodes(av, parser)
    elif isinstance(node, (tuple, list)):
        for item in node:
            yield from _opcodes(item, parser)


def test_scanner_pattern_compiles_on_python_3_10():
    # The package supports Python 3.10, whose re module rejects possessive
    # quantifiers and atomic groups (both new in 3.11) with re.error.
    parser = pytest.importorskip("re._parser")
    constants = pytest.importorskip("re._constants")
    from specforge.analyzer.lexer import _TOKEN_RE

    newer = {constants.POSSESSIVE_REPEAT, constants.ATOMIC_GROUP}
    tree = parser.parse(_TOKEN_RE.pattern, _TOKEN_RE.flags)
    assert newer.isdisjoint(_opcodes(tree, parser))


def test_spans_reconstruct_source():
    code = 'int f(int n) { return n + 1; } /* tail */\n'
    for tok in tokenize(code):
        assert code[tok.start : tok.end] == tok.text


def test_code_tokens_drop_comments_only():
    code = "/*@ requires x; */ int x; // note\n"
    assert scan(code, {})[0].texts == ("int", "x", ";")


def test_token_equals_its_plain_five_tuple():
    (token,) = tokenize("//@ assert x;")
    assert token == (TokenKind.LINE_COMMENT, "//@ assert x;", 1, 0, 13)
    assert Token(*token) == token


def test_compare_text_normalizes_preproc_whitespace():
    a, b = scan("#define   X  1\n", {})[0], scan("  #define X\t1 \n", {})[0]
    assert a.texts == b.texts == ("#define X 1",)


def test_matches_oracle_on_shipped_programs(corpus_load):
    for entry in corpus_load.entries:
        source = entry.program.source
        mine = []
        for tok in (t for t in tokenize(source) if t.kind not in _COMMENTS):
            if tok.kind is TokenKind.PREPROC:
                # the oracle splits directives; do the same here
                mine.extend(oracle_tokens(tok.text))
            else:
                mine.append(tok.text)
        assert mine == oracle_tokens(source), entry.program.name


# Fragments that meet at every lexer boundary: comment and literal openers
# and closers, directives at and off line start, continuations, escapes,
# numbers next to dots, longest-match punctuators, and non-ASCII digits,
# letters and spaces that only some character classes accept.
_FRAGMENTS = [
    " ", "  ", "\t", "\n", "\r\n", "\v", "\f",
    "/*", "*/", "/*@", "//", "//@", "/", "*",
    "#", "#define X 1", "#if", "\\", "\\\n", "\\ \n", "\\\f\n", "\\\u00a0\r\n",
    '"', "'", '"ab"', "'c'", '"\\""', "\\'", "\\n", '"a\\\nb"', "'\\\n'",
    "x", "ab_1", "$v", "e", "E5", "0x", "0x1F", "12", "1.5e-3", ".5", "...", "..", ".",
    "<<=", ">>=", "->", "++", "<<", "<=", "=", "&&", "|", "^=", "?", ":", ";", ",",
    "(", ")", "[", "]", "{", "}", "@", "`",
    "é", "²", "٣", " ", "\u0085", " ", "\x1c",
]
_c_like = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join),
    st.text(alphabet="".join(set("".join(_FRAGMENTS))), max_size=60),
)


@settings(max_examples=2000, deadline=None)
@given(_c_like)
def test_tokenize_matches_reference_scanner(source):
    try:
        expected = reference_tokenize(source)
    except TokenizeError as exc:
        with pytest.raises(TokenizeError) as raised:
            tokenize(source)
        assert str(raised.value) == str(exc)
        return
    got = [(t.kind, t.text, t.line, t.start, t.end) for t in tokenize(source)]
    assert got == expected


def _facts(scanned):
    """What ``scan`` found, with each ACSL comment's ``code_index`` read as the
    compare text it points at (None past the end)."""
    comparable, file_scope, acsl = scanned
    texts = comparable.texts
    comments = [
        (text, line, depth, texts[i] if i < len(texts) else None)
        for text, line, depth, i in acsl
    ]
    return list(zip(texts, comparable.lines, comparable.cols)), file_scope, comments


def _reference_facts(source):
    """``_facts`` of a walk over the frozen scanner's tokens; a column is a
    token's start minus its line's start."""
    tokens = [Token(*t) for t in reference_tokenize(source)]
    code_tokens = [t for t in tokens if t.kind not in _COMMENTS]
    comparable = [
        (text, line, token.start - source.rfind("\n", 0, token.start) - 1)
        for (text, line), token in zip(_comparable(source), code_tokens, strict=True)
    ]
    comments = []
    depth = 0
    for i, token in enumerate(tokens):
        if _is_acsl(token):
            after = next((t for t in tokens[i + 1 :] if t.kind not in _COMMENTS), None)
            code = None
            if after is not None:
                code = " ".join(after.text.split()) if after.kind is TokenKind.PREPROC else after.text
            comments.append((token.text, token.line, depth, code))
        elif token.kind is TokenKind.PUNCT and token.text in "{}":
            depth = depth + 1 if token.text == "{" else max(0, depth - 1)
    return comparable, frozenset(_file_scope_names(tokens)), comments


# Whole lines that recur across sources: code, a CRLF line, the halves of a
# block comment, a continued directive and a string and char continued by a
# backslash and LF or CR LF.
_SHARED_LINES = [
    "}", "x = 1;", "x = 1;\r", "  }  ", "/* open {", "} close */",
    "#define A \\", '"a\\', '"a\\\r', 'b"', "'\\", "'\\\r", "'",
]
# Lines for the scan's memo: code that opens and closes braces (so a line
# recurs at several depths, and a "}" can be stray at depth 0), names at and
# below file scope, directives and a lone '#', '//@' lines, '/*@' comments
# that span lines or close mid-line, and string and char literals.
_SCAN_LINES = _SHARED_LINES + [
    "{", "} else {", "} y;", "int g;", "x = y + 1;", "for (i = 0; i < n; i++) {", "do {",
    "int f(int *p) {", "} } int h;", "#define N 3", "# define  M\t(2)", "#", "  # ", "#if X",
    "//@ assert x;", "//@ loop invariant 0 <= i; {", "x = 1; //@ assert x == 1;", "//@",
    "/*@ requires p;", "  @ assigns *p; */ int k(int q);", "/*@ ghost int k; */ k = 1; /*@ assert k; */ }",
    "/*@ loop assigns i; */ /* c */ while (i) {", "{ //@ assert y;", "} /*@ assert z; */ {",
    "/* { */ x;", "*/ y = 2;",
    's = "a { b";', "c = '}';", "c = '\\'';",
]


@st.composite
def _sources_sharing_lines(draw):
    made = st.lists(st.sampled_from(_FRAGMENTS), max_size=8).map("".join)
    lines = st.sampled_from(draw(st.lists(made, min_size=1, max_size=4)) + _SCAN_LINES)
    source = st.builds(
        lambda body, newline: "\n".join(body) + newline,
        st.lists(lines, max_size=12),
        st.sampled_from(["", "\n"]),
    )
    return draw(st.lists(source, min_size=2, max_size=5))


@settings(max_examples=1500, deadline=None)
@given(_sources_sharing_lines(), st.randoms(use_true_random=False))
def test_scan_matches_a_walk_over_the_reference_tokens(sources, rng):
    rng.shuffle(sources)
    seen: dict = {}  # one memo for all of them, as a run shares it among replies
    for source in sources:
        try:
            expected = _reference_facts(source)
        except TokenizeError as exc:
            with pytest.raises(TokenizeError) as raised:
                scan(source, seen)
            assert str(raised.value) == str(exc)
            continue
        assert _facts(scan(source, seen)) == expected


@pytest.mark.parametrize(
    "later",
    [
        "/*\n}\nx = 1;\n*/ y;\n",
        "/*\r\n}\r\nx = 1;\r\n*/ y;\r\n",
        "/*@ requires p;\nx = 1;\n}\n*/\n",
        "#define M \\\nx = 1; \\\nx = 1;\n",
        "#define M \\\r\nx = 1;\\\n  x = 1;\r\n y = M;\n",
        's = "a\\\nx = 1; \\\n"; t;\n',
        's = "a\\\r\nx = 1;\\\r\nx = 1; \\\n"; t;\r\n',
    ],
    ids=["comment", "comment-crlf", "acsl", "directive", "directive-crlf", "literal", "literal-crlf"],
)
def test_a_line_seen_as_code_is_not_reused_inside_a_comment_directive_or_literal(later):
    seen: dict = {}
    scan("x = 1;\n}\nx = 1;\r\nx = 1;\\\r\nx = 1; \\\n", seen)
    assert {
        ("x = 1;", 0), ("}", 0), ("x = 1;\r", 0), ("x = 1;\\\r", 0), ("x = 1; \\", 0)
    } <= seen.keys()
    assert _facts(scan(later, seen)) == _facts(scan(later, {})) == _reference_facts(later)
    assert not any(t.text in ("x", "}") for t in tokenize(later))


@pytest.mark.parametrize("end", ["", "\n"])
def test_a_source_scanned_again_through_its_memo_lexes_nothing(monkeypatch, end):
    # a split reply's code ends without a newline, so its last line is one
    source = "#define N 3\nint f(int a) {\n  //@ assert a;\n  return a + N;\n}" + end
    seen: dict = {}
    first = _facts(scan(source, seen))
    lexed = []
    lex = lexer._lex
    monkeypatch.setattr(lexer, "_lex", lambda *args: lexed.append(args[1:]) or lex(*args))
    assert _facts(scan(source, seen)) == first == _reference_facts(source)
    assert lexed == []


def test_a_last_line_ending_in_a_backslash_is_not_memoized():
    # followed by a newline, the directive would run on into the next line
    seen: dict = {}
    scan("#define X \\", seen)
    later = "#define X \\\nY\n"
    assert _facts(scan(later, seen)) == _facts(scan(later, {})) == _reference_facts(later)
    assert _facts(scan(later, {}))[0] == [("#define X \\ Y", 1, 0)]


def test_a_line_reached_at_two_depths_gets_one_entry_per_depth():
    seen: dict = {}
    scan("{\n} g; {\n", seen)  # "} g; {" reached at depth 1, where g is at file scope
    assert [key for key in seen if key[0] == "} g; {"] == [("} g; {", 1)]
    comparable, file_scope, _ = scan("} g; {\nint h;\n", seen)
    # at depth 0 the "}" is stray: the depth stays 0, so "{" leaves h inside a body
    assert [key for key in seen if key[0] == "} g; {"] == [("} g; {", 1), ("} g; {", 0)]
    assert file_scope == {"g"}
    assert _facts((comparable, file_scope, [])) == _reference_facts("} g; {\nint h;\n")


def test_tokenize_matches_reference_on_shipped_sources(corpus_load):
    sources = [e.program.source for e in corpus_load.entries]
    sources += [
        split_response(p.read_text(encoding="utf-8")).code
        for p in sorted(FIXTURES_DIR.rglob("*.txt"))
    ]
    for source in sources:
        got = [(t.kind, t.text, t.line, t.start, t.end) for t in tokenize(source)]
        assert got == reference_tokenize(source)


# Whole annotations and file-scope shapes, so generated sources hold clause
# bodies, contracts before headers, braces and #define lines.
_ANALYSIS_FRAGMENTS = [
    "/*@ requires x > 0;\n  assigns *p, g; */",
    "/*@ behavior b: assumes x; assigns y; */",
    "/*@ loop invariant 0 <= i; loop assigns i; loop variant n - i; */",
    "//@ assigns q;\n",
    "//@ assert x;",
    "int f(int *p)",
    "int g;",
    "#define N 3\n",
    "# define  M\t(2)\n",
    "for",
    "{",
    "}",
]
_c_with_acsl = st.lists(
    st.sampled_from(_FRAGMENTS + _ANALYSIS_FRAGMENTS), max_size=40
).map("".join)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_c_like, _c_with_acsl))
def test_one_walk_matches_the_reference_facts(source):
    try:
        analyzed = parse_blocks(source)
    except TokenizeError:
        return
    comparable = analyzed.comparable
    assert list(zip(comparable.texts, comparable.lines)) == _comparable(source)
    reference_tokens = [Token(*t) for t in reference_tokenize(source)]
    reference_scope = frozenset(_file_scope_names(reference_tokens))
    assert analyzed.file_scope == reference_scope
    # lint of the scan, against lint fed the frozen oracle's file-scope names.
    assert lint(analyzed) == lint(replace(analyzed, file_scope=reference_scope))
