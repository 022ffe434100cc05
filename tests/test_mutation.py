from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR, load_synth, oracle_tokens
from reference_mutation import (
    reference_enumerate_sites,
    reference_identifier_sites,
    reference_mutate,
)
from specforge import mutation
from specforge.analyzer import lexer
from specforge.analyzer.lexer import TokenizeError, TokenKind, tokenize
from specforge.model import SourceProgram
from specforge.mutation import (
    MutationOperator,
    MutationRecord,
    NoMutationSite,
    apply_site,
    enumerate_sites,
    mutate,
)
from specforge.runner import load_corpus

TRITYPE_COND = SourceProgram(
    name="tritype",
    source=(
        "int tritype(int i, int j, int k) {\n"
        "    int type_code;\n"
        "    type_code = 1;\n"
        "    if ((i+j <= k) || (j+k <= i) || (i+k <= j))\n"
        "        type_code = 4;\n"
        "    return type_code;\n"
        "}\n"
    ),
)

LEV_INIT = SourceProgram(
    name="lev_init",
    source=(
        "void init(int len1, int len2) {\n"
        "    int matrix[10][10];\n"
        "    for (int x = 0; x <= len1; x++) matrix[0][x] = x;\n"
        "}\n"
    ),
)


def test_variable_substitution_site_produces_neighbor_swap():
    sites = enumerate_sites(TRITYPE_COND)
    hits = [
        s
        for s in sites
        if s.operator is MutationOperator.VARIABLE_SUBSTITUTION
        and "(i+k <= i)" in apply_site(TRITYPE_COND.source, s)
    ]
    assert hits, "expected a substitution turning (j+k <= i) into (i+k <= i)"
    assert hits[0].token == "j" and hits[0].replacement == "i"


def test_index_swap_site_enumerated():
    sites = [
        s
        for s in enumerate_sites(LEV_INIT)
        if s.operator is MutationOperator.INDEX_SWAP
    ]
    assert any(
        "matrix[x][0]" in apply_site(LEV_INIT.source, s) for s in sites
    ), "expected an index swap producing matrix[x][0]"
    # a full pair swap edits two token positions, so it is enumerable but
    # never drawn by mutate()
    assert all(not s.single_token for s in sites)


def test_relational_and_arithmetic_sites():
    program = SourceProgram(name="p", source="int f(int a, int b) { return a < b ? a + b : a; }\n")
    operators = {s.operator for s in enumerate_sites(program)}
    assert MutationOperator.RELATIONAL_FLIP in operators
    assert MutationOperator.ARITHMETIC_OPERATOR_SWAP in operators
    flips = [
        s for s in enumerate_sites(program) if s.operator is MutationOperator.RELATIONAL_FLIP
    ]
    assert flips[0].token == "<" and flips[0].replacement == "<="


def test_no_sites_on_operator_free_program():
    program = SourceProgram(name="flat", source="int f(void) { return 0; }\n")
    assert enumerate_sites(program) == []
    with pytest.raises(NoMutationSite):
        mutate(program, seed=1)


def test_swap_only_program_has_sites_but_no_drawable_mutation():
    program = SourceProgram(
        name="swaps_only", source="void f(int m[2][3]) { m[0][1] = 2; }\n"
    )
    sites = enumerate_sites(program)
    assert sites and all(s.operator is MutationOperator.INDEX_SWAP for s in sites)
    with pytest.raises(NoMutationSite):
        mutate(program, seed=1)


def test_mutate_is_deterministic():
    first = mutate(TRITYPE_COND, seed=7)
    second = mutate(TRITYPE_COND, seed=7)
    assert first[0].source == second[0].source
    assert first[1] == second[1]


def test_some_seed_selects_the_condition_substitution(corpus_load):
    tritype = next(
        e.program for e in corpus_load.entries if e.program.name == "tritype"
    )
    hit = None
    for seed in range(500):
        mutant, record = mutate(tritype, seed)
        if "(i+k <= i)" in mutant.source:
            hit = (seed, record)
            break
    assert hit is not None, "no seed produced the neighbor-substituted condition"
    _, record = hit
    assert record.operator is MutationOperator.VARIABLE_SUBSTITUTION
    assert (record.original_token, record.mutated_token) == ("j", "i")


def test_mutate_seeds_cover_multiple_sites():
    outcomes = {mutate(TRITYPE_COND, seed=s)[0].source for s in range(30)}
    assert len(outcomes) > 3


def test_mutant_origin_and_record_agree():
    mutant, record = mutate(TRITYPE_COND, seed=3)
    assert mutant.origin.kind == "mutant"
    assert mutant.origin.parent_name == "tritype"
    assert mutant.origin.mutation_id == record.mutation_id
    assert record.original_token != record.mutated_token
    assert MutationRecord.from_dict(record.to_dict()) == record


def test_single_token_delta_against_oracle():
    parent_tokens = oracle_tokens(TRITYPE_COND.source)
    for seed in range(50):
        mutant, record = mutate(TRITYPE_COND, seed=seed)
        mutant_tokens = oracle_tokens(mutant.source)
        assert len(mutant_tokens) == len(parent_tokens)
        deltas = [
            (a, b) for a, b in zip(parent_tokens, mutant_tokens) if a != b
        ]
        assert len(deltas) == 1, record
        assert deltas[0] == (record.original_token, record.mutated_token)


def test_mutants_retokenize(corpus_load):
    from specforge.analyzer import tokenize

    for entry in corpus_load.entries:
        try:
            mutant, _ = mutate(entry.program, seed=11)
        except NoMutationSite:
            continue
        tokenize(mutant.source)  # must not raise


def test_substitution_pool_is_same_line_identifiers():
    program = SourceProgram(
        name="p",
        source=(
            "int f(int a, int b, int unrelated) {\n"
            "    if (a < b) return a;\n"
            "    return unrelated;\n"
            "}\n"
        ),
    )
    subs = [
        s
        for s in enumerate_sites(program)
        if s.operator is MutationOperator.VARIABLE_SUBSTITUTION
    ]
    replacements = {s.replacement for s in subs}
    assert replacements <= {"a", "b"}  # nothing dragged in from other lines
    assert "unrelated" not in replacements


def test_call_position_identifiers_excluded():
    program = SourceProgram(
        name="p",
        source="int f(int n) { if (g(n) < n) return 1; return 0; }\n",
    )
    subs = [
        s
        for s in enumerate_sites(program)
        if s.operator is MutationOperator.VARIABLE_SUBSTITUTION
    ]
    assert all(s.token != "g" and s.replacement != "g" for s in subs)


def test_sites_sorted_by_source_position():
    sites = enumerate_sites(TRITYPE_COND)
    starts = [s.edits[0][0] for s in sites]
    assert starts == sorted(starts)


def test_enumerate_sites_unchanged_on_shipped_corpus(corpus_load):
    # Digest of every site's fields over the shipped corpus, recorded from
    # the implementation that scanned the rest of the token list per token.
    rows = [
        [
            entry.program.name, site.operator.value, site.line, site.token,
            site.replacement, [list(edit) for edit in site.edits],
        ]
        for entry in corpus_load.entries
        for site in enumerate_sites(entry.program)
    ]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert len(rows) == 523
    assert digest == "51f52cb3b2f2f3c766239a6c1c1a0daa672ebfd3552a014beb8636634101cfd0"


# Condition headers with repeated, called and keyword identifiers on one line
# or across lines.
_C_PIECES = st.sampled_from([
    "if (", "while (", "for (", "(", ")", "a", "b", "len1", "x", "a", "g(", "int ",
    "return ", "sizeof", " < ", " + ", " == ", "; ", ", ", "[", "]", "{", "}", "\n",
])


@settings(max_examples=300, deadline=None)
@given(st.lists(_C_PIECES, min_size=1, max_size=40).map("".join))
def test_identifier_sites_match_reference(source):
    comments = (TokenKind.COMMENT, TokenKind.LINE_COMMENT)
    tokens = [t for t in tokenize(source) if t.kind not in comments]
    substitutions = [
        s
        for s in enumerate_sites(SourceProgram(name="p", source=source))
        if s.operator is MutationOperator.VARIABLE_SUBSTITUTION
    ]
    assert substitutions == reference_identifier_sites(tokens)


def _drawn(draw, program, seed):
    try:
        return draw(program, seed)
    except (NoMutationSite, TokenizeError) as e:
        return str(e)


# The pieces above plus what the draw's pass must step over or through:
# comments between a name or a head and its '(', heads no '(' follows,
# strings and characters holding parentheses, directives, and headers nested
# in headers.
_DRAW_PIECES = st.one_of(
    _C_PIECES,
    st.sampled_from([
        "/* c */", "/*@ requires a < b; */", "// if (a < b)\n", "g /* c */ (",
        "if /* c */ (", "if ", "for ", "while ; (", "if 0 (", "\"(x + \"", "'('",
        "#define M(a) (a < b)\n", "\n#if x > 0\n", "if (a < (b + g(x)))",
        "while (for (a; b <= x; ))", "m[a][b]", "len1 - x", "0",
    ]),
)


@settings(max_examples=400, deadline=None)
@example("while ; (a < b) if /* c */ (x + len1 < g /* c */ (a))\n", list(range(12)))
@given(
    st.lists(_DRAW_PIECES, min_size=1, max_size=40).map("".join),
    st.lists(st.integers(min_value=0, max_value=2**64), min_size=1, max_size=8),
)
def test_mutate_draws_what_building_every_site_draws(source, seeds):
    program = SourceProgram(name="p", source=source)
    assert enumerate_sites(program) == reference_enumerate_sites(program)
    for seed in seeds:
        assert _drawn(mutate, program, seed) == _drawn(reference_mutate, program, seed)


def _shipped_mutations(entries) -> tuple[int, str]:
    """How many (program, seed) draws for seeds 0-49, and the digest of their
    mutants and records."""
    rows = []
    for entry in entries:
        for seed in range(50):
            outcome = _drawn(mutate, entry.program, seed)
            if isinstance(outcome, str):
                rows.append([entry.program.name, seed, None])
            else:
                mutant, record = outcome
                rows.append([entry.program.name, seed, mutant.to_dict(), record.to_dict()])
    return len(rows), hashlib.sha256(json.dumps(rows).encode()).hexdigest()


# Recorded from the implementation that built every site to draw one.
SHIPPED_MUTATIONS = (550, "dd9207b480ec895c6fc115d11a9d6ad8245675641af33cde2b4c9e739d07e95a")


def test_mutate_unchanged_on_shipped_corpus(corpus_load):
    assert _shipped_mutations(corpus_load.entries) == SHIPPED_MUTATIONS


def test_mutate_scans_no_loaded_program(monkeypatch):
    # ``load_corpus`` keeps each program's scan on the program, and ``mutate``
    # reads it there: with every way to ``scan`` gone, the draws are the same.
    entries = load_corpus(CORPUS_DIR).entries

    def scanned(source, seen):
        raise AssertionError("mutate scanned a loaded program")

    monkeypatch.setattr(lexer, "scan", scanned)
    monkeypatch.setattr(mutation, "scan", scanned, raising=False)
    assert _shipped_mutations(entries) == SHIPPED_MUTATIONS


def test_mutate_scans_a_program_built_elsewhere_on_first_use(monkeypatch):
    scans = []
    scan = lexer.scan
    monkeypatch.setattr(
        lexer, "scan", lambda source, seen: scans.append(source) or scan(source, seen)
    )
    program = SourceProgram(name="tritype", source=TRITYPE_COND.source)
    for seed in range(5):
        mutate(program, seed)
    assert scans == [program.source]


# Lines of the shipped programs that lex alone, and multi-line pieces that
# put the drawn token's line where lexing it alone could mislead: comments
# that open on one line and close on the next (before code, or around quotes
# and '<'), continued directives, literals holding operators or an escaped
# newline, headers split across lines, and a line whose standalone lexing and
# whose lexing after the comment it closes read the same texts.
def _lexes(line: str) -> bool:
    try:
        tokenize(line)
    except TokenizeError:
        return False
    return True


_SHIPPED_LINES = sorted(
    {
        line
        for path in CORPUS_DIR.glob("*/program.c")
        for line in path.read_text(encoding="utf-8").splitlines()
        if _lexes(line)
    }
)
_EDGE_PIECES = [
    "/* it's\n   a < b */",
    "/* spans 'x' <\n   lines */ if (a < b + 1) s = s + a;",
    "/*@ requires n < 'q';\n    ensures a + b < n; */ while (i < n) i = i + 1;",
    "#define MAX(a, b) \\\n    ((a) < (b) ? (b) : (a))",
    "#define STEP(x) \\\n  if (x < 1) \\\n    x = x + 1",
    's = "a < b + c"; if (s < t) t = t - 1;',
    'if (n < 2) puts("<+");',
    'p = "x < \\\ny + 1"; if (p < q) q = q + p;',
    "if (a <\n    b + c) a = a - 1;",
    "while (i\n  < n &&\n  j > 0) j = j - i;",
    "/* open\nif (a < b //*/ if (a < b\n) s = s - 1;",
]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(_SHIPPED_LINES), st.sampled_from(_EDGE_PIECES)),
        min_size=1,
        max_size=16,
    ).map(lambda lines: "\n".join(lines) + "\n")
)
def test_mutate_matches_the_reference_around_multi_line_tokens(source):
    program = SourceProgram(name="p", source=source)
    for seed in range(50):
        assert _drawn(mutate, program, seed) == _drawn(reference_mutate, program, seed)


@pytest.mark.parametrize(
    "source",
    [
        # a line holding '*/', where a comment closes before the drawn token
        "/* c\n */ if (a < b) a = b;\n",
        "/* c\nif (a < b //*/ if (a < b\n) a = b;\n",
        # a line after a closed comment, with none of its own
        "/* c\n */\nif (a < b) a = b;\n",
        # a literal with an escaped newline before the drawn line
        's = "\\\n";\nif (a < b) a = b;\nif (a < b) a = b;\n',
        # and one continued by a backslash, CR and LF
        's = "\\\r\n";\nif (a < b) a = b;\nif (a < b) a = b;\n',
    ],
)
def test_mutate_and_enumerate_sites_take_offsets_from_the_scan(monkeypatch, source):
    calls = []

    def counted(source):
        calls.append(source)
        return tokenize(source)

    monkeypatch.setattr(lexer, "tokenize", counted)
    monkeypatch.setattr(mutation, "tokenize", counted)
    program = SourceProgram(name="p", source=source)
    drawn = [mutate(program, seed) for seed in range(10)]
    sites = enumerate_sites(program)
    assert calls == []
    assert drawn == [reference_mutate(program, seed) for seed in range(10)]
    assert sites == reference_enumerate_sites(program)


@pytest.mark.parametrize("seed", [41, 7, 902])
def test_enumerate_sites_matches_the_reference_on_synthetic_parents(
    monkeypatch, tmp_path, seed
):
    load_synth(monkeypatch).generate(tmp_path, seed, 7)
    parents = [
        e.program for e in load_corpus(tmp_path / "corpus").entries
        if e.program.origin.kind == "original"
    ]
    assert len(parents) == 7
    for program in parents:
        assert enumerate_sites(program) == reference_enumerate_sites(program), program.name


def test_mutate_counts_a_newline_escaped_in_a_literal_as_a_line():
    program = SourceProgram(name="p", source='s = "\\\n";\nif (a < b) a = b;\n')
    _, record = mutate(program, 0)
    assert record.line == 3  # the physical line of the drawn token
    assert record.mutation_id == f"{record.operator.value}-l3-s0"
