"""Deterministic single-typo mutants of C programs.

Four typo classes are modeled: swapping the index pair of a 2-D array access,
substituting a condition variable with a neighbor from the same line, widening
or narrowing a relational operator, and flipping an additive operator. Sites
are enumerated in source order; ``mutate`` picks one with a seeded generator,
so the same (program bytes, seed) always reproduces the same mutant.

``enumerate_sites`` and ``mutate`` share one pass over the non-comment
tokens' texts and lines (``_choices``): each operator token and each
condition-header name is a single-token choice, with one site per
replacement. ``enumerate_sites`` tokenizes the program and builds every
site; ``mutate`` takes the texts and lines from ``scan``, counts the sites,
draws the k-th, and lexes and builds only that one, so it draws what
picking from ``enumerate_sites``' single-token sites would.

Mutants carry a contract: the parent and mutant token streams differ in
exactly one position. A full index-pair swap edits two token positions, so
index-swap sites are enumerated (and can be applied explicitly through
``apply_site``) but are never drawn by ``mutate``.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Sequence

from .analyzer.lexer import (
    C_KEYWORDS,
    ID_START,
    Token,
    TokenizeError,
    TokenKind,
    line_tokens,
    scan,
    tokenize,
)
from .model import NoMutationSite, Origin, Record, SourceProgram  # NoMutationSite re-exported


class MutationOperator(str, Enum):
    INDEX_SWAP = "index_swap"
    VARIABLE_SUBSTITUTION = "variable_substitution"
    RELATIONAL_FLIP = "relational_flip"
    ARITHMETIC_OPERATOR_SWAP = "arithmetic_operator_swap"


@dataclass(frozen=True)
class MutationSite:
    """One applicable typo: where it is, what it reads now, what it becomes.

    ``edits`` are (start, end, new_text) splices into the source;
    single-edit sites are the ones ``mutate`` may select.
    """

    operator: MutationOperator
    line: int
    token: str
    replacement: str
    edits: tuple[tuple[int, int, str], ...]

    @property
    def single_token(self) -> bool:
        return len(self.edits) == 1


@dataclass(frozen=True, eq=False, repr=False)
class MutationRecord(Record):
    mutation_id: str
    operator: MutationOperator
    line: int
    original_token: str
    mutated_token: str
    seed: int

    def __post_init__(self) -> None:
        if self.original_token == self.mutated_token:
            raise ValueError("mutation must change the token")


_OPERATOR_SWAPS = {  # token -> (operator, replacement)
    "<": (MutationOperator.RELATIONAL_FLIP, "<="),
    "<=": (MutationOperator.RELATIONAL_FLIP, "<"),
    ">": (MutationOperator.RELATIONAL_FLIP, ">="),
    ">=": (MutationOperator.RELATIONAL_FLIP, ">"),
    "+": (MutationOperator.ARITHMETIC_OPERATOR_SWAP, "-"),
    "-": (MutationOperator.ARITHMETIC_OPERATOR_SWAP, "+"),
}
_CONDITION_HEADS = frozenset(("if", "while", "for"))


def _choices(
    texts: Sequence[str], lines: Sequence[int]
) -> tuple[list[int], dict[int, set[str]]]:
    """The indices of the single-token choices among a source's non-comment
    tokens, given as their texts and lines, in source order; and each line's
    candidate names.

    A choice is an operator token, or a candidate name inside an ``if``,
    ``while`` or ``for`` header. A candidate name is a non-keyword identifier
    that no ``(`` follows (not in call position); a name's replacements are
    the other candidate names on its line, later ones included. An
    identifier is a text that starts like one; a directive's text starts
    with ``#``, so its layout does not matter.
    """
    choices: list[int] = []
    names: dict[int, set[str]] = defaultdict(set)
    depth = 0  # parenthesis depth inside a condition header; 0 outside one
    before = ""  # the last token's text
    for i, (text, line, after) in enumerate(zip(texts, lines, [*texts[1:], ""])):
        if text[0] in ID_START:
            if text not in C_KEYWORDS and after != "(":
                names[line].add(text)
                if depth:
                    choices.append(i)
        elif text == "(":
            if depth or before in _CONDITION_HEADS:
                depth += 1
        elif text == ")":
            if depth:
                depth -= 1
        elif text in _OPERATOR_SWAPS:
            choices.append(i)
        before = text
    return choices, names


def _replacements(text: str, line: int, names: dict[int, set[str]]) -> list[str]:
    """What a choice can become, in the order its sites sort."""
    if text in _OPERATOR_SWAPS:
        return [_OPERATOR_SWAPS[text][1]]
    return sorted(names[line] - {text})


def _site(token: Token, replacement: str) -> MutationSite:
    operator = MutationOperator.VARIABLE_SUBSTITUTION
    if token.text in _OPERATOR_SWAPS:
        operator = _OPERATOR_SWAPS[token.text][0]
    edits = ((token.start, token.end, replacement),)
    return MutationSite(operator, token.line, token.text, replacement, edits)


def _index_swap_sites(tokens: list[Token]) -> list[MutationSite]:
    """2-D accesses ``base[a][b]`` with distinct single-token indices."""
    sites: list[MutationSite] = []
    single = (TokenKind.ID, TokenKind.NUMBER)
    for i in range(len(tokens) - 6):
        window = tokens[i : i + 7]
        if (
            window[0].kind is TokenKind.ID
            and window[0].text not in C_KEYWORDS
            and window[1].text == "["
            and window[2].kind in single
            and window[3].text == "]"
            and window[4].text == "["
            and window[5].kind in single
            and window[6].text == "]"
            and window[2].text != window[5].text
        ):
            base, first, second = window[0], window[2], window[5]
            sites.append(
                MutationSite(
                    operator=MutationOperator.INDEX_SWAP,
                    line=base.line,
                    token=f"{base.text}[{first.text}][{second.text}]",
                    replacement=f"{base.text}[{second.text}][{first.text}]",
                    edits=(
                        (first.start, first.end, second.text),
                        (second.start, second.end, first.text),
                    ),
                )
            )
    return sites


def enumerate_sites(program: SourceProgram) -> list[MutationSite]:
    """Every applicable typo site, ordered by source position.

    Tokenizes the whole program for the sites' offsets. Each single-token
    choice of ``mutate``'s pass (``_choices``, over the tokens' texts and
    lines) becomes one site per replacement; the index-swap sites join them,
    and the sort puts them in the order ``mutate`` counts (an index swap,
    never drawn, sorts before a substitution at the same position).
    """
    tokens = [t for t in tokenize(program.source) if not t.is_comment]
    choices, names = _choices([t.text for t in tokens], [t.line for t in tokens])
    sites = [
        _site(tokens[i], r)
        for i in choices
        for r in _replacements(tokens[i].text, tokens[i].line, names)
    ]
    sites += _index_swap_sites(tokens)
    sites.sort(key=lambda s: (s.edits[0][0], s.operator.value, s.replacement))
    return sites


def apply_site(source: str, site: MutationSite) -> str:
    """Splice a site's edits into the source text."""
    out = source
    for start, end, new_text in sorted(site.edits, reverse=True):
        out = out[:start] + new_text + out[end:]
    return out


def _token_at(source: str, texts: Sequence[str], lines: Sequence[int], index: int) -> Token:
    """The ``index``-th non-comment token of ``source``, whose texts and lines
    ``scan`` gave, found by lexing only its line where that is exact.

    The line starts after the (line - 1)-th newline. It is lexed from its
    start, and also from just after its first ``*/``, in case a comment from
    an earlier line closes there; the tokens of the one place that
    reproduces ``texts`` for the line give the offsets. A literal with an
    escaped newline before the line (it may run into the line, and the scan
    then stands inside it) or no such single place falls back to tokenizing
    the whole source.
    """
    line = lines[index]
    first, last = bisect_left(lines, line), bisect_right(lines, line)
    if "\\\n" not in source or "\n" not in "".join(texts[:first]):
        # No literal before the line spans a newline, so the scan stands at
        # the line start unless a comment runs into the line; a directive
        # would take the whole line.
        start = len(source) - len(source.split("\n", line - 1)[-1])
        end = source.find("\n", start)
        close = source.find("*/", start, len(source) if end == -1 else end)
        found = set()
        for pos in (start,) if close == -1 else (start, close + 2):
            try:
                tokens = [t for t in line_tokens(source, pos, line) if not t.is_comment]
            except TokenizeError:
                continue
            if [t.text for t in tokens] == list(texts[first:last]):
                found.add(tokens[index - first])
        if len(found) == 1:
            return found.pop()
    return [t for t in tokenize(source) if not t.is_comment][index]


def mutate(program: SourceProgram, seed: int) -> tuple[SourceProgram, MutationRecord]:
    """Apply one seeded single-token typo; same (program, seed) → same mutant.

    Scans the program (``scan``, whose line memo lexes a repeated line once)
    and counts the single-token sites without building them: an operator
    token is one site, a condition-header name one per other candidate name
    on its line. The seed draws the k-th of them in ``enumerate_sites``'
    order, the site that drawing from that list would give. Only that site
    is built: only its name pool is sorted, and only its line is lexed for
    offsets (``_token_at``, which tokenizes the whole program where the line
    alone could mislead). Raises NoMutationSite when no single-token site
    exists.
    """
    comparable, _, _ = scan(program.source, {})
    texts, lines = comparable.texts, comparable.lines
    choices, names = _choices(texts, lines)
    totals = list(
        accumulate(
            1 if texts[i] in _OPERATOR_SWAPS else len(names[lines[i]]) - 1 for i in choices
        )
    )
    if not totals or not totals[-1]:
        raise NoMutationSite(f"no single-token mutation site in {program.name!r}")
    k = random.Random(seed).randrange(totals[-1])
    i = bisect_right(totals, k)
    index = choices[i]
    replacement = _replacements(texts[index], lines[index], names)[k - (totals[i - 1] if i else 0)]
    site = _site(_token_at(program.source, texts, lines, index), replacement)
    mutation_id = f"{site.operator.value}-l{site.line}-s{seed}"
    record = MutationRecord(
        mutation_id=mutation_id,
        operator=site.operator,
        line=site.line,
        original_token=site.token,
        mutated_token=site.replacement,
        seed=seed,
    )
    mutant = SourceProgram(
        name=f"{program.name}.mut-{mutation_id}",
        source=apply_site(program.source, site),
        entry_function=program.entry_function,
        origin=Origin.mutant(parent_name=program.name, mutation_id=mutation_id),
    )
    return mutant, record
