"""Deterministic single-typo mutants of C programs.

Four typo classes are modeled: swapping the index pair of a 2-D array access,
substituting a condition variable with a neighbor from the same line, widening
or narrowing a relational operator, and flipping an additive operator. Sites
are enumerated in source order; ``mutate`` picks one with a seeded generator,
so the same (program bytes, seed) always reproduces the same mutant.

``enumerate_sites`` and ``mutate`` share one pass over the tokens
(``_choices``): each operator token and each condition-header name is a
single-token choice, with one site per replacement. ``enumerate_sites``
builds every site; ``mutate`` counts the sites, draws the k-th, and builds
only that one, so it draws what picking from ``enumerate_sites``'
single-token sites would.

Mutants carry a contract: the parent and mutant token streams differ in
exactly one position. A full index-pair swap edits two token positions, so
index-swap sites are enumerated (and can be applied explicitly through
``apply_site``) but are never drawn by ``mutate``.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate

from .analyzer.lexer import C_KEYWORDS, Token, TokenKind, tokenize
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


def _choices(tokens: list[Token]) -> tuple[list[Token], dict[int, set[str]]]:
    """The single-token choices among ``tokens`` (no comments), in source order,
    and each line's candidate names.

    A choice is an operator token, or a candidate name inside an ``if``,
    ``while`` or ``for`` header. A candidate name is a non-keyword identifier
    that no ``(`` follows (not in call position); a name's replacements are
    the other candidate names on its line, later ones included.
    """
    choices: list[Token] = []
    names: dict[int, set[str]] = defaultdict(set)
    depth = 0  # parenthesis depth inside a condition header; 0 outside one
    before = ""  # the last token's text
    for t, after in zip(tokens, [other.text for other in tokens[1:]] + [""]):
        kind, text, line, _, _ = t
        if kind is TokenKind.ID:
            if text not in C_KEYWORDS and after != "(":
                names[line].add(text)
                if depth:
                    choices.append(t)
        elif text == "(":
            if depth or before in _CONDITION_HEADS:
                depth += 1
        elif text == ")":
            if depth:
                depth -= 1
        elif text in _OPERATOR_SWAPS and kind is TokenKind.PUNCT:
            choices.append(t)
        before = text
    return choices, names


def _replacements(token: Token, names: dict[int, set[str]]) -> list[str]:
    """What a choice can become, in the order its sites sort."""
    if token.kind is TokenKind.PUNCT:
        return [_OPERATOR_SWAPS[token.text][1]]
    return sorted(names[token.line] - {token.text})


def _site(token: Token, replacement: str) -> MutationSite:
    operator = MutationOperator.VARIABLE_SUBSTITUTION
    if token.kind is TokenKind.PUNCT:
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

    Each single-token choice of ``mutate``'s pass becomes one site per
    replacement; the index-swap sites join them, and the sort puts them in
    the order ``mutate`` counts (an index swap, never drawn, sorts before a
    substitution at the same position).
    """
    tokens = [t for t in tokenize(program.source) if not t.is_comment]
    choices, names = _choices(tokens)
    sites = [_site(t, r) for t in choices for r in _replacements(t, names)]
    sites += _index_swap_sites(tokens)
    sites.sort(key=lambda s: (s.edits[0][0], s.operator.value, s.replacement))
    return sites


def apply_site(source: str, site: MutationSite) -> str:
    """Splice a site's edits into the source text."""
    out = source
    for start, end, new_text in sorted(site.edits, reverse=True):
        out = out[:start] + new_text + out[end:]
    return out


def mutate(program: SourceProgram, seed: int) -> tuple[SourceProgram, MutationRecord]:
    """Apply one seeded single-token typo; same (program, seed) → same mutant.

    Tokenizes once and counts the single-token sites without building them:
    an operator token is one site, a condition-header name one per other
    candidate name on its line. The seed draws the k-th of them in
    ``enumerate_sites``' order, the site that drawing from that list would
    give, and only that site is built (only its name pool is sorted).
    Raises NoMutationSite when no single-token site exists.
    """
    choices, names = _choices([t for t in tokenize(program.source) if not t.is_comment])
    totals = list(
        accumulate(
            1 if t.kind is TokenKind.PUNCT else len(names[t.line]) - 1 for t in choices
        )
    )
    if not totals or not totals[-1]:
        raise NoMutationSite(f"no single-token mutation site in {program.name!r}")
    k = random.Random(seed).randrange(totals[-1])
    i = bisect_right(totals, k)
    token = choices[i]
    site = _site(token, _replacements(token, names)[k - (totals[i - 1] if i else 0)])
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
