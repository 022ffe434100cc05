"""Deterministic single-typo mutants of C programs.

Four typo classes are modeled: swapping the index pair of a 2-D array access,
substituting a condition variable with a neighbor from the same line, widening
or narrowing a relational operator, and flipping an additive operator. Sites
are enumerated in source order; ``mutate`` picks one with a seeded generator,
so the same (program bytes, seed) always reproduces the same mutant.

Both read the program's stream (``SourceProgram.comparable``: the texts,
lines and columns of its non-comment tokens) and share one pass over it
(``_choices``): each operator token and each condition-header name is a
single-token choice, with one site per replacement. A site's offset is its
line's start plus its column. ``enumerate_sites`` builds every site;
``mutate`` counts the sites, draws the k-th, and builds only that one, so it
draws what picking from ``enumerate_sites``' single-token sites would.

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
from typing import Sequence

from .analyzer.lexer import C_KEYWORDS, ID_START
from .analyzer.lexer import tokenize  # not called here; perfbench/spans.py counts calls through it
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


def _site(text: str, line: int, start: int, replacement: str) -> MutationSite:
    operator = MutationOperator.VARIABLE_SUBSTITUTION
    if text in _OPERATOR_SWAPS:
        operator = _OPERATOR_SWAPS[text][0]
    edits = ((start, start + len(text), replacement),)
    return MutationSite(operator, line, text, replacement, edits)


def _line_starts(source: str) -> list[int]:
    """The offset each physical line starts at, line 1 at index 1: a token's
    offset is its line's start plus its column."""
    return [0, *accumulate((len(line) + 1 for line in source.split("\n")), initial=0)]


def _single(text: str) -> bool:
    """Whether a token is an identifier or a number, read from its text: a
    number starts with a decimal digit, or a ``.`` and one, as the lexer's
    ``\\d`` reads them."""
    digits = text[1:2] if text[0] == "." else text[0]
    return text[0] in ID_START or digits.isdecimal()


def _index_swap_sites(
    texts: Sequence[str], lines: Sequence[int], offsets: Sequence[int]
) -> list[MutationSite]:
    """2-D accesses ``base[a][b]`` with distinct single-token indices."""
    sites: list[MutationSite] = []
    for i in range(len(texts) - 6):
        base, first, second = texts[i], texts[i + 2], texts[i + 5]
        if (
            base[0] in ID_START
            and base not in C_KEYWORDS
            and texts[i + 1] == "["
            and _single(first)
            and texts[i + 3] == "]"
            and texts[i + 4] == "["
            and _single(second)
            and texts[i + 6] == "]"
            and first != second
        ):
            at, to = offsets[i + 2], offsets[i + 5]
            sites.append(
                MutationSite(
                    operator=MutationOperator.INDEX_SWAP,
                    line=lines[i],
                    token=f"{base}[{first}][{second}]",
                    replacement=f"{base}[{second}][{first}]",
                    edits=((at, at + len(first), second), (to, to + len(second), first)),
                )
            )
    return sites


def enumerate_sites(program: SourceProgram) -> list[MutationSite]:
    """Every applicable typo site, ordered by source position.

    Reads the program's stream. Each single-token choice of ``mutate``'s
    pass (``_choices``) becomes one site per replacement; the index-swap
    sites join them, and the sort puts them in the order ``mutate`` counts
    (an index swap, never drawn, sorts before a substitution at the same
    position).
    """
    stream = program.comparable
    texts, lines = stream.texts, stream.lines
    starts = _line_starts(program.source)
    offsets = [starts[line] + col for line, col in zip(lines, stream.cols)]
    choices, names = _choices(texts, lines)
    sites = [
        _site(texts[i], lines[i], offsets[i], r)
        for i in choices
        for r in _replacements(texts[i], lines[i], names)
    ]
    sites += _index_swap_sites(texts, lines, offsets)
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

    Reads the program's stream (``program.comparable``: the scan
    ``load_corpus`` made of a loaded program, else one made on first use)
    and counts the single-token sites without building them: an operator
    token is one site, a condition-header name one per other candidate name
    on its line. The seed draws the k-th of them in ``enumerate_sites``'
    order, the site that drawing from that list would give. Only that site
    is built, and only its name pool is sorted. Raises NoMutationSite when
    no single-token site exists.
    """
    stream = program.comparable
    texts, lines = stream.texts, stream.lines
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
    line = lines[index]
    start = _line_starts(program.source)[line] + stream.cols[index]
    site = _site(texts[index], line, start, replacement)
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
