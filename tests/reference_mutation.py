"""Frozen reference implementation of the mutation sites and the seeded draw.

``reference_identifier_sites`` is the original ``mutation._identifier_sites``,
kept as it was, with the condition-header walk it relied on, so that
differential tests can compare the package's version with it. It re-filters
every identifier on a line for each candidate on that line, which is
quadratic per line. ``reference_enumerate_sites`` and ``reference_mutate``
are ``enumerate_sites`` and ``mutate`` as they were when ``mutate`` built
every site and then drew one from the list. Do not optimize them.
"""

from __future__ import annotations

import random

from specforge.analyzer.lexer import C_KEYWORDS, Token, TokenKind, tokenize
from specforge.model import Origin, SourceProgram
from specforge.mutation import (
    MutationOperator,
    MutationRecord,
    MutationSite,
    NoMutationSite,
    apply_site,
)

_CONDITION_HEADS = frozenset(("if", "while", "for"))


def _condition_token_indices(tokens: list[Token]) -> set[int]:
    """Indices of tokens inside if/while/for parenthesized headers."""
    inside: set[int] = set()
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind is TokenKind.ID and t.text in _CONDITION_HEADS:
            if i + 1 < n and tokens[i + 1].text == "(":  # ``tokens`` holds no comments
                depth = 0
                k = i + 1
                while k < n:
                    if tokens[k].text == "(":
                        depth += 1
                    elif tokens[k].text == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    inside.add(k)
                    k += 1
                i = k
        i += 1
    return {idx for idx in inside if tokens[idx].text not in ("(", ")")}


def reference_identifier_sites(tokens: list[Token]) -> list[MutationSite]:
    condition_indices = _condition_token_indices(tokens)

    def is_candidate(idx: int) -> bool:
        t = tokens[idx]
        if t.kind is not TokenKind.ID or t.text in C_KEYWORDS:
            return False
        # skip call positions; ``tokens`` holds no comments
        return not (idx + 1 < len(tokens) and tokens[idx + 1].text == "(")

    # Replacement pool: other identifiers on the same source line.
    by_line: dict[int, list[int]] = {}
    for idx, t in enumerate(tokens):
        if t.kind is TokenKind.ID and t.text not in C_KEYWORDS:
            by_line.setdefault(t.line, []).append(idx)

    sites: list[MutationSite] = []
    for idx in sorted(condition_indices):
        if not is_candidate(idx):
            continue
        token = tokens[idx]
        pool = sorted(
            {
                tokens[other].text
                for other in by_line.get(token.line, [])
                if tokens[other].text != token.text and is_candidate(other)
            }
        )
        for replacement in pool:
            sites.append(
                MutationSite(
                    operator=MutationOperator.VARIABLE_SUBSTITUTION,
                    line=token.line,
                    token=token.text,
                    replacement=replacement,
                    edits=((token.start, token.end, replacement),),
                )
            )
    return sites


_OPERATOR_SWAPS = {  # token -> (operator, replacement)
    "<": (MutationOperator.RELATIONAL_FLIP, "<="),
    "<=": (MutationOperator.RELATIONAL_FLIP, "<"),
    ">": (MutationOperator.RELATIONAL_FLIP, ">="),
    ">=": (MutationOperator.RELATIONAL_FLIP, ">"),
    "+": (MutationOperator.ARITHMETIC_OPERATOR_SWAP, "-"),
    "-": (MutationOperator.ARITHMETIC_OPERATOR_SWAP, "+"),
}


def _operator_sites(tokens: list[Token]) -> list[MutationSite]:
    sites: list[MutationSite] = []
    for t in tokens:
        if t.kind is TokenKind.PUNCT and t.text in _OPERATOR_SWAPS:
            operator, replacement = _OPERATOR_SWAPS[t.text]
            sites.append(
                MutationSite(
                    operator=operator,
                    line=t.line,
                    token=t.text,
                    replacement=replacement,
                    edits=((t.start, t.end, replacement),),
                )
            )
    return sites


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


def reference_enumerate_sites(program: SourceProgram) -> list[MutationSite]:
    """Every applicable typo site, ordered by source position."""
    tokens = [t for t in tokenize(program.source) if not t.is_comment]
    sites = (
        reference_identifier_sites(tokens)
        + _operator_sites(tokens)
        + _index_swap_sites(tokens)
    )
    sites.sort(key=lambda s: (s.edits[0][0], s.operator.value, s.replacement))
    return sites


def reference_mutate(
    program: SourceProgram, seed: int
) -> tuple[SourceProgram, MutationRecord]:
    """Build every site, keep the single-token ones, and draw one with the seed."""
    candidates = [s for s in reference_enumerate_sites(program) if s.single_token]
    if not candidates:
        raise NoMutationSite(f"no single-token mutation site in {program.name!r}")
    rng = random.Random(seed)
    site = candidates[rng.randrange(len(candidates))]
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
