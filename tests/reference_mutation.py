"""Frozen reference implementation of the identifier-substitution sites.

``reference_identifier_sites`` is the original ``mutation._identifier_sites``,
kept as it was, with the condition-header walk it relied on, so that
differential tests can compare the package's version with it. It re-filters
every identifier on a line for each candidate on that line, which is
quadratic per line. Do not optimize it.
"""

from __future__ import annotations

from specforge.analyzer.lexer import C_KEYWORDS, Token, TokenKind
from specforge.mutation import MutationOperator, MutationSite

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
