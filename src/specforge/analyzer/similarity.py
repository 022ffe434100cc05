"""Multiset Jaccard similarity over normalized annotation clauses.

Used to quantify how stable generated specifications are when the underlying
program is perturbed: 1.0 means the two annotation multisets agree clause for
clause, 0.0 means they share nothing.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .annotations import Annotation


def normalize_clause(annotation: Annotation) -> str:
    """Canonical clause string: kind keyword + clause text, whitespace collapsed."""
    return " ".join(f"{annotation.kind.keyword} {annotation.clause_text}".split())


def spec_similarity(a: Counter[str], b: Counter[str]) -> float:
    """Jaccard index of two multisets of ``normalize_clause`` keys; 1.0 when both empty.

    One pass over the smaller: intersection = sum of min counts, union = |a| + |b| - it.
    """
    if len(a) > len(b):
        a, b = b, a
    intersection = sum(min(n, b[key]) for key, n in a.items() if key in b)
    union = a.total() + b.total() - intersection
    return intersection / union if union else 1.0
