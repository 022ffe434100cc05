from __future__ import annotations

from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from specforge.analyzer import normalize_clause, parse_annotations, parse_blocks, spec_similarity
from specforge.analyzer.annotations import FUNCTION_CONTRACT, Annotation
from specforge.model import AnnotationKind


def _ann(keyword: str, text: str) -> Annotation:
    kind = AnnotationKind(keyword) if keyword != "other" else AnnotationKind.other("x")
    return Annotation(
        kind=kind,
        clause_text=text,
        block_style=True,
        line=1,
        enclosing=FUNCTION_CONTRACT,
    )


def _multiset(annotations) -> Counter:
    """What ``run`` passes ``spec_similarity``: the clauses' ``normalize_clause`` keys."""
    return Counter(map(normalize_clause, annotations))


def similarity(a, b) -> float:
    return spec_similarity(_multiset(a), _multiset(b))


def multiset_jaccard(a: list[str], b: list[str]) -> float:
    """Direct reference computation over normalized clause strings."""
    ca, cb = Counter(a), Counter(b)
    if not ca and not cb:
        return 1.0
    return sum((ca & cb).values()) / sum((ca | cb).values())


def test_identical_lists_score_one(bsearch_annotated):
    annotations = parse_annotations(parse_blocks(bsearch_annotated))
    assert similarity(annotations, annotations) == 1.0


def test_disjoint_nonempty_lists_score_zero():
    a = [_ann("requires", "x > 0")]
    b = [_ann("ensures", "\\result == 0")]
    assert similarity(a, b) == 0.0


def test_both_empty_scores_one():
    assert similarity([], []) == 1.0


def test_one_clause_removed(bsearch_annotated):
    annotations = parse_annotations(parse_blocks(bsearch_annotated))
    shorter = annotations[:-1]
    expected = multiset_jaccard(
        [normalize_clause(a) for a in annotations],
        [normalize_clause(a) for a in shorter],
    )
    # six clauses versus the same five: 5 shared of 6 in the union
    assert expected == 5 / 6
    assert similarity(annotations, shorter) == expected


def test_one_clause_replaced(bsearch_annotated):
    annotations = parse_annotations(parse_blocks(bsearch_annotated))
    swapped = annotations[:-1] + [_ann("requires", "completely different")]
    expected = multiset_jaccard(
        [normalize_clause(a) for a in annotations],
        [normalize_clause(a) for a in swapped],
    )
    # 5 shared clauses, 6 + 6 - 5 = 7 in the union
    assert expected == 5 / 7
    assert similarity(annotations, swapped) == expected


def test_normalization_collapses_whitespace():
    a = [_ann("requires", "x   >\n 0")]
    b = [_ann("requires", "x > 0")]
    assert normalize_clause(a[0]) == normalize_clause(b[0]) == "requires x > 0"
    assert similarity(a, b) == 1.0


def test_kind_keyword_is_part_of_identity():
    a = [_ann("requires", "x > 0")]
    b = [_ann("ensures", "x > 0")]
    assert similarity(a, b) == 0.0


_clauses = st.lists(
    st.sampled_from(
        [
            ("requires", "x > 0"),
            ("requires", "y > 0"),
            ("ensures", "\\result >= 0"),
            ("assigns", "\\nothing"),
            ("loop invariant", "0 <= i"),
        ]
    ),
    max_size=8,
)


@given(a=_clauses, b=_clauses)
def test_similarity_properties(a, b):
    ann_a = [_ann(k, t) for k, t in a]
    ann_b = [_ann(k, t) for k, t in b]
    score = similarity(ann_a, ann_b)
    assert 0.0 <= score <= 1.0
    assert score == similarity(ann_b, ann_a)
    reference = multiset_jaccard(
        [normalize_clause(x) for x in ann_a], [normalize_clause(x) for x in ann_b]
    )
    assert score == reference
    if Counter(normalize_clause(x) for x in ann_a) == Counter(
        normalize_clause(x) for x in ann_b
    ):
        assert score == 1.0
    else:
        assert score < 1.0
