"""``model.canonical_json`` writes exactly what ``json.dumps`` would.

The writer replaces ``json.dumps(data, sort_keys=True, indent=2,
ensure_ascii=False) + "\\n"`` for speed, so that call is the oracle here: for
every JSON tree the text must match byte for byte, and every value the
standard library refuses must raise the same ``TypeError``.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from enum import IntEnum

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from specforge.model import PromptVariant, canonical_json


def _stdlib(data):
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


Pair = namedtuple("Pair", "left right")


class Level(IntEnum):
    LOW = 1
    HIGH = 20


def _nested(depth):
    value = "leaf"
    for i in range(depth):
        value = {"k": value} if i % 2 else [value, i]
    return value


_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats()
    | st.text()
)
_trees = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


@given(_trees)
@example(float("nan"))
@example(float("inf"))
@example(float("-inf"))
@example([float("nan"), float("inf"), float("-inf")])
@example(-0.0)
@example(1e308)
@example(5e-324)
@example({"big": 2**64 + 1, "neg": -(2**70)})
@example("\x00\x01\x08\t\n\x0c\r\x1f\x7f\"\\")
@example("  ")
@example("𝄞 and é and 中")
@example("</script>")
@example({"": {}, "empty": [], "t": ()})
@example({})
@example([])
@example(())
@example(("a", (1, ("b",)), []))
@example({"variant": PromptVariant.EVA, "all": list(PromptVariant)})
@example({PromptVariant.BASELINE: Level.HIGH, "level": [Level.LOW, True, 0, 1.5]})
@example({"counts": Counter(b=2, a=1), "pair": Pair(1.0, "x")})
@example(_nested(50))
def test_matches_json_dumps(value):
    assert canonical_json(value) == _stdlib(value)


@pytest.mark.parametrize(
    "value",
    [
        {2: "a", 10: "b", -1: "c"},
        {1.5: 0, float("nan"): 1, float("inf"): 2},
        {True: 1, False: 0},
        {None: "null key"},
        {Level.HIGH: "x", Level.LOW: "y"},
    ],
    ids=["int", "float", "bool", "none", "int-enum"],
)
def test_non_string_keys_match_json_dumps(value):
    assert canonical_json(value) == _stdlib(value)


class _Opaque:
    pass


@pytest.mark.parametrize(
    "value",
    [
        {1, 2},
        b"bytes",
        _Opaque(),
        [1, {"nested": {frozenset()}}],
        {"k": (1, bytearray(b"x"))},
        {(1, 2): "tuple key"},
        {"a": 1, 2: "mixed keys do not sort"},
    ],
    ids=["set", "bytes", "object", "nested-set", "nested-bytearray", "tuple-key", "mixed-keys"],
)
def test_type_error_exactly_where_json_dumps_raises_one(value):
    with pytest.raises(TypeError) as expected:
        _stdlib(value)
    with pytest.raises(TypeError) as caught:
        canonical_json(value)
    assert str(caught.value) == str(expected.value)
