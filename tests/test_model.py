from __future__ import annotations

import csv
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from specforge.model import (
    KNOWN_KINDS,
    AnnotationKind,
    GenerationConfig,
    Origin,
    PromptVariant,
    SourceProgram,
    csv_text,
    kind_sort_key,
)


def test_prompt_variant_parse_round_trip():
    for variant in PromptVariant:
        assert PromptVariant.parse(variant.value) is variant
        assert PromptVariant.parse(variant.value.upper()) is variant
    with pytest.raises(ValueError):
        PromptVariant.parse("chain-of-thought")


def test_exactly_three_variants():
    assert [v.value for v in PromptVariant] == ["baseline", "pathcrawler", "eva"]


def test_origin_validation():
    with pytest.raises(ValueError):
        Origin(kind="mutant")
    with pytest.raises(ValueError):
        Origin(kind="original", parent_name="x", mutation_id="1")
    with pytest.raises(ValueError):
        Origin(kind="copy")
    mut = Origin.mutant("tritype", "m1")
    assert Origin.from_dict(mut.to_dict()) == mut
    assert Origin.from_dict(Origin.original().to_dict()) == Origin.original()


def test_source_program_requires_nonempty_source():
    with pytest.raises(ValueError):
        SourceProgram(name="empty", source="")
    with pytest.raises(ValueError):
        SourceProgram(name="", source="int x;")


def test_source_program_json_round_trip():
    program = SourceProgram(
        name="tritype",
        source="int f(void) { return 0; }\n",
        entry_function="f",
        origin=Origin.mutant("parent", "id-1"),
    )
    assert SourceProgram.from_dict(program.to_dict()) == program


def test_annotation_kind_other_keeps_keyword_distinct():
    a = AnnotationKind.other("terminates")
    b = AnnotationKind.other("decreases")
    assert a != b
    assert a.keyword == "terminates" and not a.known
    assert AnnotationKind.from_dict(a.to_dict()) == a
    # distinct from same-keyword known kind only via the known flag
    assert AnnotationKind("requires") != AnnotationKind.other("requires")


def test_kind_sort_key_orders_known_before_other():
    keys = [kind_sort_key(k) for k in KNOWN_KINDS]
    assert keys == sorted(keys)
    assert kind_sort_key(AnnotationKind.other("axiomatic")) > kind_sort_key(
        KNOWN_KINDS[-1]
    )


def test_generation_config_defaults():
    config = GenerationConfig()
    assert config.temperature == 0.7
    assert config.samples_per_program == 3


@pytest.mark.parametrize(
    "kwargs",
    [
        {"temperature": -0.1},
        {"temperature": 2.5},
        {"samples_per_program": 0},
        {"max_output_tokens": 0},
    ],
)
def test_generation_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        GenerationConfig(**kwargs)


@given(
    temperature=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    samples=st.integers(min_value=1, max_value=16),
    max_tokens=st.integers(min_value=1, max_value=100_000),
)
def test_generation_config_json_round_trip(temperature, samples, max_tokens):
    config = GenerationConfig(
        model_id="m",
        temperature=temperature,
        samples_per_program=samples,
        max_output_tokens=max_tokens,
    )
    assert GenerationConfig.from_dict(config.to_dict()) == config


_CSV_ROWS = st.lists(
    st.lists(st.text(alphabet=',"\n\r ab', max_size=6), min_size=2, max_size=4), max_size=4
)


@given(_CSV_ROWS)
def test_csv_text_round_trips_through_csv_reader(rows):
    assert list(csv.reader(io.StringIO(csv_text(rows), newline=""))) == rows


def test_csv_text_quotes_only_fields_that_need_it():
    assert csv_text([("kind", 3), ("a,b", 'say "hi"'), ("x\ry", "")]) == (
        'kind,3\n"a,b","say ""hi"""\n"x\ry",\n'
    )
