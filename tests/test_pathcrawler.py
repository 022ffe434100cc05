from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ADPCM_CSV, CORPUS_DIR
from specforge.pathcrawler import (
    MalformedHeader,
    RowArity,
    TestSuite,
    parse_test_csv,
    summarize,
)


def test_parse_adpcm_csv():
    suite = parse_test_csv(ADPCM_CSV)
    assert len(suite.cases) == 3
    assert suite.input_columns == (
        "input_n",
        "input_valeur",
        "input_t[0]",
        "input_t[1]",
    )
    assert [case.output for case in suite.cases] == ["0", "0", "1"]
    assert all(case.verdict == "unknown" for case in suite.cases)
    assert suite.raw == ADPCM_CSV


def test_parse_header_only():
    suite = parse_test_csv("input_a,output,verdict")
    assert suite.columns == ("input_a", "output", "verdict")
    assert suite.cases == ()


def test_parse_empty_output_field():
    suite = parse_test_csv("input_a,input_b,output,verdict\n1,47,,unknown\n")
    case = suite.cases[0]
    assert case.output == ""
    assert case.verdict == "unknown"
    assert case.inputs == (("input_a", "1"), ("input_b", "47"))


@pytest.mark.parametrize(
    "raw",
    [
        "",
        "input_a,verdict,output\n",  # wrong tail order
        "input_a,output\n",  # no verdict
        "a,output,verdict\n",  # non-input_ leading column
        'input_a,"output",verdict\n',  # quoting unsupported
    ],
)
def test_malformed_headers_rejected(raw):
    with pytest.raises(MalformedHeader):
        parse_test_csv(raw)


def test_row_arity_error_carries_row_index():
    with pytest.raises(RowArity) as exc:
        parse_test_csv("input_a,output,verdict\n1,0,unknown\n2,0\n")
    assert str(exc.value).startswith("row 2:")


def test_quoted_row_field_rejected():
    with pytest.raises(RowArity):
        parse_test_csv('input_a,output,verdict\n"1,2",0,unknown\n')


def test_summarize_two_case_suite():
    suite = parse_test_csv("input_a,input_b,output,verdict\n0,0,2,unknown\n1,0,1,unknown\n")
    summary = summarize(suite)
    assert summary.case_count == 2
    assert summary.distinct_values_per_input["input_a"] == frozenset({"0", "1"})
    assert summary.distinct_values_per_input["input_b"] == frozenset({"0"})
    assert summary.has_output is True
    assert summary.distinct_verdicts == frozenset({"unknown"})


def test_summarize_all_empty_outputs_means_no_output():
    raw = (CORPUS_DIR / "apache" / "tests.csv").read_text(encoding="utf-8")
    suite = parse_test_csv(raw)
    summary = summarize(suite)
    assert summary.case_count == 17
    assert summary.has_output is False
    assert summary.distinct_verdicts == frozenset({"unknown", "no_extra_coverage"})


def test_summarize_empty_suite_has_no_output_by_convention():
    summary = summarize(parse_test_csv("input_a,output,verdict\n"))
    assert summary.case_count == 0
    assert summary.has_output is False


def _fields(case):
    return [value for _, value in case.inputs] + [case.output, case.verdict]


def test_render_round_trip_adpcm():
    suite = parse_test_csv(ADPCM_CSV)
    assert suite.raw == ADPCM_CSV
    assert suite.columns == (
        "input_n", "input_valeur", "input_t[0]", "input_t[1]", "output", "verdict"
    )
    assert [_fields(case) for case in suite.cases] == [
        ["2", "0", "-37", "0", "0", "unknown"],
        ["2", "-91", "0", "62", "0", "unknown"],
        ["2", "0", "0", "12", "1", "unknown"],
    ]


def test_render_header_only():
    suite = parse_test_csv("input_a,output,verdict")
    assert suite.raw == "input_a,output,verdict"
    assert suite.columns == ("input_a", "output", "verdict")
    assert suite.cases == ()


def test_render_preserves_adjacent_commas():
    raw = "input_a,output,verdict\n0,,unknown\n"
    suite = parse_test_csv(raw)
    assert suite.raw == raw
    (case,) = suite.cases
    assert case.inputs == (("input_a", "0"),)
    assert case.output == ""
    assert case.verdict == "unknown"


def test_round_trip_on_every_shipped_fixture_csv():
    csv_paths = sorted(CORPUS_DIR.glob("*/tests.csv"))
    assert csv_paths
    for csv_path in csv_paths:
        raw = csv_path.read_text(encoding="utf-8")
        suite = parse_test_csv(raw)
        assert suite.raw == raw, csv_path
        header, *rows = [line.split(",") for line in raw.splitlines()]
        assert list(suite.columns) == header, csv_path
        assert [_fields(case) for case in suite.cases] == rows, csv_path


def test_case_count_equals_non_header_lines():
    for csv_path in sorted(CORPUS_DIR.glob("*/tests.csv")):
        raw = csv_path.read_text(encoding="utf-8")
        expected = len([line for line in raw.split("\n") if line]) - 1
        assert summarize(parse_test_csv(raw)).case_count == expected


def test_verdicts_preserved_verbatim():
    suite = parse_test_csv("input_a,output,verdict\n1,2,No_Extra_Coverage!\n")
    assert suite.cases[0].verdict == "No_Extra_Coverage!"


def test_suite_json_round_trip():
    suite = parse_test_csv(ADPCM_CSV)
    assert TestSuite.from_dict(suite.to_dict()) == suite


_field = st.text(
    alphabet=st.characters(whitelist_categories=("Nd",), whitelist_characters="-"),
    max_size=4,
)


@given(
    columns=st.integers(min_value=1, max_value=5),
    rows=st.lists(st.data(), max_size=0) | st.none(),  # placeholder, rows drawn below
    data=st.data(),
)
def test_round_trip_property(columns, rows, data):
    header = [f"input_c{i}" for i in range(columns)] + ["output", "verdict"]
    n_rows = data.draw(st.integers(min_value=0, max_value=6))
    drawn = [[data.draw(_field) for _ in header] for _ in range(n_rows)]
    raw = "\n".join(",".join(line) for line in [header, *drawn]) + "\n"
    suite = parse_test_csv(raw)
    assert suite.raw == raw
    assert list(suite.columns) == header
    assert [_fields(case) for case in suite.cases] == drawn
    assert [case.inputs for case in suite.cases] == [
        tuple(zip(header[:-2], row[:-2])) for row in drawn
    ]
    assert summarize(suite).case_count == n_rows
