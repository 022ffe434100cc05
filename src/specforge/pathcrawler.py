"""Parse and summarize Pathcrawler structural-test CSV files.

The format is the bare comma-separated text Pathcrawler emits: a header of
``input_*`` columns terminated by ``output,verdict``, then one row per test
case. There is no quoting or escaping in this format, so the parser refuses
quote characters outright rather than guessing at dialects. Raw text is kept
verbatim because prompts embed it byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Record


class CsvError(ValueError):
    """Base class for test-CSV parse failures."""


class MalformedHeader(CsvError):
    def __init__(self, detail: str):
        super().__init__(f"malformed test CSV header: {detail}")


class RowArity(CsvError):
    def __init__(self, row_index: int, detail: str):
        super().__init__(f"row {row_index}: {detail}")


@dataclass(frozen=True, eq=False, repr=False)
class TestCase(Record):
    """One test case: named input values, an output (possibly empty), a verdict."""

    __test__ = False  # domain class, not a pytest suite

    inputs: tuple[tuple[str, str], ...]  # (column name, value), header order
    output: str
    verdict: str


@dataclass(frozen=True, eq=False, repr=False)
class TestSuite(Record):
    __test__ = False  # domain class, not a pytest suite

    columns: tuple[str, ...]
    cases: tuple[TestCase, ...]
    raw: str

    @property
    def input_columns(self) -> tuple[str, ...]:
        return self.columns[:-2]

    @property
    def has_output(self) -> bool:
        """False iff every case's output field is empty.

        That is the machine-visible signature of a void/state-mutating
        function under test; an empty suite has no output by convention.
        """
        return any(case.output != "" for case in self.cases)


@dataclass(frozen=True, eq=False, repr=False)
class TestSuiteSummary(Record):
    """Shape of a suite at a glance; feeds warnings and reports."""

    __test__ = False  # domain class, not a pytest suite

    case_count: int
    input_columns: tuple[str, ...]
    distinct_verdicts: frozenset[str]
    has_output: bool
    distinct_values_per_input: dict[str, frozenset[str]]


def _split_fields(line: str, row_index: int | None) -> list[str]:
    if '"' in line:
        if row_index is None:
            raise MalformedHeader("quoted fields are not supported")
        raise RowArity(row_index, "quoted fields are not supported")
    return line.split(",")


def parse_test_csv(raw: str) -> TestSuite:
    """Parse Pathcrawler CSV text into a TestSuite, retaining ``raw`` verbatim.

    Raises MalformedHeader when the header does not end with
    ``...,output,verdict`` or a leading column is not ``input_*``;
    raises RowArity(i) when row i's field count differs from the header's.
    """
    if not raw:
        raise MalformedHeader("empty input")
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline, not an empty row

    columns = _split_fields(lines[0], None)
    if len(columns) < 2 or columns[-2:] != ["output", "verdict"]:
        raise MalformedHeader(
            f"header must end with 'output,verdict', got {lines[0]!r}"
        )
    for col in columns[:-2]:
        if not col.startswith("input_"):
            raise MalformedHeader(f"unexpected non-input column {col!r}")

    cases = []
    for i, line in enumerate(lines[1:], start=1):
        fields = _split_fields(line, i)
        if len(fields) != len(columns):
            raise RowArity(
                i, f"expected {len(columns)} fields, got {len(fields)}"
            )
        cases.append(
            TestCase(
                inputs=tuple(zip(columns[:-2], fields[:-2])),
                output=fields[-2],
                verdict=fields[-1],
            )
        )
    return TestSuite(columns=tuple(columns), cases=tuple(cases), raw=raw)


def summarize(suite: TestSuite) -> TestSuiteSummary:
    """Exact counts and value sets over a parsed suite."""
    per_input: dict[str, set[str]] = {col: set() for col in suite.input_columns}
    verdicts: set[str] = set()
    for case in suite.cases:
        for name, value in case.inputs:
            per_input[name].add(value)
        verdicts.add(case.verdict)
    return TestSuiteSummary(
        case_count=len(suite.cases),
        input_columns=suite.input_columns,
        distinct_verdicts=frozenset(verdicts),
        has_output=suite.has_output,
        distinct_values_per_input={
            col: frozenset(values) for col, values in per_input.items()
        },
    )

