from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ALIAS5_EVA_EXCERPT, CORPUS_DIR, within
from reference_eva import reference_parse_eva_report
from specforge.eva import AlarmKind, EvaReport, parse_eva_report


def test_parse_alias5_excerpt():
    report = parse_eva_report(ALIAS5_EVA_EXCERPT)
    assert len(report.alarms) == 5
    kinds = [a.kind for a in report.alarms]
    assert kinds.count(AlarmKind.SIGNED_OVERFLOW) == 4
    assert kinds.count(AlarmKind.OUT_OF_BOUNDS_WRITE) == 1
    assert [a.line for a in report.alarms] == [8, 8, 9, 9, 11]
    write = report.alarms[-1]
    assert write.assertion == "\\valid(tab + 2)"
    assert report.alarms[0].assertion == "-2147483648 <= x * 2"


def test_parse_full_report(labels_tritype_eva_report):
    report = parse_eva_report(labels_tritype_eva_report)
    assert len(report.alarms) == 6
    assert all(a.kind is AlarmKind.SIGNED_OVERFLOW for a in report.alarms)
    domains = {d.variable: d.domain for d in report.domains}
    assert domains["triOut"] == "{1; 2; 3; 4}"
    assert domains["__retres"] == "{1; 2; 3; 4}"
    assert report.summary_alarm_count == 6
    assert report.warnings_kernel == 2


def test_parse_empty_string():
    report = parse_eva_report("")
    assert report.alarms == ()
    assert report.domains == ()
    assert report.summary_alarm_count is None
    assert report.warnings_kernel is None


def test_unknown_alarm_kind_maps_to_other_with_verbatim_text():
    raw = (
        "[eva:alarm] prog.c:3: Warning:\n"
        "  pointer downcast. assert (unsigned int)p <= 2147483647;\n"
    )
    report = parse_eva_report(raw)
    assert len(report.alarms) == 1
    alarm = report.alarms[0]
    assert alarm.kind is AlarmKind.OTHER
    assert alarm.kind_text == "pointer downcast"
    assert alarm.assertion == "(unsigned int)p <= 2147483647"


def test_inline_alarm_message_on_marker_line():
    raw = "[eva:alarm] prog.c:7: Warning: division by zero. assert d != 0;\n"
    report = parse_eva_report(raw)
    assert report.alarms[0].kind is AlarmKind.DIVISION_BY_ZERO
    assert report.alarms[0].line == 7
    assert report.alarms[0].assertion == "d != 0"


def test_alarm_lines_are_positive():
    report = parse_eva_report(ALIAS5_EVA_EXCERPT)
    assert all(a.line >= 1 for a in report.alarms)


def test_kernel_warning_lines_do_not_count_as_alarms():
    report = parse_eva_report(ALIAS5_EVA_EXCERPT)
    assert "all target addresses were invalid" not in [a.kind_text for a in report.alarms]
    assert len(report.alarms) == 5


def test_parse_idempotent_on_raw(labels_tritype_eva_report):
    report = parse_eva_report(labels_tritype_eva_report)
    assert parse_eva_report(report.raw) == report


def test_report_json_round_trip(labels_tritype_eva_report):
    report = parse_eva_report(labels_tritype_eva_report)
    assert EvaReport.from_dict(report.to_dict()) == report


def test_domains_stop_at_next_section():
    raw = (
        "[eva:final-states] Values at end of function f:\n"
        "  x in {0; 1}\n"
        "[eva:summary] ====== ANALYSIS SUMMARY ======\n"
        "  y in not-a-domain-section\n"
    )
    report = parse_eva_report(raw)
    assert [d.variable for d in report.domains] == ["x"]


# Pieces of report lines: alarm markers, locations and bare colons, digits
# (non-ASCII ones too), domain lines, section headers, summary phrases, and
# whitespace of every kind. A line joins a few; a report joins a few lines.
_LINE_PIECES = [
    "[eva:alarm]", "[eva:alarm] ", ":", "a:", "f.c:12:", " f.c:3:", "12:", "1", "\u0663",
    "\u0661\u0662", "x", " in ", "  x in ", "{0}", "Values at end of function f:",
    "VALUES COMPUTED", "[", "[kernel] ", " ", "  ", "\t", "\r", "\u3000", "\x85", "Warning:",
    "WARNING: ", "signed overflow.", " assert ", "assert x;", ";", ".",
    " alarms generated by the analysis", "1 alarm generated by the analysis",
    "by the Frama-C kernel:", " 0 errors ", "2 warnings",
]
_REPORTS = st.lists(
    st.lists(st.sampled_from(_LINE_PIECES), max_size=6).map("".join), max_size=8
).map("\n".join)


@settings(max_examples=400, deadline=None)
@given(_REPORTS)
@example("Values at end of function f:\n  x in \t \n  y in {0} \r")  # blank or padded domain
@example("[eva:alarm] a: f.c:3: Warning:\n  signed overflow. assert x;")  # location after a ':'
@example("[eva:alarm] \u0663:\u0661\u0662: x")  # non-ASCII digits as a file and line
def test_parse_matches_reference_parser(raw):
    assert parse_eva_report(raw).to_dict() == reference_parse_eva_report(raw).to_dict()


@pytest.mark.parametrize(
    "path", sorted(CORPUS_DIR.glob("*/eva.txt")), ids=lambda path: path.parent.name
)
def test_parse_matches_reference_parser_on_shipped_reports(path):
    raw = path.read_text(encoding="utf-8")
    assert parse_eva_report(raw).to_dict() == reference_parse_eva_report(raw).to_dict()


_RUN = 40_000  # characters in each long line below


@pytest.mark.parametrize(
    "raw, alarm_texts, domains, summary",
    [
        # no ':' ends a file name
        ("[eva:alarm] " + "a" * _RUN, ["a" * _RUN], [], None),
        # a location number with no ':' after it
        ("[eva:alarm] a:" + "1" * _RUN, ["a:" + "1" * _RUN], [], None),
        # a domain with a long space run inside and after it
        (
            "Values at end of function f:\n  x in {0" + " " * _RUN + "}" + " " * _RUN,
            [],
            [("x", "{0" + " " * _RUN + "}")],
            None,
        ),
        # digits that never reach " alarms generated"
        ("1" * _RUN + "\n11 alarms generated by the analysis", [], [], 11),
    ],
    ids=["colon-free-alarm", "unclosed-location", "domain-space-run", "digit-run"],
)
def test_long_lines_parse_in_linear_time(raw, alarm_texts, domains, summary):
    report = within(5, parse_eva_report, raw)
    assert [(a.file, a.line, a.kind_text) for a in report.alarms] == [
        ("", 0, text) for text in alarm_texts
    ]
    assert [(d.variable, d.domain) for d in report.domains] == domains
    assert report.summary_alarm_count == summary


def test_numbers_too_long_for_int_read_as_line_0_and_no_count():
    digits = "1" * 5000
    raw = (
        f"[eva:alarm] prog.c:{digits}: Warning: signed overflow. assert x < 10;\n"
        f"[eva:summary] {digits} alarms generated by the analysis.\n"
        f"by the Frama-C kernel: 0 errors {digits} warnings\n"
    )
    report = parse_eva_report(raw)
    (alarm,) = report.alarms
    assert (alarm.file, alarm.line, alarm.kind, alarm.assertion) == (
        "prog.c", 0, AlarmKind.SIGNED_OVERFLOW, "x < 10"
    )
    assert (report.summary_alarm_count, report.warnings_kernel) == (None, None)
