from __future__ import annotations

from conftest import ALIAS5_EVA_EXCERPT
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
