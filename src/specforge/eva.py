"""Tolerant parser for EVA value-analysis console reports.

EVA logs are free-form and vary across versions and option sets, so this is
line-oriented marker matching, never a strict grammar: alarm lines, value
domains, and the analysis summary are picked out, everything unrecognized is
skipped, and the raw text is always retained for prompt embedding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .model import Record


class AlarmKind(str, Enum):
    SIGNED_OVERFLOW = "signed_overflow"
    OUT_OF_BOUNDS_WRITE = "out_of_bounds_write"
    OUT_OF_BOUNDS_READ = "out_of_bounds_read"
    DIVISION_BY_ZERO = "division_by_zero"
    OTHER = "other"


_KNOWN_KINDS = {
    "signed overflow": AlarmKind.SIGNED_OVERFLOW,
    "out of bounds write": AlarmKind.OUT_OF_BOUNDS_WRITE,
    "out of bounds read": AlarmKind.OUT_OF_BOUNDS_READ,
    "division by zero": AlarmKind.DIVISION_BY_ZERO,
}


@dataclass(frozen=True, eq=False, repr=False)
class EvaAlarm(Record):
    """One alarm: a possible runtime error and the assertion excluding it."""

    file: str
    line: int
    kind: AlarmKind
    kind_text: str  # verbatim kind phrase, meaningful when kind == OTHER
    assertion: str  # expression text after "assert", without the trailing ";"


@dataclass(frozen=True, eq=False, repr=False)
class ValueDomain(Record):
    """A variable and its verbatim domain text, e.g. ``{1; 2; 3; 4}``."""

    variable: str
    domain: str


@dataclass(frozen=True, eq=False, repr=False)
class EvaReport(Record):
    alarms: tuple[EvaAlarm, ...]
    domains: tuple[ValueDomain, ...]
    summary_alarm_count: int | None
    warnings_kernel: int | None
    raw: str


@dataclass(frozen=True, eq=False, repr=False)
class Discrepancy(Record):
    """Summary line and parsed alarms disagree."""

    expected: int
    parsed: int


_ALARM_MARKER = "[eva:alarm]"
_LOCATION_RE = re.compile(r"(?P<file>[^\s:][^:]*):(?P<line>\d+):")
_ASSERT_RE = re.compile(r"\bassert\b\s*(?P<assertion>[^;]+);?")
_SUMMARY_RE = re.compile(r"(?P<count>\d+)\s+alarms?\s+generated by the analysis")
_KERNEL_WARNINGS_RE = re.compile(
    r"by the Frama-C kernel:\s*\d+\s+errors?\s+(?P<warnings>\d+)\s+warnings?"
)
_DOMAIN_SECTION_RE = re.compile(r"Values at end of function|VALUES COMPUTED")
_DOMAIN_LINE_RE = re.compile(r"^\s+(?P<variable>\S+) in (?P<domain>.+?)\s*$")


def _classify(message: str) -> tuple[AlarmKind, str, str]:
    """Split an alarm message into (kind, verbatim kind phrase, assertion)."""
    message = message.strip()
    kind_text, _, _ = message.partition(".")
    kind_text = kind_text.strip()
    kind = _KNOWN_KINDS.get(kind_text.lower(), AlarmKind.OTHER)
    m = _ASSERT_RE.search(message)
    assertion = m.group("assertion").strip() if m else ""
    return kind, kind_text, assertion


def parse_eva_report(raw: str) -> EvaReport:
    """Extract alarms, value domains, and summary counts from report text.

    Every line starting with ``[eva:alarm]`` yields exactly one alarm; the
    alarm's kind and assertion normally arrive on the continuation line
    (``  signed overflow. assert ...;``) but are also accepted inline after
    the location. Unparseable fragments are skipped, never fatal.
    """
    alarms: list[EvaAlarm] = []
    domains: list[ValueDomain] = []
    summary_count: int | None = None
    kernel_warnings: int | None = None

    lines = raw.split("\n")
    in_domains = False
    i = 0
    while i < len(lines):
        line = lines[i]

        if line.startswith(_ALARM_MARKER):
            in_domains = False
            rest = line[len(_ALARM_MARKER):].strip()
            loc = _LOCATION_RE.search(rest)
            file_name = loc.group("file") if loc else ""
            line_no = int(loc.group("line")) if loc else 0
            after_loc = rest[loc.end():] if loc else rest
            message = after_loc.strip()
            if message.lower().startswith("warning:"):
                message = message[len("warning:"):].strip()
            if not message and i + 1 < len(lines):
                i += 1
                message = lines[i].strip()
            kind, kind_text, assertion = _classify(message)
            alarms.append(
                EvaAlarm(
                    file=file_name,
                    line=line_no,
                    kind=kind,
                    kind_text=kind_text,
                    assertion=assertion,
                )
            )
            i += 1
            continue

        if _DOMAIN_SECTION_RE.search(line):
            in_domains = True
            i += 1
            continue

        if in_domains:
            m = _DOMAIN_LINE_RE.match(line)
            if m:
                domains.append(
                    ValueDomain(variable=m.group("variable"), domain=m.group("domain"))
                )
                i += 1
                continue
            if line.startswith("["):
                in_domains = False
            # fall through: summary markers may follow immediately

        m = _SUMMARY_RE.search(line)
        if m:
            summary_count = int(m.group("count"))
        m = _KERNEL_WARNINGS_RE.search(line)
        if m:
            kernel_warnings = int(m.group("warnings"))
        i += 1

    return EvaReport(
        alarms=tuple(alarms),
        domains=tuple(domains),
        summary_alarm_count=summary_count,
        warnings_kernel=kernel_warnings,
        raw=raw,
    )


def consistency_check(report: EvaReport) -> list[Discrepancy]:
    """Empty iff the summary alarm count (when present) matches the parsed alarms."""
    if report.summary_alarm_count is None:
        return []
    if report.summary_alarm_count == len(report.alarms):
        return []
    return [Discrepancy(expected=report.summary_alarm_count, parsed=len(report.alarms))]
