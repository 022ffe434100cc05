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


_ALARM_MARKER = "[eva:alarm]"
# Anchored to the start and to each ':', so a line is scanned once; a file name
# starts at the first non-space after the anchor, where the leftmost match of
# the unanchored pattern starts too.
_LOCATION_RE = re.compile(r"(?:^|(?<=:))\s*(?P<file>[^\s:][^:]*):(?P<line>\d+):")
_ASSERT_RE = re.compile(r"\bassert\b\s*(?P<assertion>[^;]+);?")
# (?<!\d): a count starts where its digit run starts, as the leftmost match does.
_SUMMARY_RE = re.compile(r"(?<!\d)(?P<count>\d+)\s+alarms?\s+generated by the analysis")
_KERNEL_WARNINGS_RE = re.compile(
    r"by the Frama-C kernel:\s*\d+\s+errors?\s+(?P<warnings>\d+)\s+warnings?"
)
_DOMAIN_SECTION_RE = re.compile(r"Values at end of function|VALUES COMPUTED")
# The domain runs from group "domain" to the line's end, right-stripped.
_DOMAIN_LINE_RE = re.compile(r"\s+(?P<variable>\S+) in (?P<domain>.)")


def _number(digits: str) -> int | None:
    """``digits`` as an int, or None when they are more than ``int`` converts."""
    try:
        return int(digits)
    except ValueError:
        return None


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
    the location. Unparseable fragments are skipped, never fatal: a line or
    count number too long for ``int`` reads as line 0 or no count. Each line
    is matched in one pass, so the time is linear in the text.
    """
    alarms: list[EvaAlarm] = []
    domains: list[ValueDomain] = []
    summary_count: int | None = None
    kernel_warnings: int | None = None

    in_domains = False
    lines = iter(raw.split("\n"))
    for line in lines:
        if line.startswith(_ALARM_MARKER):
            in_domains = False
            message = line[len(_ALARM_MARKER):].strip()
            file_name, line_no = "", 0
            if loc := _LOCATION_RE.search(message):
                file_name, line_no = loc["file"], _number(loc["line"]) or 0
                message = message[loc.end():].strip()
            if message.lower().startswith("warning:"):
                message = message[len("warning:"):].strip()
            kind, kind_text, assertion = _classify(message or next(lines, "").strip())
            alarms.append(EvaAlarm(file_name, line_no, kind, kind_text, assertion))
        elif _DOMAIN_SECTION_RE.search(line):
            in_domains = True
        elif in_domains and (m := _DOMAIN_LINE_RE.match(line)):
            domain = line[m.start("domain"):].rstrip() or m["domain"]
            domains.append(ValueDomain(m["variable"], domain))
        else:
            # summary markers may follow a domain section immediately
            in_domains = in_domains and not line.startswith("[")
            if m := _SUMMARY_RE.search(line):
                summary_count = _number(m["count"])
            if m := _KERNEL_WARNINGS_RE.search(line):
                kernel_warnings = _number(m["warnings"])

    return EvaReport(
        alarms=tuple(alarms),
        domains=tuple(domains),
        summary_alarm_count=summary_count,
        warnings_kernel=kernel_warnings,
        raw=raw,
    )
