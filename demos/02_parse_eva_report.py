"""Extract alarms, value domains, and summary counts from a value-analysis log.

EVA console output is free-form, so parsing is tolerant: alarm markers and
domain sections are picked out, everything else is skipped, and the raw text
is retained for prompt embedding.
"""

from pathlib import Path

from specforge.eva import parse_eva_report

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

report = parse_eva_report(
    (CORPUS / "labels_tritype" / "eva.txt").read_text(encoding="utf-8")
)

print(f"alarms parsed: {len(report.alarms)}")
for alarm in report.alarms:
    print(f"  line {alarm.line:>3}  {alarm.kind.value:20s} assert {alarm.assertion}")

print("\nvalue domains at end of analysis:")
for domain in report.domains:
    print(f"  {domain.variable} in {domain.domain}")

print(f"\nsummary counts {report.summary_alarm_count} alarms, "
      f"{len(report.alarms)} parsed; kernel warnings: {report.warnings_kernel}")
print("(when the two counts differ, loading the corpus reports a load warning)")
