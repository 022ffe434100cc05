"""Parse a structural-test CSV and summarize it.

The test-case CSVs pair input columns with an output and a verdict per case.
Suites whose cases all have empty outputs belong to void functions that
mutate state instead of returning values; the summary flags those.
"""

from pathlib import Path

from specforge.pathcrawler import parse_test_csv, summarize

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

raw = (CORPUS / "adpcm" / "tests.csv").read_text(encoding="utf-8")
print("--- raw suite ---")
print(raw)

suite = parse_test_csv(raw)
summary = summarize(suite)
print(f"cases: {summary.case_count}")
print(f"input columns: {', '.join(summary.input_columns)}")
print(f"verdicts: {sorted(summary.distinct_verdicts)}")
print(f"has_output: {summary.has_output}")
for column, values in sorted(summary.distinct_values_per_input.items()):
    print(f"  {column} takes values {sorted(values)}")

assert [case.output for case in suite.cases] == ["0", "0", "1"]
assert suite.cases[1].inputs[1] == ("input_valeur", "-91")
assert suite.raw == raw
print("\nfields parsed as listed; prompts embed suite.raw, the input byte for byte.")

print("\n--- a state-mutating suite (all outputs empty) ---")
apache = parse_test_csv((CORPUS / "apache" / "tests.csv").read_text(encoding="utf-8"))
print(f"apache: {len(apache.cases)} cases, has_output={summarize(apache).has_output}")
print("Without outputs the cases relate nothing to the inputs, so embedding")
print("them in a prompt gets flagged with a state-mutation warning.")
