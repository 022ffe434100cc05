"""Split a model reply, classify its ACSL clauses, census them, and lint.

The reply format is reasoning prose plus a fenced program; every clause in an
annotation comment is classified by keyword (requires, ensures, assigns, loop
invariant, ...), and structural rules are linted. The reply's code is scanned
once by ``parse_blocks``, and the clause list, census, lint and preservation
check all take that one result, as ``specforge count`` and ``lint`` do.
"""

from pathlib import Path

from specforge.analyzer import (
    check_code_preserved,
    count_blocks_by_kind,
    lint,
    parse_annotations,
    parse_blocks,
    scan,
    split_response,
)
from specforge.runner import histogram_to_dict

ROOT = Path(__file__).resolve().parent.parent

reply = (ROOT / "fixtures" / "binary_search" / "baseline" / "0.txt").read_text(
    encoding="utf-8"
)
split = split_response(reply)
print("--- reasoning ---")
print(split.reasoning)

analyzed = parse_blocks(split.code)
annotations = parse_annotations(analyzed)
print("\n--- clauses ---")
for a in annotations:
    print(f"  line {a.line:>2}  {a.kind.keyword:15s} {a.clause_text[:50]}")

print("\n--- census ---")
for keyword, count in histogram_to_dict(count_blocks_by_kind(analyzed.blocks)).items():
    if count:
        print(f"  {keyword:15s} {count}")

issues = lint(analyzed)
print("\nlint:", "clean" if not issues else issues)

source = (ROOT / "corpus" / "binary_search" / "program.c").read_text(encoding="utf-8")
comparable, _, _ = scan(source, {})  # the program's stream, as load_corpus stores it
verdict = check_code_preserved(comparable, analyzed)
print(f"code preserved against the original source: {verdict.preserved}")
