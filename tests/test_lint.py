from __future__ import annotations

import pytest

from specforge.analyzer import LintRule, lint, parse_annotations, parse_blocks

VARIANT_FIRST_LOOP = """int f(int n) {
  int i = 0;
  /*@
    @ loop invariant 0 <= i <= n;
    @ loop variant n - i;
    @ loop assigns i;
  */
  while (i < n) { i = i + 1; }
  return i;
}
"""


def test_variant_before_assigns_fires_once():
    issues = lint(parse_blocks(VARIANT_FIRST_LOOP))
    assert [i.rule for i in issues] == [LintRule.VARIANT_BEFORE_ASSIGNS]
    assert issues[0].line == 5


def test_correct_loop_order_is_clean(bsearch_annotated):
    assert lint(parse_blocks(bsearch_annotated)) == []


def test_variant_without_assigns_is_clean():
    code = (
        "int f(int n) {\n"
        "  int i = 0;\n"
        "  /*@ loop invariant 0 <= i;\n"
        "    @ loop variant n - i;\n"
        "  */\n"
        "  while (i < n) { i = i + 1; }\n"
        "  return i;\n"
        "}\n"
    )
    assert lint(parse_blocks(code)) == []


def test_variant_order_checked_across_consecutive_line_annotations():
    code = (
        "int f(int n) {\n"
        "  int i = 0;\n"
        "  //@ loop variant n - i;\n"
        "  //@ loop assigns i;\n"
        "  while (i < n) { i = i + 1; }\n"
        "  return i;\n"
        "}\n"
    )
    issues = lint(parse_blocks(code))
    assert [i.rule for i in issues] == [LintRule.VARIANT_BEFORE_ASSIGNS]


def test_clause_and_lint_lines_count_a_newline_escaped_in_a_literal():
    code = (
        'const char *s = "a\\\n'
        'b";\n'
        "int f(int n) {\n"
        "  int i = 0;\n"
        "  //@ loop variant n - i;\n"
        "  //@ loop assigns i;\n"
        "  while (i < n) { i = i + 1; }\n"
        "  return i;\n"
        "}\n"
    )
    analyzed = parse_blocks(code)
    assert [a.line for a in parse_annotations(analyzed)] == [5, 6]
    (issue,) = lint(analyzed)
    assert (issue.rule, issue.line) == (LintRule.VARIANT_BEFORE_ASSIGNS, 5)


def test_assigns_out_of_scope_on_local():
    code = (
        "/*@ requires n > 0;\n"
        "  @ assigns counter;\n"
        "*/\n"
        "int f(int n) {\n"
        "  int counter = 0;\n"
        "  return counter;\n"
        "}\n"
    )
    issues = lint(parse_blocks(code))
    assert [i.rule for i in issues] == [LintRule.ASSIGNS_OUT_OF_SCOPE]
    assert "counter" in issues[0].detail


def test_assigns_formal_dereference_and_index_ok():
    code = (
        "#define BUFSZ 100\n"
        "/*@ requires \\valid(buffer + (0 .. BUFSZ-1));\n"
        "  @ assigns buffer[0..BUFSZ-1];\n"
        "*/\n"
        "void f(char *buffer, int len) { buffer[0] = 0; }\n"
    )
    assert lint(parse_blocks(code)) == []


def test_assigns_nothing_and_result_ok():
    code = "/*@ assigns \\nothing; */\nint f(int n) { return n; }\n"
    assert lint(parse_blocks(code)) == []


def test_assigns_global_ok():
    code = "int total;\n/*@ assigns total; */\nvoid bump(void) { total++; }\n"
    assert lint(parse_blocks(code)) == []


def test_loop_assigns_not_scope_checked():
    # locals are exactly what loop assigns should name
    code = (
        "int f(int n) {\n"
        "  int i = 0;\n"
        "  /*@ loop invariant 0 <= i;\n"
        "    @ loop assigns i;\n"
        "    @ loop variant n - i;\n"
        "  */\n"
        "  while (i < n) { i = i + 1; }\n"
        "  return i;\n"
        "}\n"
    )
    assert lint(parse_blocks(code)) == []


@pytest.mark.parametrize(
    "code, details",
    [
        # the parameter list never closes: the names up to the end still count
        (
            "/*@ assigns a, b; */\nint f(int a, int c\n",
            ["assigns target 'b': 'b' is not a parameter or file-scope name"],
        ),
        # a target with no identifier names nothing to check
        ("/*@ assigns 42, (*); */\nint f(int a);\n", []),
    ],
    ids=["unclosed-parameter-list", "target-without-identifier"],
)
def test_assigns_scope_on_odd_headers_and_targets(code, details):
    issues = lint(parse_blocks(code))
    assert [(i.rule, i.detail) for i in issues] == [
        (LintRule.ASSIGNS_OUT_OF_SCOPE, detail) for detail in details
    ]


def test_block_style_in_body_fires():
    code = (
        "int f(int n) {\n"
        "  int x;\n"
        "  /*@\n"
        "    @ assigns x;\n"
        "    @ assert n > 0;\n"
        "  */\n"
        "  x = n;\n"
        "  return x;\n"
        "}\n"
    )
    issues = lint(parse_blocks(code))
    assert [i.rule for i in issues] == [LintRule.BLOCK_STYLE_IN_BODY]


def test_single_clause_body_block_is_clean(bsearch_annotated_verbose):
    # statement-position blocks in the verbose listing are all single-clause
    assert lint(parse_blocks(bsearch_annotated_verbose)) == []


def test_issue_lines_point_at_parsed_annotations():
    for code in (
        VARIANT_FIRST_LOOP,
        "/*@ assigns counter; */\nint f(void) { int counter = 0; return counter; }\n",
    ):
        annotation_lines = {a.line for a in parse_annotations(parse_blocks(code))}
        for issue in lint(parse_blocks(code)):
            assert issue.line in annotation_lines
