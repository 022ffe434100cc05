"""Code-preservation verdicts and structural lint rules for annotated sources."""

from __future__ import annotations

import re
from dataclasses import dataclass
from difflib import SequenceMatcher
from enum import Enum
from typing import Sequence

from ..model import ASSIGNS, LOOP_ASSIGNS, LOOP_VARIANT, Record
from .annotations import FUNCTION_CONTRACT, STATEMENT, AnalyzedCode
from .lexer import C_KEYWORDS, ID_START, ComparableStream
from .lexer import tokenize  # not called here; perfbench/spans.py counts calls through it


@dataclass(frozen=True, eq=False, repr=False)
class DiffRun(Record):
    """One mismatching token run between original and annotated code."""

    line: int
    original: str
    modified: str


@dataclass(frozen=True, eq=False, repr=False)
class PreservationVerdict(Record):
    preserved: bool
    diff: tuple[DiffRun, ...]

    def __post_init__(self) -> None:
        if self.preserved and self.diff:
            raise ValueError("preserved verdict must carry an empty diff")


MAX_DIFF_RUNS = 10  # mismatching token runs a verdict's diff keeps, read at each call
_Opcode = tuple[str, int, int, int, int]

def _opcodes(a: Sequence[str], b: Sequence[str]) -> list[_Opcode]:
    """An edit script from ``a`` to ``b``: the common ends, then the window's.

    The maximal common prefix is ``equal``, then the maximal common suffix of
    what is left, so the two never overlap. Only the edited window between
    them goes through ``SequenceMatcher``, whose opcodes neither start nor
    end with an ``equal`` there, as the ends taken are maximal.
    """
    n = min(len(a), len(b))
    head = 0
    while head < n and a[head] == b[head]:
        head += 1
    tail = 0
    while tail < n - head and a[-tail - 1] == b[-tail - 1]:
        tail += 1
    ahi, bhi = len(a) - tail, len(b) - tail
    ops: list[_Opcode] = [("equal", 0, head, 0, head)] if head else []
    matcher = SequenceMatcher(None, a[head:ahi], b[head:bhi], autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        ops.append((tag, i1 + head, i2 + head, j1 + head, j2 + head))
    if tail:
        ops.append(("equal", ahi, len(a), bhi, len(b)))
    return ops


def check_code_preserved(
    original: ComparableStream, annotated_code: AnalyzedCode
) -> PreservationVerdict:
    """True iff ``annotated_code``'s tokens, comments aside, are the original's.

    Whitespace and comments never count. The verdict is the equality of the
    two compare-text streams; only an unpreserved reply is diffed, and its
    diff localizes up to ``MAX_DIFF_RUNS`` mismatching token runs of the
    edited window left between the common prefix and suffix (``_opcodes``),
    line numbers taken from the original source where possible. An ambiguous
    edit may align one place over from where a matcher run over both whole
    streams would put it. ``original`` is the program's stream
    (``SourceProgram.comparable``) and ``annotated_code`` the reply's
    ``parse_blocks`` result, whose ``comparable`` stream its one scan already
    collected, so nothing is scanned twice. That stream is what removing the
    ACSL comments would leave: the lexer reads a ``#`` as C does, with each
    comment one space, so removing a comment changes no other token.
    """
    modified = annotated_code.comparable
    values_orig, values_mod = original.texts, modified.texts
    if values_orig == values_mod:
        return PreservationVerdict(preserved=True, diff=())

    runs: list[DiffRun] = []
    for op, i1, i2, j1, j2 in _opcodes(values_orig, values_mod):
        if op == "equal":
            continue
        if i1 < len(values_orig):
            line = original.lines[i1]
        elif values_orig:
            line = original.lines[-1]
        else:
            line = modified.lines[j1]
        runs.append(
            DiffRun(
                line=line,
                original=" ".join(values_orig[i1:i2]),
                modified=" ".join(values_mod[j1:j2]),
            )
        )
        if len(runs) >= MAX_DIFF_RUNS:
            break
    return PreservationVerdict(preserved=False, diff=tuple(runs))


class LintRule(str, Enum):
    VARIANT_BEFORE_ASSIGNS = "variant_before_assigns"
    ASSIGNS_OUT_OF_SCOPE = "assigns_out_of_scope"
    BLOCK_STYLE_IN_BODY = "block_style_in_body"


@dataclass(frozen=True, eq=False, repr=False)
class LintIssue(Record):
    rule: LintRule
    line: int
    detail: str


_IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def _split_targets(clause_text: str) -> list[str]:
    """Split an assigns clause body on top-level commas."""
    targets: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in clause_text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth = max(0, depth - 1)
        if ch == "," and depth == 0:
            targets.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        targets.append(tail)
    return [t for t in targets if t]


def _formals_after(texts: Sequence[str], start: int) -> set[str] | None:
    """Parameter-list identifiers of the function header from compare text ``start``.

    Collects every non-keyword identifier in the parentheses (deliberately
    over-approximate: the out-of-scope rule must only fire on clear misses).
    Returns None when no header-like shape follows.
    """
    i = start
    n = len(texts)
    # Seek the opening paren of the parameter list before any { or ;.
    while i < n:
        text = texts[i]
        if text == "(":
            break
        if text == "{" or text == ";":
            return None
        i += 1
    else:
        return None
    names: set[str] = set()
    depth = 0
    while i < n:
        text = texts[i]
        if text == "(":
            depth += 1
        elif text == ")":
            depth -= 1
            if depth == 0:
                return names
        elif text[0] in ID_START and text not in C_KEYWORDS:
            names.add(text)
        i += 1
    return names


def lint(code: AnalyzedCode) -> list[LintIssue]:
    """Structural rules over annotations; conservative, warning-grade findings.

    - variant_before_assigns: a loop's ``loop variant`` precedes its
      ``loop assigns``.
    - assigns_out_of_scope: a function-contract ``assigns`` target whose base
      identifier is neither an ACSL builtin, a formal parameter, nor a
      file-scope name.
    - block_style_in_body: a multi-clause ``/*@`` block annotating a non-loop
      statement inside a function body.

    The file-scope names are the ones ``parse_blocks`` collected while it
    scanned the code (``AnalyzedCode.file_scope``); only the parameter list
    after each contract is read here, from the comparable texts.
    """
    blocks, texts = code.blocks, code.comparable.texts
    issues: list[LintIssue] = []

    # variant-before-assigns, grouped by the loop each block annotates
    loop_groups: dict[int, list] = {}
    for block in blocks:
        if block.loop_key is not None:
            loop_groups.setdefault(block.loop_key, []).extend(block.annotations)
    for annotations in loop_groups.values():
        variant_at = next(
            (i for i, a in enumerate(annotations) if a.kind.keyword == LOOP_VARIANT.keyword),
            None,
        )
        assigns_at = next(
            (i for i, a in enumerate(annotations) if a.kind.keyword == LOOP_ASSIGNS.keyword),
            None,
        )
        if variant_at is not None and assigns_at is not None and variant_at < assigns_at:
            issues.append(
                LintIssue(
                    rule=LintRule.VARIANT_BEFORE_ASSIGNS,
                    line=annotations[variant_at].line,
                    detail="loop assigns must be placed before loop variant",
                )
            )

    for block in blocks:
        if block.placement is FUNCTION_CONTRACT:
            formals = _formals_after(texts, block.code_index)
            visible = (formals or set()) | code.file_scope
            for annotation in block.annotations:
                if annotation.kind.keyword != ASSIGNS.keyword:
                    continue
                for target in _split_targets(annotation.clause_text):
                    base = target.lstrip("*(").strip()
                    if base.startswith("\\"):
                        continue  # ACSL builtin location (\nothing, \result, ...)
                    m = _IDENT_RE.search(base)
                    if m is None:
                        continue
                    if m.group() not in visible:
                        issues.append(
                            LintIssue(
                                rule=LintRule.ASSIGNS_OUT_OF_SCOPE,
                                line=annotation.line,
                                detail=(
                                    f"assigns target {target!r}: {m.group()!r} is not "
                                    "a parameter or file-scope name"
                                ),
                            )
                        )

        if (
            block.placement is STATEMENT
            and block.annotations[0].block_style
            and len(block.annotations) > 1
        ):
            issues.append(
                LintIssue(
                    rule=LintRule.BLOCK_STYLE_IN_BODY,
                    line=block.annotations[0].line,
                    detail="multi-clause /*@ block on a statement; "
                    "use this style only for function headers",
                )
            )

    issues.sort(key=lambda i: (i.line, i.rule.value))
    return issues
