"""Code-preservation verdicts and structural lint rules for annotated sources."""

from __future__ import annotations

import re
from dataclasses import dataclass
from difflib import SequenceMatcher
from enum import Enum
from typing import Sequence

from ..model import ASSIGNS, LOOP_ASSIGNS, LOOP_VARIANT, Record
from .annotations import FUNCTION_CONTRACT, STATEMENT, AnalyzedCode, strip_annotations
from .lexer import C_KEYWORDS, ID_START, ComparableStream, scan
from .lexer import tokenize  # not called here; perfbench/spans.py counts calls through it


@dataclass(frozen=True, eq=False, repr=False)
class DiffRun(Record):
    """One mismatching token run between original and annotated-then-stripped code."""

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

# Polynomial rolling hash over per-token hashes; equal hashes are only
# candidates, confirmed by comparing the slices.
_HASH_MOD = (1 << 61) - 1
_HASH_BASE = 1_000_000_007


def _prefix_hashes(values: Sequence[str]) -> list[int]:
    """``h[k]`` hashes ``values[:k]``; ``values[i:i+m]`` hashes to ``h[i+m] - h[i]*B**m``."""
    hashes = [0]
    h = 0
    for value in values:
        h = (h * _HASH_BASE + hash(value)) % _HASH_MOD
        hashes.append(h)
    return hashes


def _block_exists(
    a: Sequence[str],
    b: Sequence[str],
    hashes: tuple[list[int], list[int]],
    m: int,
    window: tuple[int, int, int, int],
    skip: tuple[int, int] | None = None,
) -> bool:
    """True iff ``a[i:i+m] == b[j:j+m]`` inside ``window`` for some ``(i, j) != skip``."""
    alo, ahi, blo, bhi = window
    if m > ahi - alo or m > bhi - blo:
        return False
    ha, hb = hashes
    shift = pow(_HASH_BASE, m, _HASH_MOD)
    starts: dict[int, list[int]] = {}
    for j in range(blo, bhi - m + 1):
        starts.setdefault((hb[j + m] - hb[j] * shift) % _HASH_MOD, []).append(j)
    for i in range(alo, ahi - m + 1):
        for j in starts.get((ha[i + m] - ha[i] * shift) % _HASH_MOD, ()):
            if (i, j) != skip and a[i : i + m] == b[j : j + m]:
                return True
    return False


def _opcodes(a: Sequence[str], b: Sequence[str]) -> list[_Opcode]:
    """``SequenceMatcher(None, a, b, autojunk=False).get_opcodes()``, window first.

    The matcher takes the longest common block of its window (ties go to the
    earliest start in ``a``, then in ``b``) and recurses on both sides. Its
    steps that take the common prefix or suffix are replayed here: the longer
    of the two (the prefix on a tie) is taken when no other block would win,
    then the same is tried at the other end. Only the edited window left
    between them goes through the quadratic matcher. The prefix, starting at
    (0, 0), wins every tie, so it is taken unless a block is longer; the
    suffix, starting last, is taken only when no other block is as long.
    """
    alo, ahi, blo, bhi = 0, len(a), 0, len(b)
    hashes = None
    while True:
        n = min(ahi - alo, bhi - blo)
        head = 0
        while head < n and a[alo + head] == b[blo + head]:
            head += 1
        tail = 0
        while tail < n and a[ahi - tail - 1] == b[bhi - tail - 1]:
            tail += 1
        if not head and not tail:
            break
        if hashes is None:
            hashes = (_prefix_hashes(a), _prefix_hashes(b))
        window = (alo, ahi, blo, bhi)
        if head >= tail:
            if _block_exists(a, b, hashes, head + 1, window):
                break
            alo += head
            blo += head
        else:
            if _block_exists(a, b, hashes, tail, window, skip=(ahi - tail, bhi - tail)):
                break
            ahi -= tail
            bhi -= tail
    # Trimmed ends are maximal, so the window's opcodes neither start nor end
    # with an "equal" that would have to merge with theirs.
    ops: list[_Opcode] = [("equal", 0, alo, 0, blo)] if alo else []
    matcher = SequenceMatcher(None, a[alo:ahi], b[blo:bhi], autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        ops.append((tag, i1 + alo, i2 + alo, j1 + blo, j2 + blo))
    if ahi < len(a) or bhi < len(b):
        ops.append(("equal", ahi, len(a), bhi, len(b)))
    return ops


def check_code_preserved(
    original: ComparableStream, annotated_code: AnalyzedCode
) -> PreservationVerdict:
    """True iff stripping annotations from ``annotated_code`` leaves the original tokens.

    Whitespace and comments never count; the diff localizes up to
    ``MAX_DIFF_RUNS`` mismatching token runs, line numbers taken from the
    original source where possible. ``original`` is the program's stream
    (``SourceProgram.comparable``) and ``annotated_code`` the reply's
    ``parse_blocks`` result, whose ``comparable`` stream its one scan already
    collected, so nothing is scanned twice.

    The reply's own non-comment tokens are compared directly: removing a
    comment leaves whitespace, which changes no other token. The one
    exception is a ``#`` that lexes as a punctuator because an ACSL comment
    precedes it on its line; stripped, it may start the line and lex as a
    directive. A reply whose compare texts hold a lone ``#``, a punctuator
    or an empty directive, is therefore stripped and scanned again.
    """
    modified = annotated_code.comparable
    if "#" in modified.texts:
        modified = scan(strip_annotations(annotated_code.code), {})[0]
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
