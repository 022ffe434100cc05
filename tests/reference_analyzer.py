"""Frozen reference implementations the analyzer is checked against.

``reference_tokenize`` is the original character-loop scanner, with C's
rule for where a directive starts, ``reference_split_response`` the original
line-by-line fence splitter, ``strip_and_rescan_verdict`` the original
preservation check, which removes the ACSL comments from the reply text,
scans what is left again and diffs the window its common ends leave,
``reference_parse_blocks`` the clause scanner that tried every keyword at
every position of an annotation body, ``_file_scope_names`` lint's own
walk for the names visible at file scope, and ``count_by_kind`` the census
counted one clause at a time. All are kept as they were so that
differential tests can compare the faster implementations in
``specforge.analyzer`` with them; do not optimize them.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import Iterable

from specforge.analyzer import (
    FUNCTION_CONTRACT,
    LOOP_ANNOTATION,
    STATEMENT,
    Annotation,
    AnnotationBlock,
    C_KEYWORDS,
    DiffRun,
    Enclosing,
    NoCodeFence,
    PreservationVerdict,
    SplitResponse,
    Token,
    TokenKind,
    TokenizeError,
    tokenize,
)
from specforge.model import (
    ASSERT,
    ASSIGNS,
    ASSUMES,
    BEHAVIOR,
    ENSURES,
    GHOST,
    KNOWN_KINDS,
    LOOP_ASSIGNS,
    LOOP_INVARIANT,
    LOOP_VARIANT,
    PREDICATE,
    REQUIRES,
    AnnotationKind,
)

RefToken = tuple[TokenKind, str, int, int, int]  # kind, text, line, start, end

_ID_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_NUMBER_RE = re.compile(
    r"(?:0[xX][0-9a-fA-F]+|(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"[uUlLfF]*"
)
_PUNCTUATORS = (
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
)


def reference_split_response(response_text: str) -> SplitResponse:
    """The original splitter: strips every line to find the fences.

    Preference order: the longest ``c``-tagged fence, then the longest
    untagged fence, then the longest fence of any tag; ties go to the last
    occurrence (models often finish with a consolidated program). Raises
    NoCodeFence when the reply has no fence at all.
    """
    fences: list[tuple[str, str]] = []  # (tag, content)
    reasoning_lines: list[str] = []
    lines = response_text.split("\n")
    i = 0
    while i < len(lines):
        stripped = lines[i].strip()
        if stripped.startswith("```"):
            tag = stripped[3:].strip().lower()
            j = i + 1
            content: list[str] = []
            while j < len(lines) and not lines[j].strip().startswith("```"):
                content.append(lines[j])
                j += 1
            fences.append((tag, "\n".join(content)))
            i = j + 1  # past the closing fence; an unclosed fence runs to EOF
        else:
            reasoning_lines.append(lines[i])
            i += 1

    if not fences:
        raise NoCodeFence("response contains no fenced code block")

    candidates = [(idx, f) for idx, f in enumerate(fences) if f[0] == "c"]
    if not candidates:
        candidates = [(idx, f) for idx, f in enumerate(fences) if f[0] == ""]
    if not candidates:
        candidates = list(enumerate(fences))
    _, (_, code) = max(candidates, key=lambda pair: (len(pair[1][1]), pair[0]))

    reasoning = "\n".join(reasoning_lines).strip()
    return SplitResponse(reasoning=reasoning, code=code)


def reference_tokenize(source: str) -> list[RefToken]:
    """The original scanner: same tokens, spans, lines and exceptions.

    A ``#`` starts a directive when only blanks and comments come before it
    since the last newline outside a comment: a block comment leaves
    ``at_line_start`` as it found it, as C reads each comment as one space
    before it finds directives.
    """
    tokens: list[RefToken] = []
    pos = 0
    line = 1
    n = len(source)
    at_line_start = True

    while pos < n:
        ch = source[pos]

        if ch == "\n":
            line += 1
            pos += 1
            at_line_start = True
            continue
        if ch in " \t\r\v\f":
            pos += 1
            continue

        start = pos
        start_line = line

        if ch == "/" and source.startswith("/*", pos):
            close = source.find("*/", pos + 2)
            if close == -1:
                raise TokenizeError("unterminated block comment", start_line)
            end = close + 2
            text = source[start:end]
            line += text.count("\n")
            tokens.append((TokenKind.COMMENT, text, start_line, start, end))
            pos = end
            continue

        if ch == "/" and source.startswith("//", pos):
            end = source.find("\n", pos)
            end = n if end == -1 else end
            tokens.append((TokenKind.LINE_COMMENT, source[start:end], start_line, start, end))
            pos = end
            at_line_start = False
            continue

        if ch == "#" and at_line_start:
            end = pos
            while end < n:
                nl = source.find("\n", end)
                if nl == -1:
                    end = n
                    break
                stripped = source[end:nl].rstrip()
                if stripped.endswith("\\"):
                    line += 1
                    end = nl + 1
                else:
                    end = nl
                    break
            tokens.append((TokenKind.PREPROC, source[start:end], start_line, start, end))
            pos = end
            at_line_start = False
            continue

        at_line_start = False

        if ch in "'\"":
            pos += 1
            while pos < n:
                c = source[pos]
                if c == "\\" and pos + 1 < n:
                    if source[pos + 1] == "\n":  # an escaped newline is a line too
                        line += 1
                    elif source.startswith("\r\n", pos + 1):  # so is an escaped CR LF
                        line += 1
                        pos += 1
                    pos += 2
                    continue
                if c == ch:
                    pos += 1
                    break
                if c == "\n":
                    raise TokenizeError(f"unterminated {ch} literal", start_line)
                pos += 1
            else:
                raise TokenizeError(f"unterminated {ch} literal", start_line)
            kind = TokenKind.CHAR if ch == "'" else TokenKind.STRING
            tokens.append((kind, source[start:pos], start_line, start, pos))
            continue

        m = _ID_RE.match(source, pos)
        if m:
            tokens.append((TokenKind.ID, m.group(), start_line, start, m.end()))
            pos = m.end()
            continue

        if ch.isdigit() or (ch == "." and pos + 1 < n and source[pos + 1].isdigit()):
            m = _NUMBER_RE.match(source, pos)
            if m:
                tokens.append((TokenKind.NUMBER, m.group(), start_line, start, m.end()))
                pos = m.end()
                continue

        for p in _PUNCTUATORS:
            if source.startswith(p, pos):
                pos += len(p)
                tokens.append((TokenKind.PUNCT, p, start_line, start, pos))
                break
        else:
            pos += 1
            tokens.append((TokenKind.PUNCT, ch, start_line, start, pos))

    return tokens


_WS_RUN_RE = re.compile(r"\s+")
_COMMENTS = (TokenKind.COMMENT, TokenKind.LINE_COMMENT)


def _is_acsl(token: RefToken) -> bool:
    kind, text = token[0], token[1]
    return (kind is TokenKind.COMMENT and text.startswith("/*@")) or (
        kind is TokenKind.LINE_COMMENT and text.startswith("//@")
    )


def _strip_acsl(code: str) -> str:
    """``code`` with every ACSL comment removed, every other token kept in order.

    A removed comment becomes one space, as in C's translation phase 3. One
    that spans lines and has only blanks and comments before it since a line
    start becomes its newlines instead: what follows then keeps its lines,
    and its new line start is one C already reads there. After code, such a
    comment's newlines would start a line that C does not have.
    """
    out: list[str] = []
    pos = 0  # end of the code copied so far
    last = 0  # end of the last token
    at_line_start = True
    for token in reference_tokenize(code):
        kind, text, _, start, end = token
        if "\n" in code[last:start]:
            at_line_start = True
        if _is_acsl(token):
            out.append(code[pos:start])
            newlines = "\n" * text.count("\n")
            out.append(newlines if newlines and at_line_start else " ")
            pos = end
        elif kind is not TokenKind.COMMENT:
            at_line_start = False
        last = end
    out.append(code[pos:])
    return "".join(out)


def _comparable(source: str) -> list[tuple[str, int]]:
    """(compare text, line) of every non-comment token."""
    return [
        (_WS_RUN_RE.sub(" ", t[1].strip()) if t[0] is TokenKind.PREPROC else t[1], t[2])
        for t in reference_tokenize(source)
        if t[0] not in _COMMENTS
    ]


_DEFINE_RE = re.compile(r"#\s*define\s+(\w+)")


def _file_scope_names(tokens: list[Token]) -> set[str]:
    """Identifiers visible at file scope plus #define'd names (over-approximate)."""
    names: set[str] = set()
    depth = 0
    for token in tokens:
        if token.kind is TokenKind.PUNCT:
            if token.text == "{":
                depth += 1
            elif token.text == "}":
                depth = max(0, depth - 1)
        elif token.kind is TokenKind.PREPROC:
            m = _DEFINE_RE.match(" ".join(token.text.split()))
            if m:
                names.add(m.group(1))
        elif token.kind is TokenKind.ID and depth == 0 and token.text not in C_KEYWORDS:
            names.add(token.text)
    return names


def strip_and_rescan_verdict(
    original_source: str, annotated_code: str, max_diff_runs: int = 10
) -> PreservationVerdict:
    """The original preservation check: strip ACSL comments, re-scan, diff.

    The diff matches only the window left between the maximal common prefix
    and the maximal common suffix of the rest.
    """
    tok_orig = _comparable(original_source)
    tok_mod = _comparable(_strip_acsl(annotated_code))
    values_orig = [text for text, _ in tok_orig]
    values_mod = [text for text, _ in tok_mod]
    if values_orig == values_mod:
        return PreservationVerdict(preserved=True, diff=())

    head = len(os.path.commonprefix([values_orig, values_mod]))
    tail = len(os.path.commonprefix([values_orig[head:][::-1], values_mod[head:][::-1]]))
    runs: list[DiffRun] = []
    matcher = SequenceMatcher(
        None,
        values_orig[head : len(values_orig) - tail],
        values_mod[head : len(values_mod) - tail],
        autojunk=False,
    )
    for op, i1, i2, j1, j2 in matcher.get_opcodes():
        if op == "equal":
            continue
        i1, i2, j1, j2 = i1 + head, i2 + head, j1 + head, j2 + head
        if i1 < len(tok_orig):
            line = tok_orig[i1][1]
        elif tok_orig:
            line = tok_orig[-1][1]
        elif j1 < len(tok_mod):
            line = tok_mod[j1][1]
        else:
            line = 1
        runs.append(
            DiffRun(
                line=line,
                original=" ".join(values_orig[i1:i2]),
                modified=" ".join(values_mod[j1:j2]),
            )
        )
        if len(runs) >= max_diff_runs:
            break
    return PreservationVerdict(preserved=False, diff=tuple(runs))


# The clause scanner as it was: every keyword tried at every position of the
# body, matches kept only after ';', ':' or the start, one _Clause per match.
# Do not optimize.

_CORE_STARTERS: dict[str, AnnotationKind] = {
    "loop invariant": LOOP_INVARIANT,
    "loop assigns": LOOP_ASSIGNS,
    "loop variant": LOOP_VARIANT,
    "requires": REQUIRES,
    "ensures": ENSURES,
    "assigns": ASSIGNS,
    "assert": ASSERT,
    "behavior": BEHAVIOR,
    "assumes": ASSUMES,
    "predicate": PREDICATE,
    "ghost": GHOST,
}

_OTHER_STARTERS: tuple[str, ...] = (
    "complete behaviors",
    "disjoint behaviors",
    "global invariant",
    "loop allocates",
    "loop frees",
    "terminates",
    "decreases",
    "allocates",
    "frees",
    "exits",
    "returns",
    "breaks",
    "continues",
    "invariant",
    "variant",
    "axiomatic",
    "axiom",
    "lemma",
    "logic",
    "inductive",
    "check",
    "admit",
)

_ALL_STARTERS: tuple[str, ...] = tuple(
    sorted(
        list(_CORE_STARTERS) + list(_OTHER_STARTERS),
        key=lambda kw: (-len(kw.split()), -len(kw)),
    )
)

_STARTER_RE = re.compile(
    "|".join(
        r"(?:\b" + r"\s+".join(re.escape(w) for w in kw.split()) + r"\b)"
        for kw in _ALL_STARTERS
    )
)

_BEHAVIOR_NAME_RE = re.compile(r"\s*([A-Za-z_]\w*)\s*:")
_LOOP_HEADS = frozenset(("for", "while", "do"))


def _normalize_line(raw_line: str) -> str:
    text = raw_line.strip()
    while text.startswith("@"):
        text = text[1:].lstrip()
    while text.endswith("@"):
        text = text[:-1].rstrip()
    cut = text.find("//")
    if cut != -1:
        text = text[:cut].rstrip()
    return text


def _comment_body(token) -> list[tuple[int, str]]:
    if token.kind is TokenKind.COMMENT:
        inner = token.text[3:-2]
    else:
        inner = token.text[3:]
    segments = []
    for i, raw_line in enumerate(inner.split("\n")):
        segments.append((token.line + i, _normalize_line(raw_line)))
    return segments


@dataclass(frozen=True)
class _Clause:
    kind: AnnotationKind
    text: str
    line: int
    is_behavior_header: bool
    behavior_name: str | None


def _scan_clauses(segments: list[tuple[int, str]]) -> list[_Clause]:
    body = "\n".join(text for _, text in segments)
    offsets: list[int] = []
    offset = 0
    for _, text in segments:
        offsets.append(offset)
        offset += len(text) + 1

    def line_of(pos: int) -> int:
        return segments[bisect_right(offsets, pos) - 1][0]

    matches = []
    for m in _STARTER_RE.finditer(body):
        j = m.start() - 1
        while j >= 0 and body[j].isspace():
            j -= 1
        if j >= 0 and body[j] not in ";:":
            continue
        matches.append(m)

    clauses: list[_Clause] = []
    for i, m in enumerate(matches):
        keyword = " ".join(m.group().split())
        end = matches[i + 1].start() if i + 1 < len(matches) else len(body)
        text = body[m.end():end].strip().rstrip(";").strip()
        kind = _CORE_STARTERS.get(keyword, AnnotationKind.other(keyword))
        behavior_name = None
        is_header = False
        if kind == BEHAVIOR:
            is_header = True
            name_match = _BEHAVIOR_NAME_RE.match(body, m.end())
            if name_match:
                behavior_name = name_match.group(1)
                text = behavior_name
            else:
                behavior_name = text or "<anonymous>"
        clauses.append(
            _Clause(
                kind=kind,
                text=text,
                line=line_of(m.start()),
                is_behavior_header=is_header,
                behavior_name=behavior_name,
            )
        )
    return clauses


def reference_parse_blocks(code: str) -> list[AnnotationBlock]:
    """The original ``parse_blocks``: the same blocks, clauses and placement facts."""
    tokens = tokenize(code)
    # The package reports positions in the non-comment stream: a token index
    # maps to the number of non-comment tokens before it, and an ACSL comment
    # that heads no loop keys its loop by its own ordinal, made negative.
    code_index = [0]
    for token in tokens:
        code_index.append(code_index[-1] + (not token.is_comment))
    acsl_ordinal = {
        idx: ordinal
        for ordinal, idx in enumerate(i for i, t in enumerate(tokens) if t.is_acsl)
    }
    blocks: list[AnnotationBlock] = []
    depth = 0
    for idx, token in enumerate(tokens):
        if not token.is_acsl:
            if token.kind is TokenKind.PUNCT:
                if token.text == "{":
                    depth += 1
                elif token.text == "}":
                    depth = max(0, depth - 1)
            continue

        segments = _comment_body(token)
        clauses = _scan_clauses(segments)
        if not clauses:
            continue

        next_code = idx + 1
        while next_code < len(tokens) and tokens[next_code].is_comment:
            next_code += 1
        heads_loop = next_code < len(tokens) and tokens[next_code].text in _LOOP_HEADS
        has_loop_clause = any(c.kind.keyword.startswith("loop ") for c in clauses)
        block_style = token.kind is TokenKind.COMMENT

        if heads_loop or has_loop_clause:
            enclosing_for = lambda _c: LOOP_ANNOTATION  # noqa: E731
            loop_key = code_index[next_code] if heads_loop else -1 - acsl_ordinal[idx]
            placement = LOOP_ANNOTATION
        elif depth == 0:
            loop_key = None
            placement = FUNCTION_CONTRACT
            current_behavior: list[str | None] = [None]

            def enclosing_for(c: _Clause) -> Enclosing:
                if c.is_behavior_header:
                    current_behavior[0] = c.behavior_name
                    return FUNCTION_CONTRACT
                if current_behavior[0] is not None:
                    return Enclosing("behavior_body", current_behavior[0])
                return FUNCTION_CONTRACT

        else:
            loop_key = None
            placement = STATEMENT
            enclosing_for = lambda _c: STATEMENT  # noqa: E731

        annotations = tuple(
            Annotation(
                kind=c.kind,
                clause_text=c.text,
                block_style=block_style,
                line=c.line,
                enclosing=enclosing_for(c),
            )
            for c in clauses
        )
        blocks.append(
            AnnotationBlock(
                annotations=annotations,
                code_index=code_index[idx],
                loop_key=loop_key,
                placement=placement,
            )
        )
    return blocks


def count_by_kind(annotations: Iterable[Annotation]) -> dict[AnnotationKind, int]:
    """Histogram of clause kinds; known kinds are always present (zero allowed)."""
    histogram: dict[AnnotationKind, int] = {kind: 0 for kind in KNOWN_KINDS}
    for kind, n in Counter(a.kind for a in annotations).items():
        histogram[kind] = histogram.get(kind, 0) + n
    return histogram
