"""Frozen reference implementations the analyzer is checked against.

``reference_tokenize`` is the original character-loop scanner and
``strip_and_rescan_verdict`` the original preservation check, which removes
the ACSL comments from the reply text and scans what is left again. Both are
kept as they were so that differential tests can compare the faster
implementations in ``specforge.analyzer`` with them; do not optimize them.
"""

from __future__ import annotations

import re
from difflib import SequenceMatcher

from specforge.analyzer import (
    DiffRun,
    PreservationVerdict,
    TokenKind,
    UnterminatedComment,
    UnterminatedLiteral,
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


def reference_tokenize(source: str) -> list[RefToken]:
    """The original scanner: same tokens, spans, lines and exceptions."""
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
                raise UnterminatedComment(start_line)
            end = close + 2
            text = source[start:end]
            line += text.count("\n")
            tokens.append((TokenKind.COMMENT, text, start_line, start, end))
            pos = end
            at_line_start = False
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
                    pos += 2
                    continue
                if c == ch:
                    pos += 1
                    break
                if c == "\n":
                    raise UnterminatedLiteral(start_line, ch)
                pos += 1
            else:
                raise UnterminatedLiteral(start_line, ch)
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
    spans = [(t[3], t[4], t[1]) for t in reference_tokenize(code) if _is_acsl(t)]
    out: list[str] = []
    pos = 0
    for start, end, text in spans:
        out.append(code[pos:start])
        newlines = "\n" * text.count("\n")
        out.append(newlines if newlines else " ")
        pos = end
    out.append(code[pos:])
    return "".join(out)


def _comparable(source: str) -> list[tuple[str, int]]:
    """(compare text, line) of every non-comment token."""
    return [
        (_WS_RUN_RE.sub(" ", t[1].strip()) if t[0] is TokenKind.PREPROC else t[1], t[2])
        for t in reference_tokenize(source)
        if t[0] not in _COMMENTS
    ]


def strip_and_rescan_verdict(
    original_source: str, annotated_code: str, max_diff_runs: int = 10
) -> PreservationVerdict:
    """The original preservation check: strip ACSL comments, re-scan, diff."""
    tok_orig = _comparable(original_source)
    tok_mod = _comparable(_strip_acsl(annotated_code))
    values_orig = [text for text, _ in tok_orig]
    values_mod = [text for text, _ in tok_mod]
    if values_orig == values_mod:
        return PreservationVerdict(preserved=True, diff=())

    runs: list[DiffRun] = []
    matcher = SequenceMatcher(None, values_orig, values_mod, autojunk=False)
    for op, i1, i2, j1, j2 in matcher.get_opcodes():
        if op == "equal":
            continue
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
