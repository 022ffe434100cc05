"""Lexical scanner for C sources carrying ACSL comment annotations.

This is deliberately a tokenizer, not a parser: the preservation, lint, and
mutation machinery only needs a faithful token stream with source spans.
Comments survive as tokens (annotations live inside them), preprocessor
directives collapse to one token per logical line, and any character the
scanner does not recognize becomes a one-character punctuator so that
scanning is total except for unterminated comments and literals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple


class TokenizeError(Exception):
    """An unterminated comment or literal; the message names its line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")


class TokenKind(Enum):
    COMMENT = "comment"            # /* ... */
    LINE_COMMENT = "line_comment"  # // ...
    PREPROC = "preproc"            # whole #-directive logical line
    ID = "id"
    NUMBER = "number"
    CHAR = "char"
    STRING = "string"
    PUNCT = "punct"


_COMMENT_KINDS = (TokenKind.COMMENT, TokenKind.LINE_COMMENT)


class Token(NamedTuple):
    """One scanned token; a plain tuple, so it equals ``(kind, text, line, start, end)``."""

    kind: TokenKind
    text: str
    line: int   # 1-based line of the token's first character
    start: int  # byte offset into the source, inclusive
    end: int    # byte offset, exclusive

    @property
    def is_comment(self) -> bool:
        return self.kind in _COMMENT_KINDS

    @property
    def is_acsl(self) -> bool:
        """True for ACSL annotation comments: ``/*@ ...`` or ``//@ ...``."""
        if self.kind is TokenKind.COMMENT:
            return self.text.startswith("/*@")
        if self.kind is TokenKind.LINE_COMMENT:
            return self.text.startswith("//@")
        return False


C_KEYWORDS = frozenset(
    """
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    _Bool _Complex _Imaginary
    """.split()
)

# Longest-match first; covers C punctuators plus nothing ACSL-specific (ACSL
# text lives inside comment tokens and is never scanned here).
_PUNCTUATORS = (
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
)

# One master pattern; the first alternative that matches at a position wins.
# Only " \t\r\v\f" and "\n" are whitespace, and only "\n" ends a line. A
# directive starts at a '#' preceded on its line by whitespace alone, so
# ``newline`` stops right after a newline for ``preproc`` to try the next
# line; a line whose trailing-whitespace-stripped text ends in a backslash
# continues the directive. Every other token takes the run of blanks before
# it into its match; no token group matches a blank, so the run never gives
# a character back to the token, and trailing blanks at the end of the input
# match nothing. The token itself is the one named group that matched.
# Newlines escaped inside literals do not count as lines. ``quote`` catches
# literals the ``string``/``char`` forms cannot close.
_TOKEN_RE = re.compile(
    r"^[ \t\r\v\f]*(?P<preproc>\#(?:[^\n]*\\[^\S\n]*\n)*[^\n]*)"
    r"|(?P<newline>(?:[ \t\r\v\f]*\n)+)"
    r"|[ \t\r\v\f]*(?:"
    r"(?P<id>[A-Za-z_$][A-Za-z0-9_$]*)"
    r"|(?P<number>(?:0[xX][0-9a-fA-F]+|(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)[uUlLfF]*)"
    r"|(?P<comment>/\*)"
    r"|(?P<line_comment>//[^\n]*)"
    r'|(?P<string>"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*")'
    r"|(?P<char>'[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*')"
    r"|(?P<quote>[\"'])"
    r"|(?P<punct>" + "|".join(re.escape(p) for p in _PUNCTUATORS) + ")"
    # Any other character but a blank (@, \, `, non-ASCII...) is a one-char
    # punctuator.
    r"|(?P<other>[^ \t\r\v\f]))",
    re.MULTILINE,
)

# ``m.lastindex`` of a match, the number of its token group, indexes these:
# the kind of a token taken as matched, else None.
_PLAIN_KINDS: list[TokenKind | None] = [None] * (_TOKEN_RE.groups + 1)
for _name, _kind in (
    ("id", TokenKind.ID),
    ("punct", TokenKind.PUNCT),
    ("number", TokenKind.NUMBER),
    ("other", TokenKind.PUNCT),
    ("string", TokenKind.STRING),
    ("char", TokenKind.CHAR),
    ("line_comment", TokenKind.LINE_COMMENT),
):
    _PLAIN_KINDS[_TOKEN_RE.groupindex[_name]] = _kind
_NEWLINE, _COMMENT, _PREPROC = (
    _TOKEN_RE.groupindex[g] for g in ("newline", "comment", "preproc")
)


def tokenize(source: str) -> list[Token]:
    """Scan ``source`` into tokens, comments included.

    Raises TokenizeError for an unterminated comment or literal; everything
    else scans. A line that recurs in ``source`` is scanned once (see
    ``tokenize_reusing``, here with a fresh memo).
    """
    return _scan(source, {})


# A scanned line's tokens and the offset of its end (its newline, or the end
# of the source).
SeenLine = tuple[list[Token], int]


def tokenize_reusing(source: str, seen: dict[str, SeenLine]) -> list[Token]:
    """``tokenize(source)``, taking the tokens of lines already in ``seen``.

    ``seen`` maps a line's text (up to, not including, its newline) to the
    tokens an earlier scan found on it. A line that starts outside any
    comment, directive or literal and is in ``seen`` is not scanned again:
    its tokens are copied, moved to this line's number and offset. Such a
    line that is not in ``seen`` is scanned and added to it, unless a
    comment, directive or literal runs on past its end. The result, and any
    TokenizeError, equal ``tokenize(source)``'s. ``seen`` holds every
    distinct line it has been given, so share it only among sources scanned
    together.
    """
    return _scan(source, seen)


def _scan(source: str, seen: dict[str, SeenLine]) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # builds a Token without the Python-level __new__ call
    match = _TOKEN_RE.match
    find = source.find
    plain_kinds = _PLAIN_KINDS
    pos = 0
    line = 1
    n = len(source)
    first = -1  # index of the first token of the line being recorded, or -1
    while pos < n:  # at a line start outside comments, directives and literals
        eol = find("\n", pos)
        if eol == -1:
            eol = n
        key = source[pos:eol]
        if key in seen:
            old, old_eol = seen[key]
            shift = eol - old_eol
            for kind, text, _, start, end in old:
                append(new(Token, (kind, text, line, start + shift, end + shift)))
            pos = eol
        else:
            first = len(tokens)
        while pos < n:
            m = match(source, pos)
            if m is None:  # only blanks are left
                return tokens
            group = m.lastindex
            start, end = m.span(group)
            kind = plain_kinds[group]
            if kind is not None:
                append(new(Token, (kind, source[start:end], line, start, end)))
            elif group == _NEWLINE:
                if first >= 0:
                    if start <= eol:  # no comment, directive or literal ran on past it
                        seen[key] = (tokens[first:], eol)
                    first = -1
                line += 1 if end - start == 1 else source.count("\n", start, end)
                pos = end
                break
            elif group == _COMMENT:
                close = find("*/", start + 2)
                if close == -1:
                    raise TokenizeError("unterminated block comment", line)
                end = close + 2
                text = source[start:end]
                append(new(Token, (TokenKind.COMMENT, text, line, start, end)))
                line += text.count("\n")
            elif group == _PREPROC:
                text = source[start:end]
                append(new(Token, (TokenKind.PREPROC, text, line, start, end)))
                line += text.count("\n")
            else:  # quote
                raise TokenizeError(f"unterminated {source[start]} literal", line)
            pos = end
    return tokens


_WS_RUN_RE = re.compile(r"\s+")


def compare_text(token: Token) -> str:
    """Token text normalized for stream comparison.

    Preprocessor tokens collapse internal whitespace so layout-only edits to
    a directive do not register as code changes.
    """
    if token.kind is TokenKind.PREPROC:
        return _WS_RUN_RE.sub(" ", token.text.strip())
    return token.text


@dataclass(frozen=True, slots=True)
class ComparableStream:
    """The stream preservation compares: ``compare_text`` values and lines.

    Built from a source's non-comment tokens. It keeps strings and line
    numbers only, so a corpus entry can hold one without its tokens.
    """

    texts: tuple[str, ...]
    lines: tuple[int, ...]

    @classmethod
    def of(cls, tokens: Iterable[Token]) -> "ComparableStream":
        """The stream of ``tokens``, by the rule ``walk_tokens`` applies."""
        return walk_tokens(tokens)[0]


_DEFINE_RE = re.compile(r"#\s*define\s+(\w+)")


def walk_tokens(
    tokens: Iterable[Token],
) -> tuple[ComparableStream, frozenset[str], list[tuple[int, int]]]:
    """Collect, in one pass, every per-token fact the analysis reads.

    Returns ``(comparable, file_scope, acsl)``:

    - ``comparable``: the ``compare_text`` and line of every token that is
      not a comment; this is the one rule for what preservation compares;
    - ``file_scope``: the non-keyword identifiers at brace depth 0 plus the
      ``#define``d names, an over-approximation of the names visible at file
      scope (a stray ``}`` never takes the depth below 0);
    - ``acsl``: ``(index, depth)`` of each ACSL comment, its index in
      ``tokens`` and the brace depth it sits at.
    """
    texts: list[str] = []
    lines: list[int] = []
    names: set[str] = set()
    acsl: list[tuple[int, int]] = []
    add_text, add_line, add_name = texts.append, lines.append, names.add
    ident, punct, preproc = TokenKind.ID, TokenKind.PUNCT, TokenKind.PREPROC
    keywords = C_KEYWORDS
    depth = 0
    for idx, token in enumerate(tokens):
        kind, text, line, _, _ = token
        if kind is ident:
            if not depth and text not in keywords:
                add_name(text)
        elif kind is punct:
            if text == "{":
                depth += 1
            elif text == "}" and depth:
                depth -= 1
        elif kind in _COMMENT_KINDS:
            if token.is_acsl:
                acsl.append((idx, depth))
            continue
        elif kind is preproc:
            text = compare_text(token)
            m = _DEFINE_RE.match(text)
            if m:
                add_name(m.group(1))
        add_text(text)
        add_line(line)
    return ComparableStream(tuple(texts), tuple(lines)), frozenset(names), acsl
