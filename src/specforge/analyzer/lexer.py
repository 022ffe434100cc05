"""Lexical scanner for C sources carrying ACSL comment annotations.

This is deliberately a tokenizer, not a parser. ``scan`` goes from a source
straight to what the analysis reads (the stream preservation compares, the
file-scope names, the ACSL comments), ``tokenize`` gives the tokens with
their source spans that mutation sites and annotation stripping need, and
``line_tokens`` gives those of one line; all take their tokens from one
lexing loop. Comments survive as tokens (annotations live inside them),
preprocessor directives collapse to one token per logical line, and any
character the scanner does not recognize becomes a one-character punctuator
so that scanning is total except for unterminated comments and literals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple


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

# What an identifier token starts with, and no other token: a number starts
# with a digit or '.', and a letter the lexer does not know is a punctuator.
ID_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$")

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
# A newline escaped inside a literal counts as a line, as one inside a
# directive does. ``quote`` catches literals the ``string``/``char`` forms
# cannot close.
_TOKEN_RE = re.compile(
    r"^[ \t\r\v\f]*(?P<preproc>\#(?:[^\n]*\\[^\S\n]*\n)*[^\n]*)"
    r"|(?P<newline>(?:[ \t\r\v\f]*\n)+)"
    r"|[ \t\r\v\f]*(?:"
    r"(?P<id>[A-Za-z_$][A-Za-z0-9_$]*)"
    r"|(?P<number>(?:0[xX][0-9a-fA-F]+|(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)[uUlLfF]*)"
    r"|(?P<comment>/\*)"
    r"|(?P<line_comment>//[^\n]*)"
    r'|(?P<string>"[^"\\\n]*(?:\\(?:\r\n|[\s\S])[^"\\\n]*)*")'
    r"|(?P<char>'[^'\\\n]*(?:\\(?:\r\n|[\s\S])[^'\\\n]*)*')"
    r"|(?P<quote>[\"'])"
    r"|(?P<punct>" + "|".join(re.escape(p) for p in _PUNCTUATORS) + ")"
    # Any other character but a blank (@, \, `, non-ASCII...) is a one-char
    # punctuator.
    r"|(?P<other>[^ \t\r\v\f]))",
    re.MULTILINE,
)

# ``m.lastindex`` of a match, the number of its token group, indexes this:
# the kind of a token taken as matched, else None.
_KINDS: list[TokenKind | None] = [None] * (_TOKEN_RE.groups + 1)
for _name, _kind in (
    ("preproc", TokenKind.PREPROC),
    ("id", TokenKind.ID),
    ("number", TokenKind.NUMBER),
    ("comment", TokenKind.COMMENT),
    ("line_comment", TokenKind.LINE_COMMENT),
    ("string", TokenKind.STRING),
    ("char", TokenKind.CHAR),
    ("punct", TokenKind.PUNCT),
    ("other", TokenKind.PUNCT),
):
    _KINDS[_TOKEN_RE.groupindex[_name]] = _kind
_PREPROC, _NEWLINE, _ID, _COMMENT, _LINE_COMMENT, _PUNCT = (
    _TOKEN_RE.groupindex[g]
    for g in ("preproc", "newline", "id", "comment", "line_comment", "punct")
)
_SPANS_LINES = frozenset(_TOKEN_RE.groupindex[g] for g in ("preproc", "string", "char"))


def _lex(source: str, pos: int, line: int) -> Iterator[tuple[int, str, int, int, int]]:
    """Yield ``(group, text, line, start, end)`` for each token from ``pos`` on.

    ``pos`` is a line start, or the end of a token, outside comments,
    directives and literals, and ``line`` its number (a directive starts
    only at a line start); ``group`` is the number of the token's group in
    ``_TOKEN_RE``. A run of newlines is yielded too, with empty text and the
    number of the line after it. Raises TokenizeError for an unterminated
    comment or literal.
    """
    match = _TOKEN_RE.match
    kinds = _KINDS
    spans_lines = _SPANS_LINES
    n = len(source)
    while pos < n:
        m = match(source, pos)
        if m is None:  # only blanks are left
            return
        group = m.lastindex
        start, end = m.span(group)
        if group == _NEWLINE:
            line += 1 if end - start == 1 else source.count("\n", start, end)
            yield group, "", line, start, end
        elif group == _COMMENT:
            close = source.find("*/", start + 2)
            if close == -1:
                raise TokenizeError("unterminated block comment", line)
            end = close + 2
            text = source[start:end]
            yield group, text, line, start, end
            line += text.count("\n")
        elif kinds[group] is not None:
            text = source[start:end]
            yield group, text, line, start, end
            if group in spans_lines:
                line += text.count("\n")
        else:  # quote
            raise TokenizeError(f"unterminated {source[start]} literal", line)
        pos = end


def tokenize(source: str) -> list[Token]:
    """Scan ``source`` into tokens, comments included.

    Raises TokenizeError for an unterminated comment or literal; everything
    else scans. Analysis takes ``scan``'s facts instead; tokens are for what
    needs offsets: mutation sites and stripping annotations.
    """
    new = tuple.__new__  # builds a Token without the Python-level __new__ call
    kinds = _KINDS
    return [
        new(Token, (kinds[group], text, line, start, end))
        for group, text, line, start, end in _lex(source, 0, 1)
        if group != _NEWLINE
    ]


def line_tokens(source: str, pos: int, line: int) -> list[Token]:
    """The tokens, comments included, from ``pos`` on that start on ``line``.

    ``pos`` is a place ``tokenize``'s scan of ``source`` stands at (see
    ``_lex``) and ``line`` the number it has there; the tokens are then the
    ones ``tokenize`` gives from there to the end of the line. Lexing stops
    at the first token past the line, so a line is read alone. Raises
    TokenizeError for an unterminated comment or literal.
    """
    new = tuple.__new__
    kinds = _KINDS
    tokens: list[Token] = []
    for group, text, at, start, end in _lex(source, pos, line):
        if at != line:  # a newline run, or a token after a multi-line one
            break
        tokens.append(new(Token, (kinds[group], text, at, start, end)))
    return tokens


@dataclass(frozen=True, slots=True, eq=False)
class ComparableStream:
    """The stream preservation compares: the compare texts and lines of a
    source's non-comment tokens (see ``scan``).

    It keeps strings and line numbers only, so a corpus entry can hold one
    without its tokens.
    """

    texts: tuple[str, ...]
    lines: tuple[int, ...]


# An ACSL comment as ``scan`` reports it: its text, its first line, the brace
# depth it sits at, and ``code_index``, the index in the comparable texts of
# the first code token after it (the number of texts when none follows).
AcslComment = tuple[str, int, int, int]

# What a line adds to a scan that reaches it at a given brace depth: its
# compare texts; the depth after it; its names at file scope, its ``#define``d
# names among them; and each ACSL comment's text, depth and index among the
# line's texts.
LineFacts = tuple[
    tuple[str, ...],
    int,
    tuple[str, ...],
    tuple[tuple[str, int, int], ...],
]

_WS_RUN_RE = re.compile(r"\s+")
_DEFINE_RE = re.compile(r"#\s*define\s+(\w+)")


def scan(
    source: str, seen: dict[tuple[str, int], LineFacts]
) -> tuple[ComparableStream, frozenset[str], list[AcslComment]]:
    """Collect, in one pass over ``source``, every fact the analysis reads.

    Returns ``(comparable, file_scope, acsl)``:

    - ``comparable``: the compare text and line of every token that is not
      a comment; a directive's compare text has its whitespace runs
      collapsed, so layout-only edits to it do not count as code changes;
      this is the one rule for what preservation compares;
    - ``file_scope``: the non-keyword identifiers at brace depth 0 plus the
      ``#define``d names, an over-approximation of the names visible at file
      scope (a stray ``}`` never takes the depth below 0);
    - ``acsl``: each ACSL comment (``/*@ ...`` or ``//@ ...``) as an
      ``AcslComment``.

    ``seen`` maps a line's text (up to, not including, its newline) and the
    brace depth it starts at to what it adds to a scan. A line that starts
    outside any comment, directive or literal and is in ``seen`` at its
    depth is not scanned again. Such a line that is not is scanned and added
    to it, unless a comment, directive or literal runs on past its end; so is
    each blank line that the scan passes in a run of newlines, which a later
    scan may reach at its start, after a line it found in ``seen``. The
    result, and any TokenizeError, are those of a scan with an empty
    ``seen``. ``seen`` holds every distinct line and depth it has been
    given, so share it only among sources scanned together.
    """
    texts: list[str] = []
    lines: list[int] = []
    names: set[str] = set()
    acsl: list[AcslComment] = []
    add_text, add_line = texts.append, lines.append
    add_texts, add_lines, add_names = texts.extend, lines.extend, names.update
    get = seen.get
    find = source.find
    keywords = C_KEYWORDS
    depth = 0
    line = 1
    pos = 0
    n = len(source)
    while pos < n:  # at a line start outside comments, directives and literals
        eol = find("\n", pos)
        if eol == -1:
            eol = n
        key = (source[pos:eol], depth)
        facts = get(key)
        if facts is not None:
            line_texts, depth, line_names, comments = facts
            if comments:
                base = len(texts)
                for text, at, k in comments:
                    acsl.append((text, line, at, base + k))
            add_texts(line_texts)
            add_lines([line] * len(line_texts))
            add_names(line_names)
            line += 1
            pos = eol + 1
            continue
        # Scan the line, and past its end when a token runs on.
        base = len(texts)
        scope_names: list[str] = []
        line_comments: list[tuple[str, int, int]] = []
        add_name = scope_names.append
        for group, text, line, start, end in _lex(source, pos, line):
            if group == _ID:
                if not depth and text not in keywords:
                    add_name(text)
            elif group == _PUNCT:
                if text == "{":
                    depth += 1
                elif text == "}" and depth:
                    depth -= 1
            elif group == _NEWLINE:
                if start <= eol:  # no comment, directive or literal ran on past it
                    seen[key] = (
                        tuple(texts[base:]), depth, tuple(scope_names), tuple(line_comments)
                    )
                if end - start > 1:  # blank lines in the run add nothing at this depth
                    blank = ((), depth, (), ())
                    for text in source[start:end].split("\n")[1:-1]:
                        seen[text, depth] = blank
                pos = end
                break
            elif group == _COMMENT or group == _LINE_COMMENT:
                if text.startswith("@", 2):
                    acsl.append((text, line, depth, len(texts)))
                    line_comments.append((text, depth, len(texts) - base))
                continue
            elif group == _PREPROC:
                text = _WS_RUN_RE.sub(" ", text.strip())
                m = _DEFINE_RE.match(text)
                if m:
                    add_name(m.group(1))
            add_text(text)
            add_line(line)
        else:
            pos = n  # the source ended before another newline
        add_names(scope_names)
    return ComparableStream(tuple(texts), tuple(lines)), frozenset(names), acsl
