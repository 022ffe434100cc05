"""Extract and classify ACSL clauses from annotated C sources and LLM replies.

Annotations are ACSL comments (``/*@ ... */`` blocks and ``//@ ...`` lines).
A block may hold several clauses; each clause is classified by its leading
keyword. Classification is total: recognized non-core keywords (terminates,
axiomatic, ...) are kept as "other" kinds carrying the verbatim keyword so a
census can surface them, and arbitrary words never start a clause, so binder
semicolons (``\\forall integer i; ...``) do not split clauses apart.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from ..model import ASSIGNS, BEHAVIOR, KNOWN_KINDS, LOOP_ASSIGNS, AnnotationKind, Record
from .lexer import ComparableStream, Token, TokenKind, tokenize, walk_tokens


class NoCodeFence(ValueError):
    """The response contains no fenced code block at all."""


@dataclass(frozen=True, eq=False, repr=False)
class SplitResponse(Record):
    """An LLM reply split into reasoning prose and the annotated-program fence."""

    reasoning: str
    code: str


def split_response(response_text: str) -> SplitResponse:
    """Select the annotated program fence; everything outside fences is reasoning.

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


@dataclass(frozen=True, eq=False, repr=False)
class Enclosing(Record):
    """Where a clause sits: function contract, loop, statement, or behavior body."""

    context: str  # "function_contract" | "loop" | "statement" | "behavior_body"
    behavior: str | None = field(default=None, metadata={"omit_if_none": True})

    def __post_init__(self) -> None:
        if self.context not in ("function_contract", "loop", "statement", "behavior_body"):
            raise ValueError(f"bad enclosing context {self.context!r}")
        if (self.context == "behavior_body") != (self.behavior is not None):
            raise ValueError("behavior name set iff context is behavior_body")


FUNCTION_CONTRACT = Enclosing("function_contract")
LOOP_ANNOTATION = Enclosing("loop")
STATEMENT = Enclosing("statement")


@dataclass(frozen=True, eq=False, repr=False)
class Annotation(Record):
    """One classified ACSL clause."""

    kind: AnnotationKind
    clause_text: str  # body after the keyword, trimmed, no '@' decoration
    block_style: bool  # True inside /*@ ... */, False for //@ lines
    line: int
    enclosing: Enclosing


# Clause-starting keywords: the known kinds get their own bucket; the rest of
# the ACSL clause vocabulary is recognized but reported verbatim as "other".
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

_STARTER_KINDS: dict[str, AnnotationKind] = {
    **{kind.keyword: kind for kind in KNOWN_KINDS},
    **{kw: AnnotationKind.other(kw) for kw in _OTHER_STARTERS},
}

# A clause starts at the start of a body or after ';' or ':' plus whitespace;
# a keyword anywhere else is a word inside a clause (e.g. after a binder
# semicolon). Group 1 is the keyword, its words split by any whitespace.
_STARTER_RE = re.compile(
    r"(?:\A|[;:])\s*("
    + "|".join(
        r"\s+".join(map(re.escape, kw.split()))
        # most words, then longest, first: alternation takes the first that fits
        for kw in sorted(_STARTER_KINDS, key=lambda kw: (-len(kw.split()), -len(kw)))
    )
    + r")\b"
)

_BEHAVIOR_NAME_RE = re.compile(r"\s*([A-Za-z_]\w*)\s*:")
_LOOP_HEADS = frozenset(("for", "while", "do"))


def _normalize_line(raw_line: str) -> str:
    """Drop '@' decoration (leading/trailing runs) and '//' end-of-line comments."""
    text = raw_line.strip()
    while text.startswith("@"):
        text = text[1:].lstrip()
    while text.endswith("@"):
        text = text[:-1].rstrip()
    cut = text.find("//")
    if cut != -1:
        text = text[:cut].rstrip()
    return text


def _comment_body(token: Token) -> str:
    """An annotation comment's content, each line normalized, lines kept."""
    if token.kind is TokenKind.COMMENT:
        inner = token.text[3:-2]  # strip '/*@' and '*/'
    else:
        inner = token.text[3:]  # strip '//@'
    return "\n".join(map(_normalize_line, inner.split("\n")))


# (kind, clause text, line, behavior name); the name is set iff the clause is
# a behavior header.
_Clause = tuple[AnnotationKind, str, int, str | None]


def _scan_clauses(body: str, first_line: int) -> list[_Clause]:
    """The clauses of a normalized annotation body whose first line is ``first_line``."""
    matches = list(_STARTER_RE.finditer(body))
    clauses: list[_Clause] = []
    line, counted = first_line, 0
    for i, m in enumerate(matches):
        start, end = m.span(1)
        keyword = m.group(1)
        kind = _STARTER_KINDS.get(keyword) or _STARTER_KINDS[" ".join(keyword.split())]
        stop = matches[i + 1].start(1) if i + 1 < len(matches) else len(body)
        text = body[end:stop].strip().rstrip(";").strip()
        behavior_name = None
        if kind is BEHAVIOR:
            name_match = _BEHAVIOR_NAME_RE.match(body, end)
            if name_match:
                behavior_name = text = name_match.group(1)
            else:
                behavior_name = text or "<anonymous>"
        line += body.count("\n", counted, start)
        counted = start
        clauses.append((kind, text, line, behavior_name))
    return clauses


@dataclass(frozen=True)
class AnnotationBlock:
    """One annotation comment with its parsed clauses and placement facts.

    ``loop_key`` identifies the loop statement the block annotates (the token
    index of the following ``for``/``while``/``do``) so lint can group the
    blocks attached to the same loop; None for non-loop blocks.
    """

    annotations: tuple[Annotation, ...]
    block_style: bool
    token_index: int  # index of the comment token in the full token stream
    loop_key: int | None
    is_function_contract: bool


@dataclass(frozen=True)
class AnalyzedCode:
    """One source text scanned once and its tokens walked once.

    Each consumer reads what it needs from here, so a reply analyzed for the
    census, lint and preservation is tokenized once and walked once:

    - ``blocks`` (the ACSL comments and their clauses): the census, and lint's
      loop and contract rules;
    - ``tokens`` (comments included): lint's parameter lists,
      ``strip_annotations``, and the preservation check's rare re-scan;
    - ``file_scope`` (``walk_tokens``'s file-scope names): lint's
      out-of-scope rule;
    - ``comparable`` (the non-comment tokens' compare texts and lines): the
      preservation check.
    """

    code: str
    tokens: list[Token]
    blocks: list[AnnotationBlock]
    comparable: ComparableStream
    file_scope: frozenset[str]


def parse_blocks(code: str) -> AnalyzedCode:
    """Tokenize ``code`` once, walk its tokens once, and parse its annotation blocks.

    Raises TokenizeError when ``code`` does not scan.
    """
    tokens = tokenize(code)
    comparable, file_scope, acsl = walk_tokens(tokens)
    blocks: list[AnnotationBlock] = []
    for idx, depth in acsl:
        token = tokens[idx]
        clauses = _scan_clauses(_comment_body(token), token.line)
        if not clauses:
            continue

        next_code = idx + 1  # index of the first non-comment token after the block
        while next_code < len(tokens) and tokens[next_code].is_comment:
            next_code += 1
        heads_loop = next_code < len(tokens) and tokens[next_code].text in _LOOP_HEADS
        has_loop_clause = any(c[0].keyword.startswith("loop ") for c in clauses)
        block_style = token.kind is TokenKind.COMMENT

        if heads_loop or has_loop_clause:
            placement, loop_key = LOOP_ANNOTATION, next_code if heads_loop else idx
        elif depth == 0:
            placement, loop_key = FUNCTION_CONTRACT, None
        else:
            placement, loop_key = STATEMENT, None

        # In a contract, clauses after a behavior header belong to its body.
        annotations: list[Annotation] = []
        enclosing = placement
        for kind, text, line, behavior_name in clauses:
            header = behavior_name is not None and placement is FUNCTION_CONTRACT
            annotations.append(
                Annotation(kind, text, block_style, line, placement if header else enclosing)
            )
            if header:
                enclosing = Enclosing("behavior_body", behavior_name)
        blocks.append(
            AnnotationBlock(
                annotations=tuple(annotations),
                block_style=block_style,
                token_index=idx,
                loop_key=loop_key,
                is_function_contract=placement is FUNCTION_CONTRACT,
            )
        )
    return AnalyzedCode(code, tokens, blocks, comparable, file_scope)


def parse_annotations(code: str | AnalyzedCode) -> list[Annotation]:
    """All ACSL clauses in ``code``, in source order."""
    if isinstance(code, str):
        code = parse_blocks(code)
    return [a for b in code.blocks for a in b.annotations]


def count_by_kind(annotations: Iterable[Annotation]) -> dict[AnnotationKind, int]:
    """Histogram of clause kinds; known kinds are always present (zero allowed)."""
    histogram: dict[AnnotationKind, int] = {kind: 0 for kind in KNOWN_KINDS}
    # Counter hashes each clause's kind once; the fold below is once per kind.
    for kind, n in Counter(a.kind for a in annotations).items():
        histogram[kind] = histogram.get(kind, 0) + n
    return histogram


def merge_loop_assigns(
    histogram: dict[AnnotationKind, int]
) -> dict[AnnotationKind, int]:
    """Census view folding ``loop assigns`` into ``assigns``.

    The two kinds are kept distinct everywhere else; this is a report-side
    option for comparing against censuses that bucket them together.
    """
    merged = dict(histogram)
    loop_count = merged.pop(LOOP_ASSIGNS, 0)
    merged[ASSIGNS] = merged.get(ASSIGNS, 0) + loop_count
    return merged


def strip_annotations(code: str | AnalyzedCode) -> str:
    """Remove all ACSL comments, preserving every other token in order.

    Newlines inside removed blocks are kept so remaining tokens stay on their
    original lines; code with no annotations comes back byte-identical.
    """
    if isinstance(code, AnalyzedCode):
        source, tokens = code.code, code.tokens
    else:
        source, tokens = code, tokenize(code)
    spans = [(t.start, t.end, t.text) for t in tokens if t.is_acsl]
    if not spans:
        return source
    out: list[str] = []
    pos = 0
    for start, end, text in spans:
        out.append(source[pos:start])
        newlines = "\n" * text.count("\n")
        out.append(newlines if newlines else " ")
        pos = end
    out.append(source[pos:])
    return "".join(out)
