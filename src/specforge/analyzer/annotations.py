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
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable

from ..model import ASSIGNS, BEHAVIOR, KNOWN_KINDS, LOOP_ASSIGNS, AnnotationKind, Record
from .lexer import ComparableStream, scan, tokenize
from .similarity import normalize_clause


class NoCodeFence(ValueError):
    """The response contains no fenced code block at all."""


@dataclass(frozen=True, eq=False, repr=False)
class SplitResponse(Record):
    """An LLM reply split into reasoning prose and the annotated-program fence."""

    reasoning: str
    code: str


# A fence line: a line whose text, leading whitespace stripped, starts with ```.
_FENCE_RE = re.compile(r"^[^\S\n]*```", re.MULTILINE)


def _next_fence(text: str, pos: int) -> re.Match[str] | None:
    """The first fence line at or after ``pos``, matched from its line start.

    ``str.find`` skips to the next line holding a ```; the pattern then checks
    that only whitespace precedes it there. A line that fails once fails for
    every ``` on it, so the search goes on from the next line.
    """
    while (i := text.find("```", pos)) != -1:
        m = _FENCE_RE.match(text, text.rfind("\n", 0, i) + 1)
        if m is not None:
            return m
        pos = text.find("\n", i) + 1 or len(text)  # no next line: nothing left
    return None


def split_response(response_text: str) -> SplitResponse:
    """Select the annotated program fence; everything outside fences is reasoning.

    Preference order: the longest ``c``-tagged fence, then the longest
    untagged fence, then the longest fence of any tag; ties go to the last
    occurrence (models often finish with a consolidated program). Raises
    NoCodeFence when the reply has no fence at all.
    """
    text = response_text
    fences: list[tuple[str, str]] = []  # (tag, content)
    reasoning: list[str] = []  # each run of lines outside fences
    pos = 0  # start of the next line outside a fence; -1 once no line is left
    while pos >= 0:
        opening = _next_fence(text, pos)
        if opening is None:
            reasoning.append(text[pos:])
            break
        if opening.start() > pos:
            reasoning.append(text[pos : opening.start() - 1])
        eol = text.find("\n", opening.end())
        if eol == -1:  # the last line opens a fence with nothing in it
            fences.append((text[opening.end() :].strip().lower(), ""))
            break
        tag = text[opening.end() : eol].strip().lower()
        closing = _next_fence(text, eol + 1)
        if closing is None:  # an unclosed fence runs to the end
            fences.append((tag, text[eol + 1 :]))
            break
        fences.append((tag, text[eol + 1 : closing.start() - 1]))
        pos = text.find("\n", closing.end())
        if pos >= 0:
            pos += 1

    if not fences:
        raise NoCodeFence("response contains no fenced code block")

    candidates = [(idx, f) for idx, f in enumerate(fences) if f[0] == "c"]
    if not candidates:
        candidates = [(idx, f) for idx, f in enumerate(fences) if f[0] == ""]
    if not candidates:
        candidates = list(enumerate(fences))
    _, (_, code) = max(candidates, key=lambda pair: (len(pair[1][1]), pair[0]))
    return SplitResponse(reasoning="\n".join(reasoning).strip(), code=code)


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
_LOOP_KEYWORDS = frozenset(kw for kw in _STARTER_KINDS if kw.startswith("loop "))
_NO_CLAUSES: dict[AnnotationKind, int] = {kind: 0 for kind in KNOWN_KINDS}


# '@' and every character ``str.isspace`` accepts (a test checks the set).
_DECORATION = (
    "@\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)


def _normalize_line(raw_line: str) -> str:
    """Drop '@' decoration (leading/trailing runs) and '//' end-of-line comments."""
    text = raw_line.strip(_DECORATION)
    cut = text.find("//")
    if cut != -1:
        text = text[:cut].rstrip()
    return text


# (kind, clause text, line, behavior name); the name is set iff the clause is
# a behavior header.
_Clause = tuple[AnnotationKind, str, int, str | None]
_ANONYMOUS = "<anonymous>"  # the name of a behavior header without one


def _scan_clauses(body: str, line: int, pos: int) -> tuple[list[_Clause], list[int]]:
    """The clauses of a normalized body from ``pos`` (on ``line``) on, and their matches' starts."""
    matches = list(_STARTER_RE.finditer(body, pos))
    clauses: list[_Clause] = []
    counted = pos
    for i, m in enumerate(matches):
        start, keyword_end = m.span(1)
        keyword = m.group(1)
        kind = _STARTER_KINDS.get(keyword) or _STARTER_KINDS[" ".join(keyword.split())]
        stop = matches[i + 1].start(1) if i + 1 < len(matches) else len(body)
        text = body[keyword_end:stop].strip().rstrip(";").strip()
        behavior_name = None
        if kind is BEHAVIOR:
            name_match = _BEHAVIOR_NAME_RE.match(body, keyword_end)
            if name_match:
                behavior_name = text = name_match.group(1)
            else:
                behavior_name = text or _ANONYMOUS
        line += body.count("\n", counted, start)
        counted = start
        clauses.append((kind, text, line, behavior_name))
    return clauses, [m.start() for m in matches]


@dataclass(frozen=True)
class AnnotationBlock:
    """One annotation comment with its parsed clauses and placement facts.

    ``placement`` is ``FUNCTION_CONTRACT``, ``LOOP_ANNOTATION`` or
    ``STATEMENT``, the enclosing of the block's first clause. ``code_index``
    is the index in the reply's comparable texts of the first code token
    after the comment. ``loop_key`` identifies the loop statement the block
    annotates (the ``code_index`` of the following ``for``, ``while`` or
    ``do``) so lint can group the blocks attached to the same loop; a loop
    block that heads no loop gets a negative key of its own; None for
    non-loop blocks. ``kind_counts`` (clauses per keyword) and
    ``clause_keys`` (each clause's ``normalize_clause``) come with the parse.
    """

    annotations: tuple[Annotation, ...]
    code_index: int
    loop_key: int | None
    placement: Enclosing
    kind_counts: dict[str, int] = field(default_factory=dict, compare=False, repr=False)
    clause_keys: tuple[str, ...] = field(default=(), compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class AnalyzedCode:
    """One source text scanned once, and the facts the scan collected.

    Each consumer reads what it needs from here, so a reply analyzed for the
    census, lint and preservation is scanned once and never tokenized:

    - ``blocks`` (the ACSL comments and their clauses): the census, and lint's
      loop and contract rules;
    - ``comparable`` (the non-comment tokens' compare texts and lines): the
      preservation check, and lint's parameter lists;
    - ``file_scope`` (``scan``'s file-scope names): lint's out-of-scope rule;
    - ``code``: the preservation check's rare strip and re-scan.
    """

    code: str
    blocks: list[AnnotationBlock]
    comparable: ComparableStream
    file_scope: frozenset[str]


# A parse: the normalized body, its matches' starts, the clauses (none when
# the block has none), placement, kind counts and clause keys.
_Parse = tuple[
    str, list[int], tuple[Annotation, ...], Enclosing, dict[str, int], tuple[str, ...]
]
_NOTHING_PARSED: _Parse = ("", [], (), None, {}, ())  # type: ignore[assignment]
_KEYWORD = attrgetter("kind.keyword")


def _annotate(
    clauses: Iterable[_Clause], block_style: bool, placement: Enclosing, enclosing: Enclosing
) -> list[Annotation]:
    """``clauses`` as annotations at ``placement``, the first under ``enclosing``: in a
    contract, a behavior header opens its body for the clauses after it."""
    annotations: list[Annotation] = []
    for kind, clause_text, clause_line, behavior_name in clauses:
        header = behavior_name is not None and placement is FUNCTION_CONTRACT
        annotations.append(
            Annotation(
                kind, clause_text, block_style, clause_line, placement if header else enclosing
            )
        )
        if header:
            enclosing = Enclosing("behavior_body", behavior_name)
    return annotations


def _parse_block(
    text: str,
    line: int,
    heads_loop: bool,
    at_file_scope: bool,
    last: _Parse = _NOTHING_PARSED,
) -> _Parse:
    """Parse the ACSL comment ``text`` starting on ``line`` into a ``_Parse``.

    Clauses that end inside the common prefix of its normalized body and
    ``last``'s, the last parse at this place, come from ``last`` with their
    annotations and keys, but never a behavior clause last; the rest of the
    body is scanned. A block that keeps clauses but whose placement differs
    from ``last``'s is parsed fresh.
    """
    block_style = text.startswith("/*")
    inner = text[3:-2] if block_style else text[3:]  # strip '/*@' and '*/', or '//@'
    body = "\n".join(map(_normalize_line, inner.split("\n")))
    old_body, old_starts, old, old_placement, old_counts, old_keys = last

    # A match starting in the common prefix ends there, and so does its clause,
    # when two more matches start there: no match holds a ';' or ':' past its
    # start. The starts in the prefix are the first ``in_prefix`` old ones.
    in_prefix = bisect_left(
        old_starts, True, key=lambda start: not body.startswith(old_body[: start + 1])
    )
    kept = max(in_prefix - 2, 0)
    while kept and old[kept - 1].kind is BEHAVIOR:  # a header opens a body (``_annotate``)
        kept -= 1
    pos = old_starts[kept] if in_prefix >= 2 else 0  # '\A' matches at 0 only
    scanned, starts = _scan_clauses(body, line + body.count("\n", 0, pos), pos)

    counts = dict(old_counts)
    for keyword in map(_KEYWORD, old[kept:]):
        counts[keyword] -= 1
        if not counts[keyword]:
            del counts[keyword]
    for clause in scanned:
        counts[clause[0].keyword] = counts.get(clause[0].keyword, 0) + 1
    if heads_loop or not _LOOP_KEYWORDS.isdisjoint(counts):
        placement = LOOP_ANNOTATION
    elif at_file_scope:
        placement = FUNCTION_CONTRACT
    else:
        placement = STATEMENT
    if kept and placement is not old_placement:  # the kept clauses' enclosings changed
        return _parse_block(text, line, heads_loop, at_file_scope)

    enclosing = old[kept - 1].enclosing if kept else placement
    new = _annotate(scanned, block_style, placement, enclosing)
    keys = (*old_keys[:kept], *map(normalize_clause, new))
    return body, old_starts[:kept] + starts, (*old[:kept], *new), placement, counts, keys


def _shifted(annotations: tuple[Annotation, ...], by: int) -> tuple[Annotation, ...]:
    """``annotations`` with every line moved by ``by``."""
    return tuple(
        Annotation(a.kind, a.clause_text, a.block_style, a.line + by, a.enclosing)
        for a in annotations
    )


def parse_blocks(code: str, parsed: dict | None = None) -> AnalyzedCode:
    """Scan ``code`` once and parse its annotation blocks.

    ``parsed`` is a dict the caller passes to every reply of one run. Its
    text table (``"texts"``) maps each ACSL comment's text, whether the next
    code token heads a loop and whether it sits at brace depth 0 (with its
    first line, all a parse depends on) to the comment's ``_parse_block``
    result at each line it was seen at. A text already there is not parsed
    again, wherever it sits: at a new line, its first parse gives the body,
    kind counts, clause keys and placement, and only its ``Annotation``s are
    built again, each line moved by the difference. Only a block's
    ``code_index`` and ``loop_key`` come from this ``code``. A text not
    there is parsed against the last parse made at its place (its first
    line, the two facts above and its comment style), which the place table
    (``"places"``) holds in one slot per place: a near repeat, such as a
    mutant's contract, keeps the clauses before the first place where the
    two differ and is scanned from there to its end. Under ``"lines"``
    ``parsed`` also holds what ``scan`` recorded of each line at the depth
    it was reached, so a line that an earlier reply already held at that
    depth is not scanned again; ``run`` starts it as a copy of the corpus
    load's line memo, so a reply's code line that a loaded program holds is
    not scanned either. The dict holds every distinct comment and line it
    has seen, so keep it no longer than one run. Raises TokenizeError when
    ``code`` does not scan.
    """
    if parsed is None:
        parsed = {}
    comparable, file_scope, acsl = scan(code, parsed.setdefault("lines", {}))
    seen = parsed.setdefault("texts", {})
    places = parsed.setdefault("places", {})
    texts = comparable.texts
    blocks: list[AnnotationBlock] = []
    for ordinal, (text, line, depth, code_index) in enumerate(acsl):
        heads_loop = code_index < len(texts) and texts[code_index] in _LOOP_HEADS
        key = (text, heads_loop, depth == 0)
        by_line = seen.get(key)
        if by_line is None:
            by_line = seen[key] = {}
        parse = by_line.get(line)
        if parse is None:
            if by_line:  # parsed at another line: the same facts, moved
                first, parse = next(iter(by_line.items()))
                parse = (*parse[:2], _shifted(parse[2], line - first), *parse[3:])
            else:
                place = (line, heads_loop, depth == 0, text[1])
                last = places.get(place, _NOTHING_PARSED)
                parse = places[place] = _parse_block(text, line, heads_loop, depth == 0, last)
            by_line[line] = parse
        _, _, annotations, placement, kind_counts, clause_keys = parse
        if not annotations:
            continue
        loop_key = None
        if placement is LOOP_ANNOTATION:
            loop_key = code_index if heads_loop else -1 - ordinal
        blocks.append(
            AnnotationBlock(annotations, code_index, loop_key, placement, kind_counts, clause_keys)
        )
    return AnalyzedCode(code, blocks, comparable, file_scope)


def parse_annotations(code: AnalyzedCode) -> list[Annotation]:
    """All ACSL clauses of ``parse_blocks``' result ``code``, in source order."""
    return [a for b in code.blocks for a in b.annotations]


def count_blocks_by_kind(blocks: Iterable[AnnotationBlock]) -> dict[AnnotationKind, int]:
    """Histogram of the blocks' clause kinds, summed from their ``kind_counts``;
    known kinds are always present (zero allowed)."""
    counts: dict[str, int] = {}
    for block in blocks:
        for keyword, n in block.kind_counts.items():
            counts[keyword] = counts.get(keyword, 0) + n
    histogram = _NO_CLAUSES.copy()  # a copy hashes no kind again
    for keyword, n in counts.items():
        histogram[_STARTER_KINDS[keyword]] = n
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


def strip_annotations(source: str) -> str:
    """Remove all ACSL comments from ``source``, preserving every other token in order.

    Newlines inside removed blocks are kept so remaining tokens stay on their
    original lines; code with no annotations comes back byte-identical.
    """
    spans = [(t.start, t.end, t.text) for t in tokenize(source) if t.is_acsl]
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
