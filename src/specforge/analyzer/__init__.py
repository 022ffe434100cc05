"""Lexing, annotation extraction, census, lint, preservation, and similarity."""

from .annotations import (
    AnalyzedCode,
    Annotation,
    AnnotationBlock,
    Enclosing,
    FUNCTION_CONTRACT,
    LOOP_ANNOTATION,
    NoCodeFence,
    SplitResponse,
    STATEMENT,
    count_blocks_by_kind,
    merge_loop_assigns,
    parse_annotations,
    parse_blocks,
    split_response,
)
from .checks import (
    DiffRun,
    LintIssue,
    LintRule,
    PreservationVerdict,
    check_code_preserved,
    lint,
)
from .lexer import (
    C_KEYWORDS,
    ComparableStream,
    Token,
    TokenKind,
    TokenizeError,
    scan,
    tokenize,
)
from .similarity import normalize_clause, spec_similarity
