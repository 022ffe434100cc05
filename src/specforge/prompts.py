"""Load prompt templates and instantiate them with program and analysis context.

Templates are plain-text data files, one per variant, with placeholder slots
``{program}``, ``{csv}``, ``{eva}`` plus two few-shot snippet slots
``{valid_assigns}``/``{invalid_assigns}`` whose text is read from companion
files at load time. Every slot, snippets included, is filled at build time in
one textual pass (no format-string machinery — C code is full of braces) that
never rescans inserted text, so a built prompt contains the program, its
context and the snippets byte-for-byte, even when they hold slot-like text.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path

from .eva import EvaReport
from .model import PromptVariant, Record, SourceProgram
from .pathcrawler import TestSuite


class TemplateError(ValueError):
    """Base class for template loading/instantiation failures."""


class PlaceholderMismatch(TemplateError):
    def __init__(self, variant: PromptVariant, placeholder: str, detail: str):
        super().__init__(f"{variant} template, {placeholder}: {detail}")


STATE_MUTATION_WARNING = (
    "StateMutationWarning: every test case in the suite has an empty output; "
    "the function under test appears to mutate state, and test-case context "
    "without outputs tends to hurt generation quality"
)

_SNIPPET_SLOTS = ("{valid_assigns}", "{invalid_assigns}")
_CONTEXT_SLOT = {
    PromptVariant.BASELINE: None,
    PromptVariant.PATHCRAWLER: "{csv}",
    PromptVariant.EVA: "{eva}",
}
_PLACEHOLDER_RE = re.compile(r"\{[a-z_]+\}")


@dataclass(frozen=True, eq=False, repr=False)
class PromptTemplate(Record):
    """A loaded template: its validated raw body, every slot still open.

    ``snippets`` maps each snippet slot in ``body`` to its text;
    ``build_prompt`` fills them in the same pass as the other slots.
    """

    variant: PromptVariant
    body: str
    snippets: dict[str, str] | None = field(default=None, metadata={"omit_if_none": True})


@dataclass(frozen=True, eq=False, repr=False)
class BuiltPrompt(Record):
    """A fully substituted prompt ready for the gateway."""

    variant: PromptVariant
    text: str
    program_name: str
    context_digest: str  # sha256 of the substituted context; "" for baseline
    warnings: tuple[str, ...] = ()


def default_template_dir() -> Path:
    """The template directory shipped inside the package, beside this module."""
    return Path(__file__).parent / "templates"


def _validate(variant: PromptVariant, body: str) -> None:
    if "{program}" not in body:
        raise PlaceholderMismatch(variant, "{program}", "required slot is missing")
    if "START OF INPUT" not in body:
        raise PlaceholderMismatch(
            variant, "{program}", "template must end with the START OF INPUT section"
        )
    allowed = {"{program}", *_SNIPPET_SLOTS}
    context = _CONTEXT_SLOT[variant]
    if context:
        if context not in body:
            raise PlaceholderMismatch(variant, context, "required slot is missing")
        allowed.add(context)
    for found in set(_PLACEHOLDER_RE.findall(body)):
        if found not in allowed:
            raise PlaceholderMismatch(variant, found, "slot not allowed in this template")


def load_templates(directory: Path | str) -> dict[PromptVariant, PromptTemplate]:
    """Read and validate one template per variant from ``directory``.

    Snippet texts are read from ``snippets/valid_assigns.c`` and
    ``snippets/invalid_assigns.c`` next to the templates, for the slots the
    template holds. Raises TemplateError for a missing template file, and
    PlaceholderMismatch for a slot or snippet file that does not fit.
    """
    directory = Path(directory)
    templates: dict[PromptVariant, PromptTemplate] = {}
    for variant in PromptVariant:
        path = directory / f"{variant.value}.txt"
        if not path.is_file():
            raise TemplateError(f"no template file for variant {variant} at {path}")
        raw = path.read_text(encoding="utf-8")
        _validate(variant, raw)
        snippets: dict[str, str] = {}
        for slot in _SNIPPET_SLOTS:
            if slot not in raw:
                continue
            snippet_path = directory / "snippets" / f"{slot[1:-1]}.c"
            if not snippet_path.is_file():
                raise PlaceholderMismatch(
                    variant, slot, f"snippet file {snippet_path} is missing"
                )
            snippets[slot] = snippet_path.read_text(encoding="utf-8").rstrip("\n")
        templates[variant] = PromptTemplate(
            variant=variant, body=raw, snippets=snippets or None
        )
    return templates


def missing_context(
    variant: PromptVariant, suite: TestSuite | None, report: EvaReport | None
) -> str | None:
    """Why a ``variant`` prompt cannot be built from this context; None when it can."""
    if variant is PromptVariant.PATHCRAWLER and suite is None:
        return "no test suite for this program"
    if variant is PromptVariant.EVA and report is None:
        return "no value-analysis report for this program"
    return None


def build_prompt(
    template: PromptTemplate,
    program: SourceProgram,
    suite: TestSuite | None = None,
    report: EvaReport | None = None,
) -> BuiltPrompt:
    """Substitute the program, its context and the snippets into the template's slots.

    Raises TemplateError, with the reason ``missing_context`` gives, when the
    variant's context is absent, and for a slot the variant does not fill,
    which only a hand-built template can hold. A suite whose cases all have
    empty outputs attaches a state-mutation warning.
    """
    reason = missing_context(template.variant, suite, report)
    if reason:
        raise TemplateError(reason)
    warnings: tuple[str, ...] = ()
    if template.variant is PromptVariant.PATHCRAWLER:
        context = suite.raw
        if not suite.has_output:
            warnings = (STATE_MUTATION_WARNING,)
    elif template.variant is PromptVariant.EVA:
        context = report.raw
    else:
        context = ""

    values = dict(template.snippets or {})
    values["{program}"] = program.source
    slot = _CONTEXT_SLOT[template.variant]
    if slot:
        values[slot] = context

    def fill(match: re.Match[str]) -> str:
        if match.group() not in values:
            raise TemplateError(f"placeholder {match.group()} is not filled by this variant")
        return values[match.group()]

    text = _PLACEHOLDER_RE.sub(fill, template.body)  # inserted text is not rescanned

    digest = hashlib.sha256(context.encode("utf-8")).hexdigest() if context else ""
    return BuiltPrompt(
        variant=template.variant,
        text=text,
        program_name=program.name,
        context_digest=digest,
        warnings=warnings,
    )
