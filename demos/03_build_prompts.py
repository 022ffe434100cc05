"""Build the three prompt variants for one program.

Templates are data files with placeholder slots; substitution is purely
textual, so the program and its symbolic context appear byte-for-byte in the
built prompt.
"""

from pathlib import Path

from specforge.model import PromptVariant
from specforge.prompts import (
    build_prompt,
    default_template_dir,
    load_templates,
    missing_context,
)
from specforge.runner import load_corpus

ROOT = Path(__file__).resolve().parent.parent

templates = load_templates(default_template_dir())
corpus = load_corpus(ROOT / "corpus")
entry = next(e for e in corpus.entries if e.program.name == "adpcm")

for variant in PromptVariant:
    reason = missing_context(variant, entry.suite, entry.report)
    if reason:
        print(f"[{variant}] skipped for {entry.program.name}: {reason}")
        continue
    prompt = build_prompt(
        templates[variant], entry.program, suite=entry.suite, report=entry.report
    )
    print(f"[{variant}] {len(prompt.text)} chars")
    for warning in prompt.warnings:
        print(f"  warning: {warning}")

print("\n--- tail of the test-case-augmented prompt ---")
prompt = build_prompt(templates[PromptVariant.PATHCRAWLER], entry.program, suite=entry.suite)
print(prompt.text[-400:])
