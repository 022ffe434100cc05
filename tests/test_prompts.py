from __future__ import annotations

import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ADPCM_CSV, TEMPLATES_DIR
from specforge.eva import EvaReport, parse_eva_report
from specforge.model import PromptVariant, SourceProgram
from specforge.pathcrawler import parse_test_csv
from specforge.prompts import (
    STATE_MUTATION_WARNING,
    BuiltPrompt,
    PlaceholderMismatch,
    PromptTemplate,
    TemplateError,
    build_prompt,
    default_template_dir,
    load_templates,
)

PROGRAM = SourceProgram(
    name="adpcm",
    source="int testme(int n) {\n  return n > 0;\n}\n",
    entry_function="testme",
)


def test_load_templates_all_variants(templates):
    assert set(templates) == set(PromptVariant)
    for variant, template in templates.items():
        assert "{program}" in template.body
        assert "START OF INPUT" in template.body
        assert "{valid_assigns}" in template.snippets  # snippets live in template.snippets
        assert "my family will disown me" in template.body
    assert "{csv}" in templates[PromptVariant.PATHCRAWLER].body
    assert "{eva}" in templates[PromptVariant.EVA].body
    assert "{csv}" not in templates[PromptVariant.BASELINE].body
    assert "{eva}" not in templates[PromptVariant.BASELINE].body


def test_default_template_dir_loads():
    assert set(load_templates(default_template_dir())) == set(PromptVariant)


def test_missing_template_file(tmp_path):
    (tmp_path / "baseline.txt").write_text("x {program} START OF INPUT")
    (tmp_path / "pathcrawler.txt").write_text("x {program} {csv} START OF INPUT")
    with pytest.raises(TemplateError, match=r"^no template file for variant eva at "):
        load_templates(tmp_path)


def test_stray_placeholder_rejected(tmp_path):
    (tmp_path / "baseline.txt").write_text("{program} {csv} START OF INPUT")
    (tmp_path / "pathcrawler.txt").write_text("{program} {csv} START OF INPUT")
    (tmp_path / "eva.txt").write_text("{program} {eva} START OF INPUT")
    with pytest.raises(PlaceholderMismatch) as exc:
        load_templates(tmp_path)
    assert str(exc.value) == "baseline template, {csv}: slot not allowed in this template"


def test_missing_required_slot_rejected(tmp_path):
    (tmp_path / "baseline.txt").write_text("{program} START OF INPUT")
    (tmp_path / "pathcrawler.txt").write_text("{program} START OF INPUT")  # no {csv}
    (tmp_path / "eva.txt").write_text("{program} {eva} START OF INPUT")
    with pytest.raises(PlaceholderMismatch) as exc:
        load_templates(tmp_path)
    assert str(exc.value) == "pathcrawler template, {csv}: required slot is missing"


def test_missing_snippet_file_rejected(tmp_path):
    (tmp_path / "baseline.txt").write_text("{program} {valid_assigns} START OF INPUT")
    (tmp_path / "pathcrawler.txt").write_text("{program} {csv} START OF INPUT")
    (tmp_path / "eva.txt").write_text("{program} {eva} START OF INPUT")
    with pytest.raises(PlaceholderMismatch) as exc:
        load_templates(tmp_path)
    assert str(exc.value).startswith("baseline template, {valid_assigns}: snippet file ")


def test_slot_text_in_snippet_files_stays_literal(tmp_path):
    shutil.copytree(TEMPLATES_DIR, tmp_path, dirs_exist_ok=True)
    valid = tmp_path / "snippets" / "valid_assigns.c"
    valid.write_text(valid.read_text() + "/* see {program} and {invalid_assigns} */\n")
    invalid = (tmp_path / "snippets" / "invalid_assigns.c").read_text().rstrip("\n")
    template = load_templates(tmp_path)[PromptVariant.BASELINE]
    prompt = build_prompt(template, PROGRAM)
    assert prompt.text.count(PROGRAM.source) == 1
    assert "/* see {program} and {invalid_assigns} */" in prompt.text
    assert prompt.text.count(invalid) == 1
    assert PromptTemplate.from_dict(template.to_dict()) == template


def test_slot_formed_across_the_snippet_boundary_stays_literal(tmp_path):
    shutil.copytree(TEMPLATES_DIR, tmp_path, dirs_exist_ok=True)
    baseline = tmp_path / "baseline.txt"
    baseline.write_text(baseline.read_text().replace("{valid_assigns}", "{{valid_assigns}"))
    (tmp_path / "snippets" / "valid_assigns.c").write_text("program} stays text\n")
    prompt = build_prompt(load_templates(tmp_path)[PromptVariant.BASELINE], PROGRAM)
    assert prompt.text.count(PROGRAM.source) == 1
    assert "{program} stays text" in prompt.text


def test_build_baseline_contains_program_in_fence(templates):
    prompt = build_prompt(templates[PromptVariant.BASELINE], PROGRAM)
    assert f"```c\n{PROGRAM.source}\n```" in prompt.text
    assert prompt.warnings == ()
    # the few-shot examples survive substitution untouched
    assert "loop assigns must be placed before loop variant" in prompt.text


def test_build_pathcrawler_embeds_rendered_csv(templates):
    suite = parse_test_csv(ADPCM_CSV)
    prompt = build_prompt(templates[PromptVariant.PATHCRAWLER], PROGRAM, suite=suite)
    assert suite.raw in prompt.text
    assert "PathCrawler Output:" in prompt.text


def test_build_eva_embeds_raw_report(templates, labels_tritype_eva_report):
    report = parse_eva_report(labels_tritype_eva_report)
    prompt = build_prompt(templates[PromptVariant.EVA], PROGRAM, report=report)
    assert report.raw in prompt.text
    assert "Eva Report:" in prompt.text


def test_missing_context_raises(templates):
    with pytest.raises(TemplateError, match=r"^no test suite for this program$"):
        build_prompt(templates[PromptVariant.PATHCRAWLER], PROGRAM)
    with pytest.raises(TemplateError, match=r"^no value-analysis report for this program$"):
        build_prompt(templates[PromptVariant.EVA], PROGRAM)


def test_no_unresolved_placeholders(templates, labels_tritype_eva_report):
    suite = parse_test_csv(ADPCM_CSV)
    report = parse_eva_report(labels_tritype_eva_report)
    built = [
        build_prompt(templates[PromptVariant.BASELINE], PROGRAM),
        build_prompt(templates[PromptVariant.PATHCRAWLER], PROGRAM, suite=suite),
        build_prompt(templates[PromptVariant.EVA], PROGRAM, report=report),
    ]
    for prompt in built:
        for name in ("{program}", "{csv}", "{eva}", "{valid_assigns}", "{invalid_assigns}"):
            assert name not in prompt.text


def test_program_smuggling_slots_appears_verbatim(templates, labels_tritype_eva_report):
    smuggler = SourceProgram(
        name="s", source='char *s = "{program}{csv}{eva}{valid_assigns}";\n'
    )
    suite = parse_test_csv(ADPCM_CSV)
    report = parse_eva_report(labels_tritype_eva_report)
    built = [
        build_prompt(templates[PromptVariant.BASELINE], smuggler),
        build_prompt(templates[PromptVariant.PATHCRAWLER], smuggler, suite=suite),
        build_prompt(templates[PromptVariant.EVA], smuggler, report=report),
    ]
    for prompt in built:
        assert prompt.text.count(smuggler.source) == 1
    assert built[2].text.count(report.raw) == 1


def test_unfilled_slot_of_hand_built_template_raises():
    template = PromptTemplate(variant=PromptVariant.BASELINE, body="{program}\n{eva}\n")
    with pytest.raises(TemplateError, match=r"^placeholder \{eva\} is not filled by this variant$"):
        build_prompt(template, PROGRAM)


_slotty_text = st.lists(
    st.sampled_from(["{program}", "{csv}", "{eva}", "{invalid_assigns}", "{", "}"])
    | st.text(max_size=6)
).map("".join)


@settings(max_examples=300, deadline=None)
@given(source=_slotty_text.filter(bool), raw=_slotty_text)
def test_program_and_report_text_appear_verbatim(templates, source, raw):
    program = SourceProgram(name="p", source=source)
    report = EvaReport(
        alarms=(), domains=(), summary_alarm_count=None, warnings_kernel=None, raw=raw
    )
    prompt = build_prompt(templates[PromptVariant.EVA], program, report=report)
    assert source in prompt.text
    assert raw in prompt.text


def test_build_is_deterministic(templates):
    suite = parse_test_csv(ADPCM_CSV)
    a = build_prompt(templates[PromptVariant.PATHCRAWLER], PROGRAM, suite=suite)
    b = build_prompt(templates[PromptVariant.PATHCRAWLER], PROGRAM, suite=suite)
    assert a.text == b.text


def test_state_mutation_warning_attached(templates):
    suite = parse_test_csv("input_a,output,verdict\n1,,unknown\n2,,unknown\n")
    prompt = build_prompt(templates[PromptVariant.PATHCRAWLER], PROGRAM, suite=suite)
    assert prompt.warnings == (STATE_MUTATION_WARNING,)


def test_built_prompt_json_round_trip(templates):
    prompt = build_prompt(templates[PromptVariant.BASELINE], PROGRAM)
    assert BuiltPrompt.from_dict(prompt.to_dict()) == prompt


def test_shipped_templates_match_data_dir(templates):
    reloaded = load_templates(TEMPLATES_DIR)
    for variant in PromptVariant:
        assert reloaded[variant].body == templates[variant].body
