"""Golden encodings of every record kind the shipped replay study never produces.

The shipped study is all ``ok``, lint-clean and fully preserved, so its
``report.json`` digest (``test_runner``) covers none of the failure shapes.
The instances below are built by hand; their canonical JSON was recorded
before the hand-written ``to_dict``/``from_dict`` methods were replaced by
the dataclass codec in ``specforge.model`` and is kept in
``data/golden_encodings.json``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import subprocess
import sys

import pytest

from conftest import DATA_DIR, REPO_ROOT
from specforge.analyzer import Annotation
from specforge.analyzer.annotations import Enclosing, SplitResponse
from specforge.analyzer.checks import DiffRun, LintIssue, LintRule, PreservationVerdict
from specforge.eva import AlarmKind, EvaAlarm, EvaReport, ValueDomain
from specforge.gateway import CompletionResponse
from specforge.model import (
    ENSURES,
    REQUIRES,
    AnnotationKind,
    CodecError,
    GenerationConfig,
    Origin,
    PromptVariant,
    Record,
    SourceProgram,
    canonical_json,
)
from specforge.mutation import MutationOperator, MutationRecord
from specforge.pathcrawler import TestCase, TestSuite, TestSuiteSummary
from specforge.prompts import BuiltPrompt, PromptTemplate
from specforge.runner import (
    STATUS_BACKEND_FAILED,
    STATUS_NO_CODE_FENCE,
    STATUS_OK,
    STATUS_PARSE_FAILED,
    ExperimentReport,
    GenerationResult,
    RobustnessRow,
    _Meta,
    histogram_from_dict,
    histogram_to_dict,
    load_report,
)

GOLDEN = json.loads((DATA_DIR / "golden_encodings.json").read_text(encoding="utf-8"))

LEMMA = AnnotationKind.other("lemma")


def _failed(status: str, program: str) -> GenerationResult:
    return GenerationResult(
        program_name=program,
        variant=PromptVariant.EVA,
        sample_index=2,
        status=status,
        status_reason=f"{status} on purpose",
        prompt_warnings=("suite has no outputs",),
    )


def _ok_result() -> GenerationResult:
    annotations = (
        Annotation(REQUIRES, "n >= 0", True, 3, Enclosing("function_contract")),
        Annotation(LEMMA, "\\forall int x; x == x", True, 4, Enclosing("function_contract")),
        Annotation(ENSURES, "\\result == 0", False, 9, Enclosing("behavior_body", "neg")),
    )
    return GenerationResult(
        program_name="tritype",
        variant=PromptVariant.BASELINE,
        sample_index=0,
        status=STATUS_OK,
        response=CompletionResponse(
            text="Reasoning.\n```c\nint f(void);\n```",
            backend_kind="replay",
            backend_detail="tritype/baseline/0",
            latency_ms=0,
            request_digest="ab" * 32,
        ),
        split=SplitResponse(reasoning="Reasoning.", code="int f(void);"),
        annotations=annotations,
        histogram={LEMMA: 1, ENSURES: 1, REQUIRES: 1},
        lint_issues=(LintIssue(LintRule.BLOCK_STYLE_IN_BODY, 9, "use //@ inside bodies"),),
        preservation=PreservationVerdict(
            preserved=False,
            diff=(
                DiffRun(line=5, original="<", modified="<="),
                DiffRun(line=12, original="", modified="x ;"),
            ),
        ),
    )


def golden_instances() -> dict[str, object]:
    failed = [
        _failed(STATUS_NO_CODE_FENCE, "adpcm"),
        _failed(STATUS_PARSE_FAILED, "alias5"),
        _failed(STATUS_BACKEND_FAILED, "tritype_mutated"),
    ]
    ok = _ok_result()
    return {
        "result_no_code_fence": failed[0],
        "result_parse_failed": failed[1],
        "result_backend_failed": failed[2],
        "result_ok_other_kind": ok,
        "lint_issue": LintIssue(LintRule.VARIANT_BEFORE_ASSIGNS, 14, "variant first"),
        "verdict_not_preserved": ok.preservation,
        "annotation_other_kind": ok.annotations[1],
        "histogram_other_kind": histogram_to_dict(ok.histogram),
        "origin_mutant": Origin.mutant("tritype", "relational_flip@12"),
        "origin_original": Origin.original(),
        "program_mutant": SourceProgram(
            name="tritype_mutated",
            source="int f(void) { return 0; }\n",
            entry_function="f",
            origin=Origin.mutant("tritype", "m1"),
        ),
        "suite": TestSuite(
            columns=("input_b", "input_a", "output", "verdict"),
            cases=(
                TestCase(
                    inputs=(("input_b", "2"), ("input_a", "0")), output="", verdict="success"
                ),
            ),
            raw="input_b,input_a,output,verdict\n2,0,,success\n",
        ),
        "suite_summary": TestSuiteSummary(
            case_count=3,
            input_columns=("input_b", "input_a"),
            distinct_verdicts=frozenset({"unknown", "success", "failure"}),
            has_output=True,
            distinct_values_per_input={
                "input_b": frozenset({"2", "-91", "10"}),
                "input_a": frozenset({"0"}),
            },
        ),
        "eva_report_null_counts": EvaReport(
            alarms=(
                EvaAlarm(
                    "eva_temp.c",
                    8,
                    AlarmKind.SIGNED_OVERFLOW,
                    "signed overflow",
                    "x * 2 <= 2147483647",
                ),
                EvaAlarm(
                    "eva_temp.c",
                    11,
                    AlarmKind.OTHER,
                    "pointer comparison",
                    "\\pointer_comparable(p, q)",
                ),
            ),
            domains=(ValueDomain("x", "[-10..10]"),),
            summary_alarm_count=None,
            warnings_kernel=None,
            raw="[eva:alarm] eva_temp.c:8:Warning:\n",
        ),
        "mutation_record": MutationRecord(
            mutation_id="relational_flip@12",
            operator=MutationOperator.RELATIONAL_FLIP,
            line=12,
            original_token="<",
            mutated_token="<=",
            seed=7,
        ),
        "built_prompt": BuiltPrompt(
            variant=PromptVariant.PATHCRAWLER,
            text="Annotate:\nint f(void);\n",
            program_name="adpcm",
            context_digest="cd" * 32,
            warnings=("suite has no outputs",),
        ),
        "prompt_template": PromptTemplate(variant=PromptVariant.EVA, body="{program}\n{eva}\n"),
        "report": ExperimentReport(
            config=GenerationConfig(temperature=0.2, samples_per_program=3),
            corpus_digest="ef" * 32,
            backend_kind="ReplayBackend",
            results=(ok, *failed),
            skips=(("alias5", "pathcrawler", "no test suite for this program"),),
            robustness=(
                RobustnessRow("tritype", "tritype_mutated", PromptVariant.BASELINE, None, 0),
                RobustnessRow("tritype", "tritype_mutated", PromptVariant.EVA, 0.625, 2),
            ),
            notes=("corpus provenance: handcrafted",),
        ),
    }


def _encode(value: object) -> object:
    return value if isinstance(value, dict) else value.to_dict()


def test_golden_encodings_are_unchanged():
    instances = golden_instances()
    assert sorted(instances) == sorted(GOLDEN)
    for name, value in instances.items():
        assert canonical_json(_encode(value)) == canonical_json(GOLDEN[name]), name


def test_golden_encodings_round_trip():
    for name, value in golden_instances().items():
        if isinstance(value, dict):
            assert histogram_to_dict(histogram_from_dict(GOLDEN[name])) == value
        else:
            assert type(value).from_dict(GOLDEN[name]) == value, name


def test_report_without_tolerated_keys_still_loads(tmp_path):
    data = golden_instances()["report"].to_dict()
    del data["notes"]
    for result in data["results"]:
        del result["prompt_warnings"], result["status_reason"]
        del result["response"], result["split"]
        if result["status"] != STATUS_OK:
            del result["histogram"], result["preservation"]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data), encoding="utf-8")

    report = load_report(path)
    assert report.notes == ()
    for result in report.results:
        assert result.prompt_warnings == () and result.status_reason is None
        assert result.response is None and result.split is None
        if result.status != STATUS_OK:
            assert result.histogram is None and result.preservation is None
    assert [r.annotations for r in report.results] == [
        r.annotations for r in golden_instances()["report"].results
    ]



def test_optional_field_without_default_may_be_absent():
    report = EvaReport.from_dict({"alarms": [], "domains": [], "raw": ""})
    assert report.summary_alarm_count is None and report.warnings_kernel is None


ABSENT = object()


def _broken_report(path: tuple, value: object) -> dict:
    data = golden_instances()["report"].to_dict()
    target = data
    for step in path[:-1]:
        target = target[step]
    if value is ABSENT:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return data


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("results",), 5, "results: expected a list, got int"),
        (("corpus_digest",), ABSENT, "missing key 'corpus_digest'"),
        (("skips", 0), ["alias5"], "skips: expected 3 items, got 1"),
        (("results", 0, "variant"), "cot", "results: variant: 'cot' is not a valid"),
        (
            ("results", 0, "response", "latency_ms"),
            "0",
            "results: response: latency_ms: expected int, got str",
        ),
        (("results", 0, "histogram", "requires"), "1", "results: histogram: a histogram"),
        (("results", 0, "histogram"), None, "results: ok results must carry histogram"),
        (("config", "temperature"), 9.0, "config: temperature must be in [0, 2]"),
    ],
)
def test_malformed_report_raises_codec_error_naming_the_field(path, value, message):
    with pytest.raises(CodecError) as info:
        ExperimentReport.from_dict(_broken_report(path, value))
    assert str(info.value).startswith(message)


def test_non_object_report_raises_codec_error():
    with pytest.raises(CodecError, match="expected an object, got list"):
        ExperimentReport.from_dict([])


def test_record_check_raises_codec_error():
    with pytest.raises(CodecError, match="mutant origin requires"):
        Origin.from_dict({"kind": "mutant"})


def test_importing_the_package_builds_no_codec_plan():
    probe = "import specforge.cli, specforge.model as m; print(m._plan.cache_info().currsize)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "0"


# Record semantics: ``Record`` supplies ``__repr__``/``__eq__``/``__hash__``
# in place of the dataclass-generated methods, with the same results.


def _all_records() -> set[type]:
    """Every ``Record`` subclass; this module imports each module that declares one."""
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub)
            todo.append(sub)
    return found


def _record_samples() -> dict[type, Record]:
    """One instance of every record class: the golden instances and what they nest."""
    samples: dict[type, Record] = {}
    todo: list[object] = [
        *golden_instances().values(),
        _Meta(entry_function="f", provenance="handcrafted"),
    ]
    while todo:
        value = todo.pop()
        if isinstance(value, Record):
            samples.setdefault(type(value), value)
            todo.extend(getattr(value, f.name) for f in dataclasses.fields(value))
        elif isinstance(value, dict):
            todo.extend([*value, *value.values()])
        elif isinstance(value, (tuple, frozenset)):
            todo.extend(value)
    return samples


def test_every_record_has_a_sample():
    assert set(_record_samples()) == _all_records()


def _hash_or_error(value: object) -> object:
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("value", _record_samples().values(), ids=lambda v: type(v).__name__)
def test_record_round_trip_is_equal_and_hashes_alike(value):
    back = type(value).from_dict(value.to_dict())
    assert back == value and not back != value
    assert _hash_or_error(back) == _hash_or_error(value)


class _Unequal:
    def __eq__(self, other: object) -> bool:
        return False


@pytest.mark.parametrize("value", _record_samples().values(), ids=lambda v: type(v).__name__)
def test_changing_one_field_makes_records_unequal(value):
    assert copy.copy(value) == value
    for f in dataclasses.fields(value):
        changed = copy.copy(value)
        object.__setattr__(changed, f.name, _Unequal())
        assert changed != value and value != changed, f.name


@pytest.mark.parametrize("value", _record_samples().values(), ids=lambda v: type(v).__name__)
def test_record_eq_against_another_type_is_not_implemented(value):
    assert value.__eq__(value.to_dict()) is NotImplemented
    assert value.__eq__(object()) is NotImplemented
    other = Origin.original() if not isinstance(value, Origin) else REQUIRES
    assert value.__eq__(other) is NotImplemented
    assert value != other


# The dataclass-generated ``repr`` text, as the records printed it before
# they took ``__repr__`` from ``Record``.
@pytest.mark.parametrize(
    "value, text",
    [
        (REQUIRES, "AnnotationKind(keyword='requires', known=True)"),
        (LEMMA, "AnnotationKind(keyword='lemma', known=False)"),
        (Origin.original(), "Origin(kind='original', parent_name=None, mutation_id=None)"),
        (
            Origin.mutant("tritype", "relational_flip@12"),
            "Origin(kind='mutant', parent_name='tritype', mutation_id='relational_flip@12')",
        ),
        (
            SourceProgram("f", "int f(void) { return 0; }\n", "f", Origin.mutant("tritype", "m1")),
            "SourceProgram(name='f', source='int f(void) { return 0; }\\n', entry_function='f', "
            "origin=Origin(kind='mutant', parent_name='tritype', mutation_id='m1'))",
        ),
        (
            SourceProgram("g", "x"),
            "SourceProgram(name='g', source='x', entry_function=None, "
            "origin=Origin(kind='original', parent_name=None, mutation_id=None))",
        ),
        (Enclosing("function_contract"), "Enclosing(context='function_contract', behavior=None)"),
        (Enclosing("behavior_body", "neg"), "Enclosing(context='behavior_body', behavior='neg')"),
        (DiffRun(5, "<", "<="), "DiffRun(line=5, original='<', modified='<=')"),
        (DiffRun(12, "", "x ;"), "DiffRun(line=12, original='', modified='x ;')"),
    ],
)
def test_record_repr_is_the_dataclass_text(value, text):
    assert repr(value) == text
