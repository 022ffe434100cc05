from __future__ import annotations

import hashlib
import json
import shlex
import shutil
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from conftest import (
    ADPCM_CSV, CORPUS_DIR, DATA_DIR, FIXTURES_DIR, REPO_ROOT, TEMPLATES_DIR, src_env
)
from reference_analyzer import count_by_kind
from specforge.analyzer import lint, parse_annotations, parse_blocks
from specforge.cli import main
from specforge.eva import parse_eva_report
from specforge.gateway import BackendError, LiveBackend, ReplayBackend
from specforge.model import GenerationConfig, PromptVariant, SourceProgram, canonical_json
from specforge.mutation import mutate
from specforge.pathcrawler import parse_test_csv, summarize
from specforge.runner import STATUS_OK, histogram_to_dict, load_corpus, run


def test_parse_tests_outputs_json(tmp_path, capsys):
    path = tmp_path / "tests.csv"
    path.write_text(ADPCM_CSV)
    assert main(["parse-tests", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["columns"][-2:] == ["output", "verdict"]
    assert data["summary"]["case_count"] == 3


def test_parse_tests_malformed_exits_one(tmp_path, capsys):
    path = tmp_path / "tests.csv"
    path.write_text("bad,header\n")
    assert main(["parse-tests", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_parse_tests_missing_file_exits_two(capsys):
    assert main(["parse-tests", "/nonexistent/tests.csv"]) == 2


def test_parse_eva_outputs_json(capsys):
    assert main(["parse-eva", str(CORPUS_DIR / "labels_tritype" / "eva.txt")]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["alarms"]) == 6
    assert data["summary_alarm_count"] == 6


def test_mutate_writes_mutant_and_record(tmp_path, capsys):
    source = CORPUS_DIR / "tritype" / "program.c"
    assert main(["mutate", str(source), "--seed", "5", "--out", str(tmp_path)]) == 0
    c_files = list(tmp_path.glob("*.mut*.c"))
    json_files = list(tmp_path.glob("*.mut*.json"))
    assert len(c_files) == 1 and len(json_files) == 1
    record = json.loads(json_files[0].read_text())
    assert record["seed"] == 5
    assert record["original_token"] != record["mutated_token"]


def test_mutate_names_its_files_after_the_mutant(tmp_path, capsys):
    source = CORPUS_DIR / "tritype" / "program.c"
    assert main(["mutate", str(source), "--seed", "7", "--out", str(tmp_path)]) == 0
    mutant, _ = mutate(SourceProgram(name="program", source=source.read_text(encoding="utf-8")), 7)
    assert mutant.name == "program.mut-variable_substitution-l21-s7"
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{mutant.name}.c", f"{mutant.name}.json"]
    assert capsys.readouterr().out == f"wrote {tmp_path / mutant.name}.c\n"


def test_mutate_list_sites(capsys):
    source = CORPUS_DIR / "levenshtein" / "program.c"
    assert main(["mutate", str(source), "--seed", "0", "--list-sites"]) == 0
    sites = json.loads(capsys.readouterr().out)
    assert any(s["operator"] == "index_swap" for s in sites)
    assert any(s["operator"] == "variable_substitution" for s in sites)


def test_mutate_list_sites_needs_no_seed(capsys):
    source = str(CORPUS_DIR / "tritype" / "program.c")
    assert main(["mutate", source, "--seed", "5", "--list-sites"]) == 0
    seeded = capsys.readouterr().out
    assert main(["mutate", source, "--list-sites"]) == 0
    assert capsys.readouterr().out == seeded


def test_mutate_without_seed_exits_two(tmp_path, capsys):
    source = str(CORPUS_DIR / "tritype" / "program.c")
    assert main(["mutate", source, "--out", str(tmp_path / "out")]) == 2
    assert "error: --seed is required" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_mutate_no_sites_exits_one(tmp_path, capsys):
    path = tmp_path / "flat.c"
    path.write_text("int f(void) { return 0; }\n")
    assert main(["mutate", str(path), "--seed", "1", "--out", str(tmp_path)]) == 1


def test_mutate_without_a_site_prints_one_error_line(tmp_path):
    # a fresh interpreter: there only the handler imports ``mutation``
    path = tmp_path / "nosite.c"
    path.write_text("void f(void) { }\n")
    command = ["mutate", str(path), "--seed", "1", "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-m", "specforge.cli", *command],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: no single-token mutation site in 'nosite'\n"
    assert not (tmp_path / "out").exists()


def test_count_histogram(capsys, tmp_path):
    from conftest import DATA_DIR

    assert main(["count", str(DATA_DIR / "bsearch_annotated.c")]) == 0
    histogram = json.loads(capsys.readouterr().out)
    assert histogram["requires"] == 1
    assert histogram["loop invariant"] == 1


def test_count_accepts_full_response_text(tmp_path, capsys):
    response = FIXTURES_DIR / "binary_search" / "baseline" / "0.txt"
    assert main(["count", str(response)]) == 0
    histogram = json.loads(capsys.readouterr().out)
    assert histogram["requires"] == 1


def test_count_csv_flag(capsys):
    from conftest import DATA_DIR

    assert main(["count", str(DATA_DIR / "bsearch_annotated.c"), "--csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "kind,count"
    assert "requires,1" in lines


# ``count --csv`` over every shipped reply, recorded before one writer
# replaced the hand-joined rows.
COUNT_CSV_SHA256 = {
    (): "f67731d109b412da23acd25e34b44a97e618a383147d4cfc18e0b0ed145b844f",
    ("--merge-loop-assigns",): "6043e8028e04baddcc6937f1bba7fd792a15274e548cdebdac840bcc74f2981f",
}


@pytest.mark.parametrize("flags", sorted(COUNT_CSV_SHA256))
def test_count_csv_shipped_replies_digest(capsys, flags):
    digest = hashlib.sha256()
    for reply in sorted(FIXTURES_DIR.glob("*/*/0.txt")):
        assert main(["count", "--csv", *flags, str(reply)]) == 0
        digest.update(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == COUNT_CSV_SHA256[flags]


def test_count_and_lint_print_what_generate_reports_for_each_shipped_reply(
    capsys, corpus_load, templates
):
    # the command parses one file alone; the study parsed the reply among the run's others
    report = run(
        corpus_load, list(PromptVariant), GenerationConfig(), ReplayBackend(FIXTURES_DIR), templates
    )
    cells = {(r.program_name, r.variant.value, r.sample_index): r for r in report.results}
    replies = sorted(FIXTURES_DIR.glob("*/*/*.txt"))
    assert len(replies) == len(cells) == 57
    for reply in replies:
        cell = cells[reply.parent.parent.name, reply.parent.name, int(reply.stem)]
        assert cell.status == STATUS_OK
        assert main(["count", str(reply)]) == 0
        assert capsys.readouterr().out == canonical_json(histogram_to_dict(cell.histogram))
        assert main(["lint", str(reply)]) == (1 if cell.lint_issues else 0)
        assert capsys.readouterr().out == canonical_json([i.to_dict() for i in cell.lint_issues])


def test_lint_clean_exits_zero(capsys):
    from conftest import DATA_DIR

    assert main(["lint", str(DATA_DIR / "bsearch_annotated.c")]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_lint_findings_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.c"
    path.write_text(
        "int f(int n) {\n"
        "  int i = 0;\n"
        "  /*@ loop invariant 0 <= i;\n"
        "    @ loop variant n - i;\n"
        "    @ loop assigns i;\n"
        "  */\n"
        "  while (i < n) { i = i + 1; }\n"
        "  return i;\n"
        "}\n"
    )
    assert main(["lint", str(path)]) == 1
    issues = json.loads(capsys.readouterr().out)
    assert issues[0]["rule"] == "variant_before_assigns"


def test_json_outputs_are_canonical_json_of_their_data(tmp_path, capsys):
    tests_csv = tmp_path / "tests.csv"
    tests_csv.write_text(ADPCM_CSV)
    suite = parse_test_csv(ADPCM_CSV)
    eva_path = CORPUS_DIR / "labels_tritype" / "eva.txt"
    report = parse_eva_report(eva_path.read_text(encoding="utf-8"))
    annotated = tmp_path / "annotated.c"
    code = (DATA_DIR / "bsearch_annotated.c").read_text(encoding="utf-8") + (
        "int g(int n) {\n  int i = 0;\n"
        "  /*@ loop variant n - i;\n    @ loop assigns i; */\n"
        "  while (i < n) { i = i + 1; }\n  return i;\n}\n"
    )
    annotated.write_text(code, encoding="utf-8")
    expected = [
        (
            ["parse-tests", str(tests_csv)],
            {**suite.to_dict(), "summary": summarize(suite).to_dict()},
        ),
        (["parse-eva", str(eva_path)], report.to_dict()),
        (
            ["count", str(annotated)],
            histogram_to_dict(count_by_kind(parse_annotations(parse_blocks(code)))),
        ),
        (["lint", str(annotated)], [i.to_dict() for i in lint(parse_blocks(code))]),
    ]
    assert expected[-1][1]  # the lint finds something
    for argv, data in expected:
        main(argv)
        assert capsys.readouterr().out == canonical_json(data), argv[0]

    source = CORPUS_DIR / "tritype" / "program.c"
    assert main(["mutate", str(source), "--seed", "5", "--out", str(tmp_path)]) == 0
    program = SourceProgram(name="program", source=source.read_text(encoding="utf-8"))
    _, record = mutate(program, 5)
    (written,) = tmp_path.glob("*.mut*.json")
    assert written.read_text(encoding="utf-8") == canonical_json(record.to_dict())


def test_generate_replay_end_to_end(tmp_path, capsys):
    code = main(
        [
            "generate",
            "--corpus",
            str(CORPUS_DIR),
            "--fixtures",
            str(FIXTURES_DIR),
            "--backend",
            "replay",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr()
    assert (tmp_path / "report.json").is_file()
    assert (tmp_path / "histogram.csv").is_file()
    assert "StateMutationWarning" in out.err
    assert "failures: none" in out.out


def test_generate_refuses_a_generated_dir_of_another_corpus_before_any_request(
    tmp_path, capsys, monkeypatch
):
    requests = []
    complete = ReplayBackend.complete

    def counted(self, request):
        requests.append(request)
        return complete(self, request)

    monkeypatch.setattr(ReplayBackend, "complete", counted)
    argv = ["generate", "--corpus", str(CORPUS_DIR), "--fixtures", str(FIXTURES_DIR)]
    assert main([*argv, "--out", str(tmp_path / "fresh")]) == 0
    assert len(requests) == 57  # the shipped study, for scale
    requests.clear()
    foreign = tmp_path / "out" / "generated" / "other_program" / "baseline" / "0.c"
    foreign.parent.mkdir(parents=True)
    foreign.write_text("int x;\n", encoding="utf-8")
    capsys.readouterr()
    hook_log = tmp_path / "hook.log"  # 8 shipped programs have no eva.txt, so the hook would run
    hook = ["--variants", "baseline,eva", "--run-eva", f"echo ran >> {shlex.quote(str(hook_log))}"]
    assert main([*argv, *hook, "--out", str(tmp_path / "out")]) == 2
    assert "holds 1 file(s) that this report would not write" in capsys.readouterr().err
    assert requests == []
    assert not hook_log.exists()  # refused before any context hook runs
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["generated"]


def test_generate_missing_fixture_exits_one(tmp_path, capsys):
    partial = tmp_path / "fixtures"
    shutil.copytree(FIXTURES_DIR, partial)
    (partial / "tritype" / "baseline" / "0.txt").unlink()
    code = main(
        [
            "generate",
            "--corpus",
            str(CORPUS_DIR),
            "--fixtures",
            str(partial),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["failures"] == {"backend_failed": 1}


def test_generate_bad_corpus_exits_two(tmp_path, capsys):
    assert (
        main(
            [
                "generate",
                "--corpus",
                str(tmp_path / "missing"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        == 2
    )


@pytest.mark.parametrize("variants", ["", "baseline,baseline"])
def test_generate_empty_or_repeated_variants_exits_two(tmp_path, capsys, variants):
    argv = ["generate", "--corpus", str(CORPUS_DIR), "--fixtures", str(FIXTURES_DIR)]
    assert main([*argv, "--variants", variants, "--out", str(tmp_path / "out")]) == 2
    assert "prompt variants" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_generate_live_without_base_url_exits_two(tmp_path, capsys):
    code = main(
        [
            "generate",
            "--corpus",
            str(CORPUS_DIR),
            "--backend",
            "live",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 2


def test_generate_live_refuses_schemeless_base_url(tmp_path, capsys, monkeypatch):
    sent = []

    def post(self, url, body, headers):
        sent.append(url)
        raise BackendError(None, "no request may be sent")

    monkeypatch.setattr(LiveBackend, "_post", post)
    monkeypatch.setenv("SPECFORGE_API_KEY", "test-key")
    hook_ran = tmp_path / "hook_ran"
    code = main(
        [
            "generate",
            "--corpus",
            str(CORPUS_DIR),
            "--backend",
            "live",
            "--base-url",
            "localhost:9",
            "--run-eva",
            f"touch {shlex.quote(str(hook_ran))}",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert "error: base URL must be http(s)://" in capsys.readouterr().err
    assert sent == []
    assert not hook_ran.exists()  # refused before any context hook runs
    assert not (tmp_path / "out").exists()


def test_report_reemit_fixed_point(tmp_path):
    first = tmp_path / "first"
    assert (
        main(
            [
                "generate",
                "--corpus",
                str(CORPUS_DIR),
                "--fixtures",
                str(FIXTURES_DIR),
                "--out",
                str(first),
            ]
        )
        == 0
    )
    second = tmp_path / "second"
    assert main(["report", "--in", str(first / "report.json"), "--out", str(second)]) == 0
    for name in ("report.json", "histogram.csv", "robustness.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


_PLUS_ONE = "int f(int x) { return x + 1; }\n"
_CLEAN_REPLY = (
    "```c\n/*@ requires x < 2147483647;\n    ensures \\result == x + 1; */\n" + _PLUS_ONE + "```\n"
)


def _plus_one_corpus(tmp_path: Path) -> Path:
    corpus = tmp_path / "corpus"
    (corpus / "f").mkdir(parents=True)
    (corpus / "f" / "program.c").write_text(_PLUS_ONE, encoding="utf-8")
    return corpus


def _tree(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes() for p in directory.rglob("*") if p.is_file()
    }


def test_report_reemit_fixed_point_over_every_failure_status(tmp_path, capsys):
    corpus = _plus_one_corpus(tmp_path)
    cell = tmp_path / "fixtures" / "f" / "baseline"
    cell.mkdir(parents=True)
    replies = {
        0: "I would rather not write any code.\n",
        1: "```c\n/*@ requires x < 2147483647;\n" + _PLUS_ONE + "```\n",
        # 2 has no fixture
        3: "```c\n/*@ assigns g; */\n" + _PLUS_ONE.replace("x + 1", "x - 1") + "```\n",
        4: _CLEAN_REPLY,
    }
    for sample, text in replies.items():
        (cell / f"{sample}.txt").write_text(text, encoding="utf-8")
    first, second = tmp_path / "first", tmp_path / "second"
    argv = ["generate", "--corpus", str(corpus), "--fixtures", str(tmp_path / "fixtures")]
    assert main([*argv, "--variants", "baseline", "--samples", "5", "--out", str(first)]) == 1
    assert main(["report", "--in", str(first / "report.json"), "--out", str(second)]) == 0

    results = json.loads((first / "report.json").read_text(encoding="utf-8"))["results"]
    assert [r["status"] for r in results] == [
        "no_code_fence", "parse_failed", "backend_failed", "ok", "ok"
    ]
    unpreserved = results[3]
    assert unpreserved["preservation"] == {
        "preserved": False,
        "diff": [{"line": 1, "original": "+", "modified": "-"}],
    }
    assert [issue["rule"] for issue in unpreserved["lint_issues"]] == ["assigns_out_of_scope"]
    assert results[4]["preservation"]["preserved"] and results[4]["lint_issues"] == []
    written = _tree(first)
    assert {"report.json", "histogram.csv", "robustness.csv"} <= set(written)
    assert any(name.startswith("generated/") for name in written)
    assert written == _tree(second)


class _Replies(BaseHTTPRequestHandler):
    """Answers each chat-completion POST with the next of ``contents``."""

    contents: list[str] = []

    def do_POST(self):  # noqa: N802 (http.server API)
        self.rfile.read(int(self.headers["Content-Length"]))
        choice = {"message": {"content": _Replies.contents.pop(0)}}
        payload = json.dumps({"choices": [choice]}).encode("ascii")
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def _generate_live(tmp_path, contents: list[str]) -> tuple[int, dict]:
    """Exit code and report of a live generate whose server answers ``contents`` in turn."""
    corpus = _plus_one_corpus(tmp_path)
    _Replies.contents = list(contents)
    server = HTTPServer(("127.0.0.1", 0), _Replies)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        code = main(
            [
                "generate", "--corpus", str(corpus), "--backend", "live",
                "--base-url", f"http://127.0.0.1:{server.server_port}",
                "--variants", "baseline", "--samples", str(len(contents)),
                "--out", str(tmp_path / "out"),
            ]
        )
    finally:
        server.shutdown()
        server.server_close()
    assert _Replies.contents == []
    return code, json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))


def test_generate_live_reply_with_a_lone_surrogate_fails_only_its_cell(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("SPECFORGE_API_KEY", "test-key")
    # an ASCII-escaping server that cut an emoji after its first half sends \ud83d
    code, report = _generate_live(
        tmp_path, [_CLEAN_REPLY, _CLEAN_REPLY.replace("*/", "\ud83d */", 1)]
    )
    assert code == 1
    assert sorted(r["status"] for r in report["results"]) == ["backend_failed", "ok"]
    (failed,) = [r for r in report["results"] if r["status"] == "backend_failed"]
    assert "malformed completion payload: 'utf-8' codec" in failed["status_reason"]


def test_generate_live_empty_reply_fails_only_its_cell(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPECFORGE_API_KEY", "test-key")
    code, report = _generate_live(tmp_path, [_CLEAN_REPLY, ""])
    assert code == 1
    assert sorted(r["status"] for r in report["results"]) == ["backend_failed", "ok"]
    (failed,) = [r for r in report["results"] if r["status"] == "backend_failed"]
    # either sample may reach the server second
    expected = f"backend returned an empty completion for f/baseline/{failed['sample_index']}"
    assert failed["status_reason"].endswith(expected)


@pytest.mark.parametrize(
    "body, message",
    [
        ("no slot here. START OF INPUT\n", "baseline template, {program}: required slot is missing"),
        (
            "{program}\n",
            "baseline template, {program}: template must end with the START OF INPUT section",
        ),
    ],
    ids=["no-program-slot", "no-input-section"],
)
def test_generate_refuses_a_template_without_its_frame(tmp_path, capsys, body, message):
    templates = tmp_path / "templates"
    shutil.copytree(TEMPLATES_DIR, templates)
    (templates / "baseline.txt").write_text(body, encoding="utf-8")
    argv = ["generate", "--corpus", str(CORPUS_DIR), "--fixtures", str(FIXTURES_DIR)]
    code = main([*argv, "--templates", str(templates), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("max_inflight", ["0", "-3"])
def test_generate_max_inflight_below_one_exits_two(tmp_path, capsys, max_inflight):
    argv = ["generate", "--corpus", str(CORPUS_DIR), "--fixtures", str(FIXTURES_DIR)]
    code = main([*argv, "--max-inflight", max_inflight, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: max in-flight requests must be at least 1, got {max_inflight}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "variants, max_inflight, code, hooks_run",
    [
        ("baseline", "2", 0, []),
        ("baseline,eva", "2", 0, ["eva"]),
        ("pathcrawler", "2", 0, ["tests"]),
        ("eva", "0", 2, []),
        ("", "2", 2, []),
        ("eva,eva", "2", 2, []),
    ],
)
def test_generate_runs_hooks_only_for_requested_variants_after_the_config_check(
    tmp_path, capsys, variants, max_inflight, code, hooks_run
):
    corpus = _plus_one_corpus(tmp_path)
    for variant in ("baseline", "eva"):
        cell = tmp_path / "fixtures" / "f" / variant
        cell.mkdir(parents=True)
        for sample in range(3):
            (cell / f"{sample}.txt").write_text(_CLEAN_REPLY, encoding="utf-8")
    marker = {which: tmp_path / f"{which}_hook_ran" for which in ("tests", "eva")}
    # the eva hook prints a report with one alarm; the tests hook prints nothing
    eva_hook = f"touch {shlex.quote(str(marker['eva']))} && " + "; ".join(
        ["echo '[eva:alarm] f.c:1: Warning:'", "echo '  signed overflow. assert x + 1 <= 2;'"]
    ) + " #"
    argv = [
        "generate", "--corpus", str(corpus), "--fixtures", str(tmp_path / "fixtures"),
        "--run-pathcrawler", f"touch {shlex.quote(str(marker['tests']))}",
        "--run-eva", eva_hook,
        "--variants", variants, "--max-inflight", max_inflight, "--out", str(tmp_path / "out"),
    ]
    assert main(argv) == code
    assert sorted(which for which, path in marker.items() if path.exists()) == hooks_run
    assert (tmp_path / "out").exists() == (code != 2)


def test_report_writes_nothing_outside_out(tmp_path, capsys):
    first = tmp_path / "first"
    argv = ["generate", "--corpus", str(CORPUS_DIR), "--fixtures", str(FIXTURES_DIR)]
    assert main([*argv, "--out", str(first)]) == 0
    data = json.loads((first / "report.json").read_text())
    data["results"][0]["program_name"] = "../../escaped"
    evil = tmp_path / "evil.json"
    evil.write_text(json.dumps(data))
    box = tmp_path / "box"
    box.mkdir()
    capsys.readouterr()
    assert main(["report", "--in", str(evil), "--out", str(box / "out")]) == 2
    assert "error: cannot load report: " in capsys.readouterr().err
    assert not list(box.iterdir())


@pytest.mark.parametrize(
    "shape",
    [
        {"results": 5},
        {"config": {"temperature": 9.0}},
        {"skips": [["only-one-field"]]},
        {"robustness": [{"parent": "a"}]},
    ],
)
def test_report_malformed_report_exits_two(tmp_path, capsys, shape):
    data = {
        "config": {
            "model_id": "m",
            "temperature": 0.7,
            "samples_per_program": 3,
            "max_output_tokens": 4096,
        },
        "corpus_digest": "",
        "backend_kind": "ReplayBackend",
        "results": [],
        "skips": [],
        "robustness": [],
    }
    data.update(shape)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    assert main(["report", "--in", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "error: cannot load report: " in capsys.readouterr().err


def _clean_report(tmp_path: Path) -> dict:
    """The report.json data of one ok cell over ``_plus_one_corpus``."""
    cell = tmp_path / "fixtures" / "f" / "baseline"
    cell.mkdir(parents=True)
    (cell / "0.txt").write_text(_CLEAN_REPLY, encoding="utf-8")
    argv = [
        "generate", "--corpus", str(_plus_one_corpus(tmp_path)),
        "--fixtures", str(tmp_path / "fixtures"), "--variants", "baseline", "--samples", "1",
    ]
    assert main([*argv, "--out", str(tmp_path / "clean")]) == 0
    return json.loads((tmp_path / "clean" / "report.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("response", "text"), "", "completion text must be non-empty"),
        (("response", "latency_ms"), -1, "latency must be >= 0"),
        (("annotations", 0, "kind", "keyword"), "", "annotation kind keyword must be non-empty"),
        (("annotations", 0, "enclosing", "context"), "nowhere", "bad enclosing context 'nowhere'"),
        (
            ("annotations", 0, "enclosing", "behavior"),
            "b",
            "behavior name set iff context is behavior_body",
        ),
        (
            ("preservation", "diff"),
            [{"line": 1, "original": "+", "modified": "-"}],
            "preserved verdict must carry an empty diff",
        ),
    ],
    ids=[
        "empty-text", "negative-latency", "empty-keyword", "bad-context", "stray-behavior",
        "preserved-with-diff",
    ],
)
def test_report_refuses_a_record_its_checks_reject(tmp_path, capsys, path, value, message):
    data = _clean_report(tmp_path)
    *parents, last = path
    record = data["results"][0]
    for step in parents:
        record = record[step]
    record[last] = value
    tampered = tmp_path / "report.json"
    tampered.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--in", str(tampered), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load report: ") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "path",
    [
        ("results", 0, "sample_index"),
        ("config", "temperature"),
        ("results", 0, "histogram", "requires"),
    ],
    ids=["int-field", "float-field", "histogram-count"],
)
def test_report_refuses_a_bool_for_a_number(tmp_path, capsys, path):
    # JSON true is a Python bool, and bool subclasses int
    data = _clean_report(tmp_path)
    *parents, last = path
    record = data
    for step in parents:
        record = record[step]
    record[last] = True
    tampered = tmp_path / "report.json"
    tampered.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--in", str(tampered), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot load report: ")
    assert not (tmp_path / "out").exists()


_NESTED = "[" * 100_000 + "]" * 100_000


def test_report_nested_too_deep_exits_two(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(_NESTED)
    assert main(["report", "--in", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot load report: maximum recursion")
    assert not (tmp_path / "out").exists()


def test_report_top_level_list_exits_two(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("[]")
    assert main(["report", "--in", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "error: cannot load report: " in capsys.readouterr().err


def _error_cases():
    """(argv builder, exit code): each ends in one ``error:`` line, never a traceback."""
    tritype = str(CORPUS_DIR / "tritype" / "program.c")

    def generate(tmp_path, a_file):
        return [
            "generate", "--corpus", str(CORPUS_DIR), "--fixtures", str(FIXTURES_DIR),
            "--out", str(a_file / "x"),
        ]

    def write(tmp_path, name, data):
        (tmp_path / name).write_bytes(data)
        return str(tmp_path / name)

    return [
        pytest.param(generate, 2, id="generate-out-under-a-file"),
        pytest.param(
            lambda tmp_path, a_file: ["mutate", tritype, "--seed", "5", "--out", str(a_file)],
            2,
            id="mutate-out-is-a-file",
        ),
        pytest.param(
            lambda tmp_path, a_file: ["lint", write(tmp_path, "bad.c", b"int \xff;\n")],
            2,
            id="lint-non-utf8",
        ),
        pytest.param(
            lambda tmp_path, a_file: ["count", write(tmp_path, "bad.c", b"int \xff;\n")],
            2,
            id="count-non-utf8",
        ),
        pytest.param(
            lambda tmp_path, a_file: ["parse-tests", write(tmp_path, "t.csv", b"bad,header\n")],
            1,
            id="parse-tests-malformed",
        ),
        pytest.param(
            lambda tmp_path, a_file: [
                "mutate", write(tmp_path, "flat.c", b"int f(void) { return 0; }\n"),
                "--seed", "1", "--out", str(tmp_path),
            ],
            1,
            id="mutate-no-site",
        ),
    ]


@pytest.mark.parametrize("argv, code", _error_cases())
def test_errors_exit_with_one_error_line(tmp_path, capsys, argv, code):
    a_file = tmp_path / "a_file"
    a_file.write_text("not a directory\n")
    assert main(argv(tmp_path, a_file)) == code
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error: ")]
    assert "Traceback" not in err


def test_generate_skips_only_an_empty_program(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS_DIR / "tritype", corpus / "tritype")
    (corpus / "blank").mkdir()
    (corpus / "blank" / "program.c").write_text("")
    code = main(
        [
            "generate", "--corpus", str(corpus), "--fixtures", str(FIXTURES_DIR),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 0
    assert "skipped corpus entry blank: program.c is empty" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert {r["program_name"] for r in report["results"]} == {"tritype"}


def test_generate_and_report_over_load_side_skips(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    for name in ("tritype", "tritype_mutated"):
        shutil.copytree(CORPUS_DIR / name, corpus / name)
    (corpus / "garbled").mkdir()
    (corpus / "garbled" / "program.c").write_text('int f(void) { return "never closed; }\n')
    shutil.copytree(CORPUS_DIR / "tritype", corpus / "badmeta")
    (corpus / "badmeta" / "meta.json").write_text('{"entry_function": "tritype",')
    first, second = tmp_path / "first", tmp_path / "second"
    argv = ["generate", "--corpus", str(corpus), "--fixtures", str(FIXTURES_DIR)]
    assert main([*argv, "--out", str(first)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith(("skipped", "load warning"))] == [
        'skipped corpus entry garbled: program.c does not tokenize: line 1: unterminated " literal',
        "load warning [badmeta]: meta.json: Expecting property name enclosed in double quotes: "
        "line 1 column 30 (char 29)",
    ]
    assert main(["report", "--in", str(first / "report.json"), "--out", str(second)]) == 0

    report = json.loads((first / "report.json").read_text(encoding="utf-8"))
    statuses = {}
    for r in report["results"]:
        key = (r["program_name"], r["variant"], r["status"])
        statuses[key] = statuses.get(key, 0) + 1
    assert statuses == {
        ("badmeta", "baseline", "backend_failed"): 3,  # no fixtures under its name
        ("badmeta", "eva", "backend_failed"): 3,
        ("tritype", "baseline", "ok"): 3,
        ("tritype", "eva", "ok"): 3,
        ("tritype_mutated", "baseline", "ok"): 3,
    }
    assert report["failures"] == {"backend_failed": 6}
    assert {program for program, _, _ in report["skips"]} == {
        "badmeta", "tritype", "tritype_mutated"
    }
    assert "garbled" not in {r["program_name"] for r in report["results"]}
    assert _tree(first) == _tree(second)


def test_generate_warns_on_a_meta_json_nested_too_deep(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS_DIR / "tritype", corpus / "tritype")
    (corpus / "tritype" / "meta.json").write_text(_NESTED)
    argv = ["generate", "--corpus", str(corpus), "--fixtures", str(FIXTURES_DIR)]
    assert main([*argv, "--variants", "baseline", "--out", str(tmp_path / "out")]) == 0
    err = capsys.readouterr().err.splitlines()
    (warning,) = [line for line in err if line.startswith("load warning")]
    assert warning.startswith("load warning [tritype]: meta.json: maximum recursion depth")


def test_generate_over_an_eva_txt_with_a_line_number_too_long_for_int(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS_DIR / "tritype", corpus / "tritype")
    (corpus / "tritype" / "eva.txt").write_text(
        f"[eva:alarm] tritype.c:{'1' * 5000}: Warning:\n  signed overflow. assert a + b;\n"
    )
    argv = ["generate", "--corpus", str(corpus), "--fixtures", str(FIXTURES_DIR)]
    assert main([*argv, "--variants", "baseline", "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [r["status"] for r in report["results"]] == ["ok"] * 3


def test_generate_and_report_over_stale_and_malformed_sidecars(tmp_path, capsys):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURES_DIR, fixtures)
    stale = fixtures / "tritype" / "baseline" / "0.json"
    malformed = fixtures / "alias5" / "eva" / "2.json"
    digest = json.loads(stale.read_text())["request_digest"]
    stale.write_text(json.dumps({"request_digest": "0" + digest}))
    malformed.write_text('{"request_digest": ')
    shipped, first, second = tmp_path / "shipped", tmp_path / "first", tmp_path / "second"
    argv = ["generate", "--corpus", str(CORPUS_DIR)]
    assert main([*argv, "--fixtures", str(FIXTURES_DIR), "--out", str(shipped)]) == 0
    assert main([*argv, "--fixtures", str(fixtures), "--out", str(first)]) == 1
    assert main(["report", "--in", str(first / "report.json"), "--out", str(second)]) == 0
    assert _tree(first) == _tree(second)

    def cells(directory):
        report = json.loads((directory / "report.json").read_text(encoding="utf-8"))
        results = report["results"]
        return report["failures"], {
            f"{r['program_name']}/{r['variant']}/{r['sample_index']}": r for r in results
        }

    (_, want), (failures, got) = cells(shipped), cells(first)
    assert failures == {"backend_failed": 2}
    failed = {key: got.pop(key) for key in ("tritype/baseline/0", "alias5/eva/2")}
    assert [r["status"] for r in failed.values()] == ["backend_failed"] * 2
    assert failed["tritype/baseline/0"]["status_reason"] == (
        f"stale fixture for tritype/baseline/0: sidecar 0{digest}, request {digest}"
    )
    assert failed["alias5/eva/2"]["status_reason"].startswith(
        "cannot read fixture alias5/eva/2: JSONDecodeError: "
    )
    assert got == {key: r for key, r in want.items() if key not in failed}


_HOOKED_REPLY = (
    "reasoning\n\n```c\n/*@ requires x <= 1073741823; */\nint f(int x) { return x * 2; }\n```\n"
)


def _run_eva_hook(tmp_path, names, hook_body):
    """generate --run-eva over one-function programs named ``names``; the report."""
    corpus = tmp_path / "corpus"
    fixtures = tmp_path / "fixtures"
    for name in names:
        (corpus / name).mkdir(parents=True)
        (corpus / name / "program.c").write_text("int f(int x) { return x * 2; }\n")
        cell = fixtures / name / "eva"
        cell.mkdir(parents=True)
        for index in range(3):
            (cell / f"{index}.txt").write_text(_HOOKED_REPLY)
    hook = tmp_path / "fake_eva.sh"
    hook.write_text("#!/bin/sh\n" + hook_body)
    hook.chmod(0o755)
    code = main(
        [
            "generate",
            "--corpus",
            str(corpus),
            "--fixtures",
            str(fixtures),
            "--variants",
            "eva",
            "--run-eva",
            str(hook),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 0
    return json.loads((tmp_path / "out" / "report.json").read_text())


_EVA_ALARM = (
    "echo '[eva:alarm] prog.c:1: Warning:'\n"
    "echo '  signed overflow. assert x * 2 <= 2147483647;'\n"
)


def test_run_eva_hook_captures_stdout(tmp_path):
    report = _run_eva_hook(tmp_path, ["hooked"], _EVA_ALARM)
    assert len(report["results"]) == 3
    assert report["results"][0]["status"] == "ok"


def test_run_eva_hook_report_carries_the_corpus_digest(tmp_path):
    report = _run_eva_hook(tmp_path, ["hooked"], _EVA_ALARM)
    assert report["corpus_digest"] == load_corpus(tmp_path / "corpus").digest


def test_run_eva_hook_gets_spaced_path_as_one_argument(tmp_path):
    hook_body = '[ "$#" -eq 1 ] && [ -f "$1" ] || exit 3\n' + _EVA_ALARM
    report = _run_eva_hook(tmp_path, ["two words"], hook_body)
    assert [r["status"] for r in report["results"]] == ["ok"] * 3


def test_run_eva_hook_runs_for_an_entry_name_near_the_file_name_limit(tmp_path):
    long_name = "n" * 250  # with a temporary file's random part, past 255 bytes
    hook_body = '[ -f "$1" ] || exit 3\n' + _EVA_ALARM
    report = _run_eva_hook(tmp_path, [long_name, "short"], hook_body)
    assert sorted((r["program_name"], r["status"]) for r in report["results"]) == [
        (long_name, "ok")
    ] * 3 + [("short", "ok")] * 3


def test_run_eva_hook_copies_utf8_source_under_an_ascii_locale(tmp_path):
    source = "/* café */\nint f(int x) { return x * 2; }\n".encode("utf-8")
    (tmp_path / "corpus" / "accent").mkdir(parents=True)
    (tmp_path / "corpus" / "accent" / "program.c").write_bytes(source)
    cell = tmp_path / "fixtures" / "accent" / "eva"
    cell.mkdir(parents=True)
    for index in range(3):
        (cell / f"{index}.txt").write_text(_HOOKED_REPLY, encoding="utf-8")
    seen = tmp_path / "seen.c"
    hook = tmp_path / "fake_eva.sh"
    hook.write_text(f'#!/bin/sh\ncp "$1" {shlex.quote(str(seen))}\n' + _EVA_ALARM)
    hook.chmod(0o755)
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = src_env() | {
        "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "TMPDIR": str(tmpdir)
    }
    proc = subprocess.run(
        [
            sys.executable, "-m", "specforge.cli", "generate",
            "--corpus", str(tmp_path / "corpus"),
            "--fixtures", str(tmp_path / "fixtures"),
            "--variants", "eva",
            "--run-eva", str(hook),
            "--out", str(tmp_path / "out"),
        ],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert [r["status"] for r in report["results"]] == ["ok"] * 3
    assert seen.read_bytes() == source
    assert not list(tmpdir.glob("accent-*.c"))


def _hook_failure(tmp_path, capsys, stderr_lines):
    """The load warning of a hook that writes ``stderr_lines`` to stderr and exits 3."""
    hook_body = "".join(f"echo '{line}' >&2\n" for line in stderr_lines) + "exit 3\n"
    report = _run_eva_hook(tmp_path, ["broken"], hook_body)
    assert report["results"] == []
    (warning,) = [
        line for line in capsys.readouterr().err.splitlines() if "[broken]" in line
    ]
    return warning


def test_run_eva_hook_failure_keeps_last_stderr_lines(tmp_path, capsys):
    warning = _hook_failure(tmp_path, capsys, ["starting", "a", "", "b", "fatal: no entry"])
    assert warning == "load warning [broken]: eva hook failed (exit 3): a | b | fatal: no entry"


def test_run_eva_hook_failure_stderr_is_bounded(tmp_path, capsys):
    warning = _hook_failure(tmp_path, capsys, ["x" * 300, "y" * 300])
    kept = "x" * 197 + " | " + "y" * 300  # the last 500 characters
    assert warning == "load warning [broken]: eva hook failed (exit 3): " + kept


def _process_gone(pid: int, within_s: float = 5.0) -> bool:
    """True once ``pid`` no longer runs (absent or a zombie)."""
    stat = Path(f"/proc/{pid}/stat")
    deadline = time.monotonic() + within_s
    while time.monotonic() < deadline:
        try:
            if stat.read_text().rsplit(")", 1)[1].split()[0] == "Z":
                return True
        except FileNotFoundError:
            return True
        time.sleep(0.05)
    return False


def test_run_eva_hook_timeout_is_a_load_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("specforge.runner.HOOK_TIMEOUT_S", 0.5)
    child_pid = tmp_path / "child.pid"
    hook_body = (
        f'case "$1" in *slow*) sleep 30 & echo $! > {child_pid}; wait;; esac\n'
        + _EVA_ALARM
    )
    report = _run_eva_hook(tmp_path, ["fast", "slow"], hook_body)
    assert {r["program_name"] for r in report["results"]} == {"fast"}
    assert report["skips"] == [
        ["slow", "eva", "no value-analysis report for this program"]
    ]
    assert "load warning [slow]: eva hook timed out after 0.5 s" in capsys.readouterr().err
    assert _process_gone(int(child_pid.read_text()))  # the hook's children die with it


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "specforge.cli", "--help"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=src_env(),
    )
    assert proc.returncode == 0
    assert "generate" in proc.stdout
