from __future__ import annotations

import hashlib
import json
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import ADPCM_CSV, CORPUS_DIR, DATA_DIR, FIXTURES_DIR, REPO_ROOT, src_env
from specforge.analyzer import count_by_kind, lint, parse_annotations
from specforge.cli import main
from specforge.eva import parse_eva_report
from specforge.gateway import BackendError, LiveBackend
from specforge.model import SourceProgram, canonical_json
from specforge.mutation import mutate
from specforge.pathcrawler import parse_test_csv, summarize
from specforge.runner import histogram_to_dict, load_corpus


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
        (["count", str(annotated)], histogram_to_dict(count_by_kind(parse_annotations(code)))),
        (["lint", str(annotated)], [i.to_dict() for i in lint(code)]),
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
