"""What a replay run loads: no HTTP stack, since only the live backend needs one,
and no thread pool or logging, since ``run`` starts its own worker threads.
What the analyzer loads: not the runner, the gateway or ``subprocess``.
What the command line loads: ``subprocess`` only for a context hook,
``mutation`` only for ``mutate``, and no ``importlib.resources`` for the
templates. Which records compile their own ``__repr__``/``__eq__``/``__hash__``."""

from __future__ import annotations

import subprocess
import sys

import pytest

from conftest import CORPUS_DIR, DATA_DIR, FIXTURES_DIR, src_env

HTTP_MODULES = ("requests", "urllib3", "urllib.request", "http.client")
POOL_MODULES = ("concurrent.futures", "logging")

_REPLAY_RUN = """
import contextlib, io, sys
import specforge.cli
assert not [m for m in {modules!r} if m in sys.modules], "loaded by the import"
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = specforge.cli.main([
        "generate", "--corpus", {corpus!r}, "--fixtures", {fixtures!r},
        "--backend", "replay", "--out", {out!r},
    ])
print(code, *sorted(m for m in {modules!r} if m in sys.modules))
"""


def test_replay_generate_loads_no_http_stack(tmp_path):
    script = _REPLAY_RUN.format(
        modules=HTTP_MODULES,
        corpus=str(CORPUS_DIR),
        fixtures=str(FIXTURES_DIR),
        out=str(tmp_path / "out"),
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
    assert (tmp_path / "out" / "report.json").is_file()


def test_replay_generate_loads_no_thread_pool_or_logging(tmp_path):
    script = _REPLAY_RUN.format(
        modules=POOL_MODULES,
        corpus=str(CORPUS_DIR),
        fixtures=str(FIXTURES_DIR),
        out=str(tmp_path / "out"),
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_analyzer_import_loads_no_runner_or_gateway():
    modules = ("specforge.runner", "specforge.gateway", "subprocess")
    script = f"import sys, specforge.analyzer; print(*[m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def _loaded_by(script: str, modules: tuple[str, ...]) -> list[str]:
    """Which of ``modules`` a child interpreter has loaded after ``script``.

    The child runs with ``-S``, so no site ``.pth`` file preloads a module.
    """
    probe = f"{script}\nimport sys\nprint(*[m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_import_and_templates_load_no_hook_or_mutation_modules():
    script = (
        "import specforge.cli\n"
        "from specforge.prompts import default_template_dir, load_templates\n"
        "assert len(load_templates(default_template_dir())) == 3"
    )
    modules = ("subprocess", "tempfile", "importlib.resources", "specforge.mutation")
    assert _loaded_by(script, modules) == []


@pytest.mark.parametrize("command", ["lint", "count"])
def test_lint_and_count_load_no_subprocess_or_mutation(command):
    script = (
        "import contextlib, io, specforge.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    specforge.cli.main([{command!r}, {str(DATA_DIR / 'bsearch_annotated.c')!r}])"
    )
    assert _loaded_by(script, ("subprocess", "specforge.mutation")) == []


def test_only_annotation_kind_defines_its_own_comparison_and_repr():
    # Every other record takes them from ``Record``: generating them again
    # would compile three more methods per class at import.
    import specforge.cli  # noqa: F401  (imports every module that declares a record)
    import specforge.mutation  # noqa: F401
    from specforge.model import AnnotationKind, Record

    records, todo = [], [Record]
    while todo:
        subs = todo.pop().__subclasses__()
        records += subs
        todo += subs
    assert len(records) >= 25
    for cls in records:
        own = sorted({"__repr__", "__eq__", "__hash__"} & set(vars(cls)))
        assert own == (["__eq__", "__hash__"] if cls is AnnotationKind else []), cls.__name__
