"""Smoke test: every shipped demo runs to completion against the shipped data.

Each demo is copied into a scratch ``demos/`` directory next to links to
the repository's ``corpus`` and ``fixtures``, so the paths the demos derive
from their own location resolve and ``demo_out`` never lands in the tree.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

from conftest import CORPUS_DIR, FIXTURES_DIR, REPO_ROOT, src_env

DEMOS = sorted((REPO_ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    (tmp_path / "demos").mkdir()
    script = tmp_path / "demos" / demo.name
    shutil.copy(demo, script)
    (tmp_path / "corpus").symlink_to(CORPUS_DIR, target_is_directory=True)
    (tmp_path / "fixtures").symlink_to(FIXTURES_DIR, target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
