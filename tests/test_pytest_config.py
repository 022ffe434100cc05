"""The suite's own pytest configuration, run on a throwaway test file."""

from __future__ import annotations

import subprocess
import sys

from conftest import REPO_ROOT

_FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_five(n):
    assert n < 5
"""


def test_a_failing_property_prints_its_example_under_the_warning_filters(tmp_path):
    test_file = tmp_path / "test_property.py"
    test_file.write_text(_FAILING_PROPERTY, encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(REPO_ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(test_file),
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr  # tests failed, not an internal error
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example: test_below_five(" in proc.stdout
