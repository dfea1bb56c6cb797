"""The pytest settings in pyproject.toml report a failing property instead of aborting the session."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10))
def test_fails_at_three(n):
    assert n != 3


def test_passes():
    pass
"""


def test_failing_property_reports_its_example(tmp_path):
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_failing_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "FAILED test_failing_property.py::test_fails_at_three" in output
    assert "Falsifying example" in output and "n=3" in output
    assert "1 failed, 1 passed" in output
    assert result.returncode == 1
