"""The repository tracks sources only: no build artifact is committed."""

import shutil
import subprocess
from pathlib import PurePosixPath

import pytest
from checkout import ROOT


def _is_artifact(path: str) -> bool:
    """Whether a tracked path is a build artifact: a ``.pyc`` file, or a
    file under a ``__pycache__``, ``build`` or ``*.egg-info`` directory."""
    parts = PurePosixPath(path).parts
    directories = parts[:-1]
    return (
        path.endswith(".pyc")
        or any(part in ("__pycache__", "build") or part.endswith(".egg-info") for part in directories)
    )


@pytest.mark.parametrize("path,artifact", [
    ("src/hvnogo/__pycache__/dist.cpython-311.pyc", True),
    ("tests/__pycache__/conftest.cpython-310-pytest-8.2.0.pyc", True),
    ("stray.pyc", True),
    ("build/lib/hvnogo/dist.py", True),
    ("src/hvnogo.egg-info/PKG-INFO", True),
    ("src/hvnogo/dist.py", False),
    ("tests/golden/selftest.out", False),
    ("docs/build.md", False),
    ("perfbench/run.py", False),
])
def test_an_artifact_is_told_by_its_path(path, artifact):
    assert _is_artifact(path) is artifact


def test_no_build_artifact_is_tracked():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    listing = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, capture_output=True, timeout=60)
    if listing.returncode != 0:
        pytest.skip("the tree is not a git checkout")
    tracked = listing.stdout.decode("utf-8", "surrogateescape").split("\0")
    assert [path for path in tracked if path and _is_artifact(path)] == []
