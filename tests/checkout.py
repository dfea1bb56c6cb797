"""Run Python in a subprocess against this checkout's package.

Every test that starts an interpreter goes through :func:`run_python`, so
each child imports ``hvnogo`` from the checkout's ``src`` and none can hang
the suite.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Seconds a child interpreter may run before the test fails.
TIMEOUT_S = 120


def run_python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """``python *args`` with the checkout's ``src`` first on ``PYTHONPATH``,
    keeping what was there (a directory that hides numpy, say), stopped
    after :data:`TIMEOUT_S`; ``kwargs`` go to :func:`subprocess.run`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, timeout=TIMEOUT_S, **kwargs)
