"""Every demo script runs to completion against the checkout's package."""

import pytest

from checkout import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo):
    result = run_python(str(demo), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
