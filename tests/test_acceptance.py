"""Acceptance gate: every criterion at its stated tolerance, one line each.

Criteria 1-8 run in-process through :mod:`hvnogo.acceptance` (the same code
``hvnogo selftest`` executes); criterion 9 drives the CLI itself.
"""

from pathlib import Path

import pytest

from checkout import run_python
from hvnogo import acceptance

SELFTEST_GOLDEN = Path(__file__).parent / "golden" / "selftest.out"


def _run(criterion):
    result = criterion()
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.index} [{status}] {result.name}: {result.detail}")
    return result


def _assert_ok(result):
    assert result.passed, result.detail
    limit = acceptance.RUNTIME_LIMITS.get(result.index)
    if limit is not None:
        assert result.elapsed < limit, f"criterion {result.index} took {result.elapsed:.2f}s, limit {limit}s"


def test_criterion_1_born_rule_agreement():
    _assert_ok(_run(acceptance.criterion_1))


def test_criterion_2_parameter_reduction():
    _assert_ok(_run(acceptance.criterion_2))


def test_criterion_3_two_parameter_family():
    _assert_ok(_run(acceptance.criterion_3))


def test_criterion_4_duality_collapse():
    _assert_ok(_run(acceptance.criterion_4))


def test_criterion_5_special_solution_identity():
    _assert_ok(_run(acceptance.criterion_5))


def test_criterion_6_triple_infeasibility():
    _assert_ok(_run(acceptance.criterion_6))


def test_criterion_7_pairwise_compatibility():
    _assert_ok(_run(acceptance.criterion_7))


def test_criterion_8_monte_carlo_phenomenology():
    _assert_ok(_run(acceptance.criterion_8))


@pytest.mark.slow
def test_criterion_9_selftest_is_deterministic_and_green():
    first = run_python("-m", "hvnogo.cli", "selftest", capture_output=True, text=False)
    second = run_python("-m", "hvnogo.cli", "selftest", capture_output=True, text=False)
    assert first.returncode == 0, first.stdout.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout, "selftest output must be byte-identical between runs"
    assert first.stdout == SELFTEST_GOLDEN.read_bytes(), "selftest output differs from tests/golden/selftest.out"
    text = first.stdout.decode()
    print("criterion 9 [PASS] CLI selftest: exit 0 and byte-identical reruns")
    for i in range(1, 9):
        assert f"criterion {i} [PASS]" in text
