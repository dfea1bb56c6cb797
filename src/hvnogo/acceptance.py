"""Self-contained acceptance checks, shared by the test suite and the CLI.

Each criterion function is deterministic (fixed seeds, no timing inside
the detail text) and returns a :class:`CriterionResult`.  Its body returns
``(passed, detail)`` at the first failure; ``_criterion`` times it and
builds the result.  An exception the body raises fails the criterion,
with the exception's class name and message as its detail, so every
criterion reports a line.  ``run_all`` is what ``hvnogo selftest``
prints.  The stated runtime limits live in ``RUNTIME_LIMITS`` and are
enforced by the test suite.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .dist import REAL_TOL, GeneralParams, joint_from_params
from .exactlp import enumerate_basic_solutions, lp_feasible, matrix_rank, residual, verify_certificate
from .family import (
    conditional_given,
    constraint_system,
    instantiate,
    lambda_marginal,
    solve_family,
    special_solution,
)
from .feasibility import (
    Setting,
    SettingsFamily,
    check_triple,
    model_drop_determinism,
    model_drop_independence,
    model_drop_objectivity,
    triple_system,
    validate_witness,
)
from .montecarlo import NKL_THRESHOLD, compare, fringe_sweep, sample_events
from .quantum import joint_state, quantum_joint, quantum_params, wave_statistics

if TYPE_CHECKING:
    from numpy.random import Generator


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    elapsed: float


#: Wall-clock budgets (seconds) for the criteria that state one.
RUNTIME_LIMITS = {1: 1.0, 3: 10.0, 6: 10.0, 8: 10.0}

_GRID_11 = [i * math.pi / 10.0 for i in range(11)]


def _rng(seed: int) -> Generator:
    from numpy.random import Generator, Philox

    return Generator(Philox(key=seed))


#: Largest denominator of the rationals the criteria draw.
_MAX_DEN = 12


def _interior_fraction(rng: Generator) -> Fraction:
    den = int(rng.integers(2, _MAX_DEN + 1))
    num = int(rng.integers(1, den))
    return Fraction(num, den)


def _any_fraction(rng: Generator) -> Fraction:
    """A rational in [0, 1], boundary included."""
    den = int(rng.integers(1, _MAX_DEN + 1))
    num = int(rng.integers(0, den + 1))
    return Fraction(num, den)


def _interior_params(rng: Generator) -> GeneralParams:
    return GeneralParams(_interior_fraction(rng), _interior_fraction(rng), _interior_fraction(rng))


def _random_family(rng: Generator, *, distinct_x: bool, k: int) -> SettingsFamily:
    e_p = _interior_fraction(rng)
    e_w = _interior_fraction(rng)
    while e_w == e_p:
        e_w = _interior_fraction(rng)
    xs = [_interior_fraction(rng) for _ in range(k)]
    if distinct_x:
        while k > 1 and xs[1] == xs[0]:
            xs[1] = _interior_fraction(rng)
    else:
        xs = [xs[0]] * k
    settings = tuple(Setting(f"alpha{i + 1}", x) for i, x in enumerate(xs))
    return SettingsFamily(e_p, e_w, settings)


def _criterion(index: int, name: str):
    """Time a body that returns ``(passed, detail)`` and wrap it in a :class:`CriterionResult`."""

    def wrap(body):
        @functools.wraps(body)
        def run() -> CriterionResult:
            start = time.perf_counter()
            try:
                passed, detail = body()
            except Exception as exc:
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            return CriterionResult(index, name, passed, detail, time.perf_counter() - start)

        return run

    return wrap


@_criterion(1, "Born-rule/closed-form agreement")
def criterion_1():
    """Squared amplitudes equal the closed-form joint on an 11x11 grid."""
    worst = 0.0
    for alpha in _GRID_11:
        for phi in _GRID_11:
            born = joint_state(alpha, phi).probabilities()
            closed = quantum_joint(alpha, phi)
            worst = max(worst, max(abs(p - q) for p, q in zip(born.entries, closed.entries)))
    return worst <= REAL_TOL, f"max entrywise |amplitude^2 - closed form| = {worst!r} over 121 grid points"


@_criterion(2, "parameter reduction through (x, e_p, e_w)")
def criterion_2():
    """The closed-form joint factorizes through (x, e_p, e_w) on the grid."""
    worst = 0.0
    for alpha in _GRID_11:
        for phi in _GRID_11:
            direct = quantum_joint(alpha, phi)
            via_params = joint_from_params(quantum_params(alpha, phi))
            worst = max(worst, max(abs(p - q) for p, q in zip(direct.entries, via_params.entries)))
    return worst <= REAL_TOL, f"max entrywise reduction error = {worst!r} over 121 grid points"


_ST_GRID = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]


@_criterion(3, "two-parameter solution family")
def criterion_3():
    """Rank 6, exact members, and no basic feasible point outside the family."""
    rng = _rng(301)
    for trial in range(200):
        params = _interior_params(rng)
        system = constraint_system(params)
        if matrix_rank(system.matrix) != 6:
            return False, f"trial {trial}: rank != 6 for {params}"
        family = solve_family(params)
        s_max = family.s_range[1]
        t_max = family.t_range[1]
        for u in _ST_GRID:
            for v in _ST_GRID:
                member = instantiate(family, u * s_max, v * t_max)
                if any(r != 0 for r in residual(system, member.entries)):
                    return False, f"trial {trial}: nonzero residual at (s,t) grid point"
        for point in enumerate_basic_solutions(system):
            s, t = point[4], point[1]
            if not (0 <= s <= s_max and 0 <= t <= t_max):
                return False, f"trial {trial}: enumerated vertex outside the (s, t) ranges"
            if instantiate(family, s, t).entries != point:
                return False, f"trial {trial}: enumerated vertex not reproduced by the closed form"
    return True, "200 parameter triples: rank 6, exact members, enumerator confined to the family"


@_criterion(4, "duality collapse identities")
def criterion_4():
    """Any cross-branch mass detaches the a-statistics from the label."""
    rng = _rng(401)
    for trial in range(200):
        params = _interior_params(rng)
        family = solve_family(params)
        s_max = family.s_range[1]
        t_max = family.t_range[1]
        for u in (Fraction(1, 3), Fraction(1)):
            member = instantiate(family, u * s_max, u * t_max)
            if conditional_given(member, 0, "w").as_tuple() != (params.e_p, 1 - params.e_p):
                return False, f"trial {trial}: p(a|b=0,lam=w) differs from (e_p, 1-e_p)"
            if conditional_given(member, 1, "p").as_tuple() != (params.e_w, 1 - params.e_w):
                return False, f"trial {trial}: p(a|b=1,lam=p) differs from (e_w, 1-e_w)"
    return True, "200 parameter triples: every member with cross-branch mass shows apparatus-only statistics, exactly"


@_criterion(5, "special-solution label marginal")
def criterion_5():
    """The special solution's label marginal equals the apparatus marginal."""
    rng = _rng(501)
    for trial in range(200):
        params = GeneralParams(_any_fraction(rng), _any_fraction(rng), _any_fraction(rng))
        marginal = lambda_marginal(special_solution(params))
        if marginal.as_tuple() != (params.x, 1 - params.x):
            return False, f"trial {trial}: label marginal {marginal.as_tuple()} != (x, 1-x) for {params}"
    return True, "200 parameter triples (boundary included): p(lam) = (x, 1-x) exactly"


@_criterion(6, "triple infeasibility theorem")
def criterion_6():
    """Triple infeasibility with verified certificates; constant-x control."""
    rng = _rng(601)
    for trial in range(100):
        family = _random_family(rng, distinct_x=True, k=int(rng.integers(2, 5)))
        report = check_triple(family)
        if report.feasible:
            return False, f"trial {trial}: distinct-x family reported feasible"
        system = triple_system(family)
        if not verify_certificate(system, report.certificate):
            return False, f"trial {trial}: certificate rejected by the verifier"
        # check_triple writes its certificate down in closed form; the simplex is the oracle here
        if lp_feasible(system).feasible:
            return False, f"trial {trial}: the simplex finds a table for the full system"
    for trial in range(100):
        family = _random_family(rng, distinct_x=False, k=int(rng.integers(2, 5)))
        report = check_triple(family)
        if not report.feasible:
            return False, f"constant-x trial {trial}: reported infeasible"
        system = triple_system(family)
        if any(r != 0 for r in residual(system, report.witness.entries)):
            return False, f"constant-x trial {trial}: witness has nonzero residual"
        # check_triple decides constant x in closed form too; the simplex cross-checks it
        if not lp_feasible(system).feasible:
            return False, f"constant-x trial {trial}: the simplex finds no table"
    return True, (
        "100 distinct-x families infeasible with verified certificates; 100 constant-x families feasible with exact witnesses"
    )


@_criterion(7, "pairwise compatibility witnesses")
def criterion_7():
    """Dropping any one assumption admits an exactly validated witness."""
    rng = _rng(701)
    for trial in range(50):
        family = _random_family(rng, distinct_x=True, k=int(rng.integers(2, 4)))
        for build in (model_drop_independence, model_drop_objectivity, model_drop_determinism):
            report = validate_witness(build(family), family)
            if not report.overall_pass:
                failed = [c.name for c in report.checks if c.retained and not c.passed]
                return False, f"trial {trial}: {build.__name__} failed {failed}"
    return True, "50 families: all three pairwise witnesses pass exact validation"


@_criterion(8, "Monte Carlo phenomenology")
def criterion_8():
    """Monte Carlo reproduction of the fringe/flat phenomenology."""
    alpha = math.pi / 4.0
    grid = [2.0 * math.pi * i / 16.0 for i in range(17)]
    worst_wave = 0.0
    worst_flat = 0.0
    for row in fringe_sweep(alpha, grid, 100_000, seed=801):
        if row.f_a0_given_b1 is None or row.f_a0_given_b0 is None:
            return False, f"phi = {row.phi!r}: a conditioning outcome never fired"
        worst_wave = max(worst_wave, abs(row.f_a0_given_b1 - wave_statistics(row.phi).p0))
        worst_flat = max(worst_flat, abs(row.f_a0_given_b0 - 0.5))
    if worst_wave >= 0.02 or worst_flat >= 0.02:
        return False, f"sweep deviations too large: wave {worst_wave!r}, flat {worst_flat!r}"
    exact = quantum_joint(math.pi / 3.0, math.pi / 4.0)
    stat = compare(sample_events(exact, 1_000_000, seed=802), exact)
    if stat.tv >= 0.005:
        return False, f"million-shot TV distance {stat.tv!r} not below 0.005"
    if not stat.passed:
        return False, f"million-shot n*KL {stat.nkl_max!r} above {NKL_THRESHOLD!r}"
    return True, (
        f"17-point sweep: max fringe deviation {worst_wave!r}, max flat deviation {worst_flat!r}; "
        f"million-shot TV {stat.tv!r}, max n*KL {stat.nkl_max!r}"
    )


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]
