"""Exact LP engine: toy systems, certificate audits, and the brute-force oracle."""

from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from hvnogo import (
    DimensionMismatch,
    GeneralParams,
    LinearSystem,
    brute_force_feasible,
    constraint_system,
    enumerate_basic_solutions,
    lp_feasible,
    matrix_rank,
    residual,
    verify_certificate,
)
from hvnogo.exactlp import _basic_solutions

F = Fraction


def sympy_rank(rows):
    """Independent rank oracle."""
    return sympy.Matrix([[sympy.Rational(v) for v in row] for row in rows]).rank()


class TestToySystems:
    def test_simplex_on_a_segment(self):
        system = LinearSystem(((F(1), F(1)),), (F(1),))
        report = lp_feasible(system)
        assert report.feasible
        assert all(v >= 0 for v in report.witness)
        assert all(r == 0 for r in residual(system, report.witness))

    def test_contradictory_rows(self):
        system = LinearSystem(((F(1),), (F(1),)), (F(1, 3), F(2, 3)))
        report = lp_feasible(system)
        assert not report.feasible
        assert verify_certificate(system, report.certificate)
        # the hand certificate: y = (-1, 1) gives y.A = 0 and y.b = 1/3 > 0
        assert verify_certificate(system, (F(-1), F(1)))
        assert not verify_certificate(system, (F(1), F(-1)))

    def test_zero_certificate_rejected(self):
        system = LinearSystem(((F(1),), (F(1),)), (F(1, 3), F(2, 3)))
        assert not verify_certificate(system, (F(0), F(0)))

    def test_certificate_dimension_checked(self):
        system = LinearSystem(((F(1),), (F(1),)), (F(1, 3), F(2, 3)))
        with pytest.raises(DimensionMismatch):
            verify_certificate(system, (F(1),))

    def test_residual_dimension_checked(self):
        system = LinearSystem(((F(1), F(2)),), (F(1),))
        with pytest.raises(DimensionMismatch):
            residual(system, (F(1),))

    def test_ragged_matrix_rejected(self):
        with pytest.raises(DimensionMismatch):
            LinearSystem(((F(1), F(2)), (F(1),)), (F(1), F(1)))

    def test_constraint_system_is_feasible(self):
        system = constraint_system(GeneralParams(F(1, 3), F(1, 2), F(1, 4)))
        report = lp_feasible(system)
        assert report.feasible
        assert all(r == 0 for r in residual(system, report.witness))


class TestEnumerator:
    def test_segment_vertices(self):
        system = LinearSystem(((F(1), F(1)),), (F(1),))
        points = enumerate_basic_solutions(system)
        assert set(points) == {(F(1), F(0)), (F(0), F(1))}

    def test_infeasible_system_has_no_points(self):
        system = LinearSystem(((F(1),), (F(1),)), (F(1, 3), F(2, 3)))
        assert enumerate_basic_solutions(system) == ()

    def test_zero_matrix_cases(self):
        consistent = LinearSystem(((F(0), F(0)),), (F(0),))
        assert enumerate_basic_solutions(consistent) == ((F(0), F(0)),)
        inconsistent = LinearSystem(((F(0), F(0)),), (F(1),))
        assert enumerate_basic_solutions(inconsistent) == ()


def random_system(rng: Generator, force_feasible: bool) -> LinearSystem:
    m = int(rng.integers(1, 7))
    n = int(rng.integers(1, 13))
    matrix = tuple(
        tuple(F(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(n)) for _ in range(m)
    )
    if force_feasible:
        witness = [F(int(rng.integers(0, 5)), int(rng.integers(1, 3))) for _ in range(n)]
        rhs = tuple(sum(c * w for c, w in zip(row, witness)) for row in matrix)
    else:
        rhs = tuple(F(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(m))
    return LinearSystem(matrix, rhs)


class TestOracleEquivalence:
    def test_simplex_agrees_with_enumeration(self):
        rng = Generator(Philox(key=99))
        for trial in range(120):
            system = random_system(rng, force_feasible=trial % 2 == 0)
            report = lp_feasible(system)
            assert report.feasible == brute_force_feasible(system), f"disagreement on trial {trial}"
            if report.feasible:
                assert all(v >= 0 for v in report.witness)
                assert all(r == 0 for r in residual(system, report.witness))
            else:
                assert verify_certificate(system, report.certificate)


class TestRank:
    def test_against_sympy_on_random_matrices(self):
        rng = Generator(Philox(key=7))
        for _ in range(60):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 9))
            rows = [[F(int(rng.integers(-3, 4)), int(rng.integers(1, 4))) for _ in range(n)] for _ in range(m)]
            assert matrix_rank(rows) == sympy_rank(rows)

    def test_constraint_matrix_rank_is_six_for_interior_parameters(self):
        rng = Generator(Philox(key=8))
        for _ in range(40):
            params = GeneralParams(
                F(int(rng.integers(1, 12)), 12), F(int(rng.integers(1, 12)), 12), F(int(rng.integers(1, 12)), 12)
            )
            system = constraint_system(params)
            assert sympy_rank(system.matrix) == 6
            assert matrix_rank(system.matrix) == 6

    def test_degenerate_objectivity_row_stays_linear(self):
        # e_p = 0 turns the first objectivity row into p(0,0,p) = 0
        system = constraint_system(GeneralParams(F(1, 3), F(0), F(1, 4)))
        row = system.matrix[4]
        assert row[0] == 1 and all(v == 0 for i, v in enumerate(row) if i != 0)
        assert system.rhs[4] == 0


ENTRIES = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def small_systems(draw):
    """Small rational systems: random, rank-deficient, overdetermined, inconsistent or feasible by construction."""
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=7))
    rows = [draw(st.lists(ENTRIES, min_size=n, max_size=n)) for _ in range(m)]
    shape = draw(st.sampled_from(("random", "dependent-row", "repeated-column", "zero-row", "feasible")))
    if shape == "dependent-row" and m > 1:
        scale = draw(ENTRIES)
        rows[-1] = [a + scale * b for a, b in zip(rows[0], rows[1])]
    elif shape == "repeated-column" and n > 1:
        for row in rows:
            row[-1] = row[0]
    elif shape == "zero-row":
        rows[draw(st.integers(min_value=0, max_value=m - 1))] = [F(0)] * n
    if shape == "feasible":
        point = draw(st.lists(st.fractions(min_value=0, max_value=3, max_denominator=3), min_size=n, max_size=n))
        rhs = [sum((a * v for a, v in zip(row, point)), F(0)) for row in rows]
    else:
        rhs = draw(st.lists(ENTRIES, min_size=m, max_size=m))
    return LinearSystem(tuple(map(tuple, rows)), tuple(rhs))


def solve_columns(matrix, rhs, subset):
    """The unique w with sum_k A[:, subset[k]] w_k = b, or None when the
    columns are dependent or b is out of their span."""
    work = [[row[j] for j in subset] + [b] for row, b in zip(matrix, rhs)]
    k = len(subset)
    for col in range(k):
        pivot = next((i for i in range(col, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        for i, row in enumerate(work):
            if i != col and row[col] != 0:
                factor = row[col] / work[col][col]
                work[i] = [a - factor * p for a, p in zip(row, work[col])]
    if any(row[k] != 0 for row in work[k:]):
        return None
    return [work[i][k] / work[i][i] for i in range(k)]


def reference_basic_solutions(system):
    """One solve per size-rank column subset, in lexicographic order."""
    n = system.num_vars
    rank = sympy_rank(system.matrix)
    if rank == 0:
        return [tuple([F(0)] * n)] if all(b == 0 for b in system.rhs) else []
    points = []
    for subset in combinations(range(n), rank):
        solution = solve_columns(system.matrix, system.rhs, subset)
        if solution is not None and all(v >= 0 for v in solution):
            point = [F(0)] * n
            for j, v in zip(subset, solution):
                point[j] = v
            points.append(tuple(point))
    return points


class TestEnumeratorProperty:
    @given(small_systems())
    @settings(max_examples=150, deadline=None)
    def test_matches_one_solve_per_subset_and_the_simplex(self, system):
        assert list(_basic_solutions(system)) == reference_basic_solutions(system)
        assert brute_force_feasible(system) == lp_feasible(system).feasible

    def test_prefix_without_pivot_prunes_its_extensions(self):
        # Columns 0 and 1 are equal, so no subset holding both is a basis;
        # the bases {0, 2} and {1, 2} give the two vertices.
        system = LinearSystem(((F(1), F(1), F(0)), (F(0), F(0), F(1))), (F(1), F(2)))
        assert list(_basic_solutions(system)) == [(F(1), F(0), F(2)), (F(0), F(1), F(2))]


class TestSparseResidual:
    @given(small_systems(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_equals_the_dense_sum(self, system, data):
        point = data.draw(st.lists(ENTRIES, min_size=system.num_vars, max_size=system.num_vars))
        dense = tuple(
            sum((c * v for c, v in zip(row, point)), F(0)) - b for row, b in zip(system.matrix, system.rhs)
        )
        result = residual(system, point)
        assert result == dense
        assert all(type(r) is Fraction for r in result)

    def test_sparse_rows_hold_the_nonzero_entries(self):
        system = LinearSystem(((F(0), F(-2, 3), F(1)), (F(0), F(0), F(0))), (F(1), F(0)))
        assert system.sparse_rows == (((1, F(-2, 3)), (2, F(1))), ())
        assert residual(system, (F(5), F(3), F(1))) == (F(-2), F(0))
