"""Exact LP engine: toy systems, certificate audits, and the brute-force oracle."""

import ast
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from pathlib import Path
from unittest.mock import patch

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from hvnogo import (
    DimensionMismatch,
    GeneralParams,
    LinearSystem,
    constraint_system,
    enumerate_basic_solutions,
    lp_feasible,
    matrix_rank,
    residual,
    verify_certificate,
)
from hvnogo import exactlp
from hvnogo.exactlp import _basic_solutions, _echelon, _eliminate, _integer_row
from hvnogo.family import _memoized_system
from records import replaced

F = Fraction


def named_system(matrix, rhs) -> LinearSystem:
    """A system whose rows are named ``row 0``, ``row 1``, ... after its right-hand sides."""
    return LinearSystem(matrix, rhs, tuple(f"row {i}" for i in range(len(rhs))))


def sympy_rank(rows):
    """Independent rank oracle."""
    return sympy.Matrix([[sympy.Rational(v) for v in row] for row in rows]).rank()


#: Zero, small rationals, and rationals with denominators up to 10**6 (as in the benchmark's large draws).
ENTRIES = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=10**6),
)


@st.composite
def small_systems(draw, m=None, n=None):
    """Small rational systems: random, rank-deficient, overdetermined, inconsistent or feasible by construction.

    ``m`` rows and ``n`` columns are drawn unless given."""
    m = m or draw(st.integers(min_value=1, max_value=6))
    n = n or draw(st.integers(min_value=1, max_value=7))
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
    return named_system(tuple(map(tuple, rows)), tuple(rhs))


class TestToySystems:
    def test_simplex_on_a_segment(self):
        system = named_system(((F(1), F(1)),), (F(1),))
        report = lp_feasible(system)
        assert report.feasible
        assert all(v >= 0 for v in report.witness)
        assert all(r == 0 for r in residual(system, report.witness))

    def test_contradictory_rows(self):
        system = named_system(((F(1),), (F(1),)), (F(1, 3), F(2, 3)))
        report = lp_feasible(system)
        assert not report.feasible
        assert verify_certificate(system, report.certificate)
        # the hand certificate: y = (-1, 1) gives y.A = 0 and y.b = 1/3 > 0
        assert verify_certificate(system, (F(-1), F(1)))
        assert not verify_certificate(system, (F(1), F(-1)))

    def test_zero_certificate_rejected(self):
        system = named_system(((F(1),), (F(1),)), (F(1, 3), F(2, 3)))
        assert not verify_certificate(system, (F(0), F(0)))

    def test_certificate_dimension_checked(self):
        system = named_system(((F(1),), (F(1),)), (F(1, 3), F(2, 3)))
        with pytest.raises(DimensionMismatch):
            verify_certificate(system, (F(1),))

    def test_residual_dimension_checked(self):
        system = named_system(((F(1), F(2)),), (F(1),))
        with pytest.raises(DimensionMismatch):
            residual(system, (F(1),))

    def test_ragged_matrix_rejected(self):
        with pytest.raises(DimensionMismatch):
            named_system(((F(1), F(2)), (F(1),)), (F(1), F(1)))

    def test_a_row_given_many_times_is_checked_once_and_kept_once(self):
        row = (F(1, 2), 1)
        system = named_system((row, row, (1, F(1, 3)), row), (0, 0, 0, 0))
        assert system.matrix == (((F(1, 2), F(1)),) * 2 + ((F(1), F(1, 3)),) + ((F(1, 2), F(1)),))
        assert all(type(v) is Fraction for r in system.matrix for v in r)
        assert system.matrix[0] is system.matrix[1] is system.matrix[3]
        with pytest.raises(TypeError, match="^LinearSystem.matrix: expected Fraction or int, got bool$"):
            named_system(((F(1),), (True,), (True,)), (0, 0, 0))

    def test_rows_made_and_dropped_one_by_one_stay_distinct(self):
        # each list dies once converted, so its id may come back for the next one
        system = named_system(([F(i), 1] for i in range(50)), (0,) * 50)
        assert system.matrix == tuple((F(i), F(1)) for i in range(50))

    @pytest.mark.parametrize("rhs,labels,message", [
        ((F(1),), (), "2 rows vs 1 right-hand sides"),
        ((F(1), F(1)), ("only",), "1 labels vs 2 rows"),
        ((F(1), F(1)), (), "0 labels vs 2 rows"),
    ], ids=["more_rows_than_rhs", "fewer_labels_than_rows", "no_labels"])
    def test_rows_rhs_and_labels_must_agree(self, rhs, labels, message):
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            LinearSystem(((F(1),), (F(1),)), rhs, labels)

    def test_labels_are_required(self):
        with pytest.raises(TypeError, match="missing 1 required positional argument: 'labels'$"):
            LinearSystem(((F(1),),), (F(1),))

    def test_certificate_narrative_names_the_rows_it_combines(self):
        # w0 = 1/3 and w0 = 2/3 contradict each other; w1 = 1 takes no part
        system = LinearSystem(
            ((F(1), F(0)), (F(0), F(1)), (F(1), F(0))), (F(1, 3), F(1), F(2, 3)), ("low", "other", "high")
        )
        report = lp_feasible(system)
        assert report.certificate == (F(-1), F(0), F(1))
        assert report.narrative == "infeasible: Farkas certificate combines low, high"

    def test_constraint_system_is_feasible(self):
        system = constraint_system(GeneralParams(F(1, 3), F(1, 2), F(1, 4)))
        report = lp_feasible(system)
        assert report.feasible
        assert all(r == 0 for r in residual(system, report.witness))


class TestSimplexSelfChecks:
    """Each check the simplex makes of its own answer fires when that answer is wrong."""

    def test_a_point_with_a_nonzero_residual_is_a_bug(self, monkeypatch):
        monkeypatch.setattr(exactlp, "residual", lambda system, point: (F(1),) * system.num_rows)
        with pytest.raises(AssertionError, match="^simplex returned a non-solution; this is a bug$"):
            lp_feasible(named_system(((F(1), F(1)),), (F(1),)))

    def test_a_rejected_certificate_is_a_bug(self, monkeypatch):
        monkeypatch.setattr(exactlp, "verify_certificate", lambda system, y: False)
        with pytest.raises(AssertionError, match="^simplex produced an invalid Farkas certificate; this is a bug$"):
            lp_feasible(named_system(((F(1),), (F(1),)), (F(1, 3), F(2, 3))))

    def test_an_entering_column_without_a_pivot_row_is_a_bug(self, monkeypatch):
        # Phase one's objective is bounded below by 0, so a column whose reduced cost the tableau
        # backs always has a pivot row.  With ZERO = 2 every reduced cost starts 2 too low, and
        # the column of -w = 1, whose only entry is negative, enters.
        monkeypatch.setattr(exactlp, "ZERO", F(2))
        with pytest.raises(AssertionError, match="^phase-one objective is bounded; no pivot row means a bug$"):
            lp_feasible(named_system(((F(-1),),), (F(1),)))


class TestEnumerator:
    def test_segment_vertices(self):
        system = named_system(((F(1), F(1)),), (F(1),))
        points = enumerate_basic_solutions(system)
        assert set(points) == {(F(1), F(0)), (F(0), F(1))}

    def test_infeasible_system_has_no_points(self):
        system = named_system(((F(1),), (F(1),)), (F(1, 3), F(2, 3)))
        assert enumerate_basic_solutions(system) == ()

    def test_zero_matrix_cases(self):
        consistent = named_system(((F(0), F(0)),), (F(0),))
        assert enumerate_basic_solutions(consistent) == ((F(0), F(0)),)
        inconsistent = named_system(((F(0), F(0)),), (F(1),))
        assert enumerate_basic_solutions(inconsistent) == ()

    def test_system_without_rows_is_feasible_for_every_oracle(self):
        empty = named_system((), ())
        report = lp_feasible(empty)
        assert (report.feasible, report.witness, report.certificate) == (True, (), None)
        assert enumerate_basic_solutions(empty) == ((),)


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
    return named_system(matrix, rhs)


class TestOracleEquivalence:
    def test_simplex_agrees_with_enumeration(self):
        rng = Generator(Philox(key=99))
        for trial in range(120):
            system = random_system(rng, force_feasible=trial % 2 == 0)
            report = lp_feasible(system)
            assert report.feasible == (enumerate_basic_solutions(system) != ()), f"disagreement on trial {trial}"
            if report.feasible:
                assert all(v >= 0 for v in report.witness)
                assert all(r == 0 for r in residual(system, report.witness))
            else:
                assert verify_certificate(system, report.certificate)


class TestRank:
    @given(small_systems())
    @settings(max_examples=100, deadline=None)
    def test_against_sympy_on_random_matrices(self, system):
        augmented = [(*row, b) for row, b in zip(system.matrix, system.rhs)]
        assert matrix_rank(system.matrix) == sympy_rank(system.matrix)
        assert matrix_rank(augmented) == sympy_rank(augmented)

    @given(small_systems())
    @settings(max_examples=100, deadline=None)
    def test_eliminated_rows_stay_coprime(self, system):
        # without the gcd division the exact answers would not change, only the integers would grow
        work = [_integer_row((*row, b)) for row, b in zip(system.matrix, system.rhs)]
        steps = []

        def checked(rows, r, col):
            _eliminate(rows, r, col)
            steps.append(col)
            assert all(gcd(*row) == 1 for row in rows if any(row)), rows

        with patch.object(exactlp, "_eliminate", checked):
            pivots = _echelon(work, system.num_vars + 1)
        assert steps == pivots

    @pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [3, 4]]], ids=["wide-first", "narrow-first"])
    def test_ragged_rows_are_refused(self, rows):
        with pytest.raises(DimensionMismatch, match=r"^ragged matrix rows: widths \[1, 2\]$"):
            matrix_rank(rows)

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


def basic_solutions(system):
    """``_basic_solutions``'s points as Fractions, each pair checked to be reduced."""
    points = []
    for point in _basic_solutions(system):
        assert all(d > 0 and gcd(n, d) == 1 for n, d in point), point
        points.append(tuple(F(n, d) for n, d in point))
    return points


def eliminated_row_counts(monkeypatch) -> list[int]:
    """The number of rows each later ``_eliminate`` call gets, in call order."""
    sizes = []

    def counted(rows, r, col):
        sizes.append(len(rows))
        _eliminate(rows, r, col)

    monkeypatch.setattr(exactlp, "_eliminate", counted)
    return sizes


class TestEnumeratorProperty:
    # 3 x 7 systems are mostly of rank 3, so their subsets of columns 3..6 swap in three columns at once
    @given(st.one_of(small_systems(), small_systems(m=3, n=7)))
    @settings(max_examples=200, deadline=None)
    def test_matches_one_solve_per_subset_and_the_simplex(self, system):
        assert basic_solutions(system) == reference_basic_solutions(system)
        assert (enumerate_basic_solutions(system) != ()) == lp_feasible(system).feasible

    @given(small_systems())
    @settings(max_examples=100, deadline=None)
    def test_vertices_are_the_distinct_basic_solutions_in_order(self, system):
        assert enumerate_basic_solutions(system) == tuple(sorted(set(reference_basic_solutions(system))))

    def test_degenerate_vertex_is_listed_once(self):
        # Every basis holding column 0 gives the vertex (1, 0, 0): it is degenerate.
        system = named_system(((F(1), F(1), F(0)), (F(1), F(0), F(1))), (F(1), F(1)))
        assert basic_solutions(system) == [(F(1), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(1))]
        assert enumerate_basic_solutions(system) == ((F(0), F(1), F(1)), (F(1), F(0), F(0)))

    def test_constraint_system_at_every_boundary(self):
        # At 0 or 1 an objectivity row keeps a single term and joint entries vanish: the rank
        # stays 6, but many bases share a vertex, and 50 of the 125 systems have 2 vertices, not 4.
        values = (F(0), F(1, 3), F(1, 2), F(5, 7), F(1))
        for x, e_p, e_w in product(values, repeat=3):
            system = constraint_system(GeneralParams(x, e_p, e_w))
            expected = reference_basic_solutions(system)
            assert basic_solutions(system) == expected, (x, e_p, e_w)
            assert enumerate_basic_solutions(system) == tuple(sorted(set(expected))), (x, e_p, e_w)

    def test_a_three_row_block_is_solved(self, monkeypatch):
        # rank 3 over 7 columns: the subsets of columns 3..6 leave every first-basis variable
        system = named_system(
            ((F(1), F(0), F(0), F(1), F(2), F(-1), F(1, 2)),
             (F(0), F(1), F(0), F(1), F(-1), F(3), F(1)),
             (F(0), F(0), F(1), F(2), F(1), F(1), F(-1, 3))),
            (F(3), F(4), F(5)),
        )
        sizes = eliminated_row_counts(monkeypatch)
        points = basic_solutions(system)
        assert sizes[:3] == [3, 3, 3]  # the echelon form of [A | b]
        assert sizes[3:].count(3) == 4 * 3  # four 3 x 3 blocks, one step per entering column
        assert points == reference_basic_solutions(system)
        assert any(p[:3] == (F(0),) * 3 for p in points)

    def test_subset_with_dependent_columns_gives_no_point(self):
        # Columns 0 and 1 are equal: swapping column 1 into the first basis {0, 2}
        # for column 2 finds a zero in row 1, the only row whose variable leaves,
        # so {0, 1} is no basis; the bases {0, 2} and {1, 2} give the two vertices.
        system = named_system(((F(1), F(1), F(0)), (F(0), F(0), F(1))), (F(1), F(2)))
        assert basic_solutions(system) == [(F(1), F(0), F(2)), (F(0), F(1), F(2))]


class TestEnumeratorWork:
    """The enumerator reduces ``[A | b]`` once and builds a Fraction only for
    a nonzero coordinate of a distinct vertex."""

    SYSTEM = constraint_system(GeneralParams(F(1, 3), F(1, 2), F(1, 4)))

    def test_at_most_one_fraction_per_nonzero_vertex_coordinate(self, monkeypatch):
        # 16 bases give a point with 6 basic coordinates each, 96 in all; the 4 vertices have 16 nonzeros.
        built = []

        def counting(*args):
            built.append(args)
            return Fraction(*args)

        monkeypatch.setattr(exactlp, "Fraction", counting)
        vertices = enumerate_basic_solutions(self.SYSTEM)
        assert len(vertices) == 4
        assert len(built) <= 16

    def test_each_basis_is_solved_on_its_leaving_rows(self, monkeypatch):
        # n = 8 columns of rank 6: after the 6 steps of the one echelon form, a
        # subset swaps in at most 2 columns, so each elimination sees at most 2 rows
        sizes = eliminated_row_counts(monkeypatch)
        assert len(enumerate_basic_solutions(self.SYSTEM)) == 4
        assert sizes[:6] == [self.SYSTEM.num_rows] * 6
        assert max(sizes[6:]) == self.SYSTEM.num_vars - 6 == 2

    def test_rank_comes_from_the_echelon_form(self, monkeypatch):
        def refuse(rows):
            raise AssertionError("the enumerator reads the rank off its own echelon form")

        expected = enumerate_basic_solutions(self.SYSTEM)
        monkeypatch.setattr(exactlp, "matrix_rank", refuse)
        assert enumerate_basic_solutions(self.SYSTEM) == expected
        assert len(expected) == 4


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

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_int_valued_coefficients(self, data):
        m = data.draw(st.integers(min_value=1, max_value=4))
        n = data.draw(st.integers(min_value=1, max_value=5))
        ints = st.integers(min_value=-5, max_value=5)
        rows = [data.draw(st.lists(ints, min_size=n, max_size=n)) for _ in range(m)]
        rhs = data.draw(st.lists(ints, min_size=m, max_size=m))
        point = data.draw(st.lists(st.one_of(ints, ENTRIES), min_size=n, max_size=n))
        dense = tuple(sum((c * v for c, v in zip(row, point)), F(0)) - b for row, b in zip(rows, rhs))
        result = residual(named_system(tuple(map(tuple, rows)), tuple(rhs)), point)
        assert result == dense
        assert all(type(r) is Fraction for r in result)

    def test_row_whose_terms_share_one_denominator(self):
        # every term and b are sevenths, so the row sum never changes its denominator
        system = named_system(((F(1, 7), F(3, 7), F(-2, 7)),), (F(2, 7),))
        assert residual(system, (1, 2, 3)) == (F(-1, 7),)
        assert residual(system, (F(2), F(2), F(2))) == (F(2, 7),)
        assert residual(system, (0, 0, -1)) == (F(0),)

    def test_integer_rows_hold_the_nonzero_entries(self):
        system = named_system(((F(0), F(-2, 3), F(1)), (F(0), F(0), F(0))), (F(1), F(0)))
        assert system.integer_rows == ((((1, -2, 3), (2, 1, 1)), 1, 1), ((), 0, 1))
        assert residual(system, (F(5), F(3), F(1))) == (F(-2), F(0))


class TestIntegerRowsAreNotAField:
    """``LinearSystem.integer_rows`` is cached on first use, outside the record's fields."""

    @staticmethod
    def system():
        return LinearSystem(((F(1, 2), F(0)), (F(1), F(-3, 4))), (F(1), F(2, 5)), ("first", "second"))

    def test_equal_systems_compare_hash_and_print_equal(self):
        used, fresh = self.system(), self.system()
        residual(used, (F(2), F(1)))
        assert "integer_rows" in vars(used) and "integer_rows" not in vars(fresh)
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)

    def test_replace_starts_with_a_fresh_form(self):
        used = self.system()
        assert residual(used, (F(2), F(0))) == (F(0), F(8, 5))
        moved = replaced(used, rhs=(F(0), F(0)))
        assert "integer_rows" not in vars(moved)
        assert residual(moved, (F(2), F(0))) == (F(1), F(2))

    def test_memoized_constraint_system_is_the_same_object(self):
        params = GeneralParams(F(3, 11), F(2, 9), F(4, 13))
        system = constraint_system(params)
        residual(system, (0,) * 8)
        assert constraint_system(params) is system
        assert _memoized_system(3, 11, 2, 9, 4, 13) is system


class TestOraclesShareNoCode:
    """The simplex and the enumerator are two independent oracles, so no helper may serve both."""

    #: Names both may use: input coercion, and the system they both read (its members included).
    SHARED = {"_as_fraction_row", "LinearSystem"}

    def reachable(self, root: str) -> set[str]:
        """Module-level functions and classes of ``hvnogo.exactlp`` that ``root`` refers to, transitively.

        A shared name is recorded but not entered.
        """
        tree = ast.parse(Path(exactlp.__file__).read_text(encoding="utf-8"))
        defs = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        seen, todo = set(), [root]
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            if name not in self.SHARED:
                todo += [n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name) and n.id in defs]
        return seen

    def test_simplex_and_enumerator_are_disjoint(self):
        simplex = self.reachable("lp_feasible")
        enumerator = self.reachable("_basic_solutions")
        # the walk sees each side's own helpers
        assert {"residual", "verify_certificate"} <= simplex
        assert {"_echelon", "_eliminate", "_integer_row"} <= enumerator
        assert "_integer_row" not in simplex  # the fraction-free kernel is the enumerator's alone
        assert simplex & enumerator <= self.SHARED
