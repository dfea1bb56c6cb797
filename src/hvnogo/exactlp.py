"""Exact rational linear feasibility with Farkas certificates.

Decides whether ``A w = b, w >= 0`` has a solution, entirely in rational
arithmetic.  The answer always comes with checkable evidence:

* feasible: a nonnegative rational point with exactly zero residual;
* infeasible: a row-multiplier vector y with ``y^T A <= 0`` componentwise
  and ``y^T b > 0`` (no nonnegative w can then satisfy the system, since
  ``y^T A w <= 0 < y^T b``).

The engine is a phase-one simplex over ``fractions.Fraction`` with Bland's
anti-cycling rule; certificates are the phase-one duals.  Its tableau rows
are sparse: each maps a column to its nonzero entry.  Full triple systems,
solved as cross-checks of the 10-row subsystem that ``check_triple``
refutes, reach 4k + 2 rows over eight genuine variables plus one
artificial per row, and each row starts with two genuine nonzeros and its
artificial, so memory grows with the nonzeros instead of as the square of
the row count.

A brute-force basic-solution enumerator (:func:`enumerate_basic_solutions`)
is provided as an independent cross-check: it shares no code with the
simplex and decides feasibility by inspecting every candidate basis.  It
walks the size-rank(A) column subsets depth first, in lexicographic order:
each child copies its parent's partly eliminated augmented matrix and
eliminates one more column, so subsets that share a prefix share its
elimination, and a prefix whose last column has no pivot (it depends on
the columns before it) prunes every subset that extends it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Iterator, Optional, Sequence

from .errors import DimensionMismatch

ZERO = Fraction(0)
ONE = Fraction(1)


def _as_fraction_row(row, what: str) -> tuple[Fraction, ...]:
    values = tuple(row)
    if any(isinstance(v, float) for v in values):
        raise TypeError(f"{what}: floats are inexact; pass Fraction or int entries")
    try:
        # Fractions are immutable, so those given pass through uncopied.
        return tuple(v if type(v) is Fraction else Fraction(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{what}: entries must be exact rationals") from exc


@dataclass(frozen=True)
class LinearSystem:
    """Equality system ``matrix . w = rhs`` with w constrained nonnegative.

    ``labels`` optionally names each row; narratives and error messages use
    them to say which constraint is doing what.
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        rows = tuple(_as_fraction_row(r, "LinearSystem.matrix") for r in self.matrix)
        rhs = _as_fraction_row(self.rhs, "LinearSystem.rhs")
        if len(rows) != len(rhs):
            raise DimensionMismatch(f"{len(rows)} rows vs {len(rhs)} right-hand sides")
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise DimensionMismatch(f"ragged matrix rows: widths {sorted(widths)}")
        labels = tuple(self.labels)
        if labels and len(labels) != len(rows):
            raise DimensionMismatch(f"{len(labels)} labels vs {len(rows)} rows")
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "labels", labels)

    @property
    def num_rows(self) -> int:
        return len(self.matrix)

    @property
    def num_vars(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else f"row {i}"

    @cached_property
    def sparse_rows(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Each row's nonzero ``(column, coefficient)`` pairs, built on first use."""
        return tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in self.matrix)


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a feasibility question, with evidence.

    ``witness`` is a tuple of Fractions for plain LP runs; higher-level
    checks repackage it (an ontic table, or per-setting tables).
    """

    feasible: bool
    witness: Optional[Any]
    certificate: Optional[tuple[Fraction, ...]]
    narrative: str


def residual(system: LinearSystem, point: Sequence) -> tuple[Fraction, ...]:
    """``A w - b`` for an exact point; all-zero means the point solves the system."""
    w = _as_fraction_row(point, "point")
    if len(w) != system.num_vars:
        raise DimensionMismatch(f"point has {len(w)} entries, system has {system.num_vars} variables")
    out = []
    for row, b in zip(system.sparse_rows, system.rhs):
        total = -b
        for j, c in row:
            total += w[j] if c == 1 else c * w[j]
        out.append(total)
    return tuple(out)


def verify_certificate(system: LinearSystem, y: Sequence) -> bool:
    """Audit an infeasibility certificate in exact arithmetic.

    True iff ``y^T A <= 0`` componentwise and ``y^T b > 0``.
    """
    yv = _as_fraction_row(y, "certificate")
    if len(yv) != system.num_rows:
        raise DimensionMismatch(f"certificate has {len(yv)} entries, system has {system.num_rows} rows")
    support = [i for i, v in enumerate(yv) if v]
    totals = [ZERO] * system.num_vars
    for i in support:
        for j, a in enumerate(system.matrix[i]):
            if a:
                totals[j] += yv[i] * a
    if any(t > 0 for t in totals):
        return False
    return sum(yv[i] * system.rhs[i] for i in support) > 0


def lp_feasible(system: LinearSystem) -> FeasibilityReport:
    """Decide ``A w = b, w >= 0`` by exact phase-one simplex.

    Total: always returns either an exact witness or a verified certificate.
    """
    m, n = system.num_rows, system.num_vars
    if m == 0:
        return FeasibilityReport(True, tuple([ZERO] * n), None, "no constraints; the origin is a witness")

    # Normalize so every right-hand side is nonnegative; remember the signs
    # to map dual multipliers back to the original row order.
    signs = [ONE if system.rhs[i] >= 0 else -ONE for i in range(m)]
    # Row i maps each column to its nonzero entry.  Artificial variable i
    # occupies column n + i and starts basic in row i.
    tab = [{j: signs[i] * a for j, a in enumerate(system.matrix[i]) if a} | {n + i: ONE} for i in range(m)]
    rhs = [signs[i] * system.rhs[i] for i in range(m)]
    basis = [n + i for i in range(m)]

    # Reduced costs for minimizing the sum of artificials.
    red = [-sum((row[j] for row in tab if j in row), ZERO) for j in range(n)] + [ZERO] * m

    while True:
        entering = next((j for j in range(n + m) if red[j] < 0), None)
        if entering is None:
            break
        # Ratio test; Bland's rule breaks ties by smallest basic variable.
        best = None
        for i, entries in enumerate(tab):
            coeff = entries.get(entering, ZERO)
            if coeff > 0:
                ratio = rhs[i] / coeff
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            raise AssertionError("phase-one objective is bounded; no pivot row means a bug")
        row = best[1]
        pivot = tab[row][entering]
        prow = tab[row] = {j: v / pivot for j, v in tab[row].items()}
        rhs[row] /= pivot
        for i, target in enumerate(tab):
            factor = target.get(entering)
            if i != row and factor is not None:
                for j, v in prow.items():
                    entry = target.get(j, ZERO) - factor * v
                    if entry:
                        target[j] = entry
                    else:
                        del target[j]
                rhs[i] -= factor * rhs[row]
        factor = red[entering]  # negative, since the column entered
        for j, v in prow.items():
            red[j] -= factor * v
        basis[row] = entering

    infeasibility = sum(rhs[i] for i in range(m) if basis[i] >= n)
    if infeasibility == 0:
        point = [ZERO] * n
        for i in range(m):
            if basis[i] < n:
                point[basis[i]] = rhs[i]
        if any(r != 0 for r in residual(system, point)):
            raise AssertionError("simplex returned a non-solution; this is a bug")
        return FeasibilityReport(
            True, tuple(point), None, "feasible: exact nonnegative solution found by phase-one simplex"
        )

    # Phase-one duals: the reduced cost of artificial i is 1 - y_i.
    y = tuple(signs[i] * (ONE - red[n + i]) for i in range(m))
    if not verify_certificate(system, y):
        raise AssertionError("simplex produced an invalid Farkas certificate; this is a bug")
    active = [system.label(i) for i in range(m) if y[i] != 0]
    narrative = "infeasible: Farkas certificate combines " + ", ".join(active)
    return FeasibilityReport(False, None, y, narrative)


def _eliminate(work: list[list[Fraction]], r: int, col: int) -> None:
    """Scale row r so ``work[r][col] == 1`` and clear column col from every other row.

    Gauss-Jordan step for :func:`matrix_rank` and the enumerator, in place;
    only row r's nonzero columns are touched.
    """
    prow = work[r]
    pivot = prow[col]
    support = [j for j, v in enumerate(prow) if v != 0]
    for j in support:
        prow[j] /= pivot
    for i, target in enumerate(work):
        factor = target[col]
        if i != r and factor != 0:
            for j in support:
                target[j] -= factor * prow[j]


def matrix_rank(rows: Sequence[Sequence]) -> int:
    """Rank of an exact rational matrix by Gaussian elimination."""
    work = [list(_as_fraction_row(r, "matrix")) for r in rows]
    if not work:
        return 0
    n = len(work[0])
    rank = 0
    for col in range(n):
        pivot_row = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        _eliminate(work, rank, col)
        rank += 1
        if rank == len(work):
            break
    return rank


def _basic_solutions(system: LinearSystem) -> Iterator[tuple[Fraction, ...]]:
    """Yield each nonnegative basic solution once per basis that gives it.

    Walks the size-rank(A) column subsets depth first, in lexicographic
    order.  A node holds the augmented matrix ``[A | b]`` with its prefix's
    columns eliminated, restricted to the columns from its last one on; a
    child copies it and eliminates one more column.  When that column has no
    pivot left it depends on the prefix, so the child and every subset that
    extends it are skipped.  A full subset is a basis; it gives a basic
    solution when the rows below its pivots have zero right-hand side.
    """
    m, n = system.num_rows, system.num_vars
    r = matrix_rank(system.matrix)
    if r == 0:
        if all(b == 0 for b in system.rhs):
            yield tuple([ZERO] * n)
        return

    def walk(work: list[list[Fraction]], first: int, subset: tuple[int, ...]) -> Iterator[tuple[Fraction, ...]]:
        d = len(subset)
        for col in range(subset[-1] + 1 if subset else 0, n - r + d + 1):
            child = [row[col - first :] for row in work]
            pivot_row = next((i for i in range(d, m) if child[i][0] != 0), None)
            if pivot_row is None:
                continue  # rank-deficient prefix: no subset extending it is a basis
            child[d], child[pivot_row] = child[pivot_row], child[d]
            _eliminate(child, d, 0)
            chosen = subset + (col,)
            if d + 1 < r:
                yield from walk(child, col, chosen)
            elif all(row[-1] == 0 for row in child[r:]):
                solution = [row[-1] for row in child[:r]]
                if all(v >= 0 for v in solution):
                    point = [ZERO] * n
                    for j, v in zip(chosen, solution):
                        point[j] = v
                    yield tuple(point)

    yield from walk([[*row, b] for row, b in zip(system.matrix, system.rhs)], 0, ())


def enumerate_basic_solutions(system: LinearSystem) -> tuple[tuple[Fraction, ...], ...]:
    """All basic feasible solutions (vertices) of ``{w >= 0 : A w = b}``.

    Brute force: try every size-rank(A) column subset, solve it exactly,
    keep nonnegative solutions (subsets that share a prefix share its
    elimination; see :func:`_basic_solutions`).  The feasible region lies
    in the nonnegative orthant, so it is pointed and nonempty iff some basic
    feasible solution exists; this makes the enumerator an oracle for
    :func:`lp_feasible`.

    Intended for small systems only (the search is combinatorial).
    """
    return tuple(sorted(set(_basic_solutions(system))))


def brute_force_feasible(system: LinearSystem) -> bool:
    """Feasibility by basis enumeration, stopped at the first vertex; independent of the simplex."""
    return next(_basic_solutions(system), None) is not None
