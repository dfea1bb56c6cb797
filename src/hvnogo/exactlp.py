"""Exact rational linear feasibility with Farkas certificates.

Decides whether ``A w = b, w >= 0`` has a solution, entirely in rational
arithmetic.  The answer always comes with checkable evidence:

* feasible: a nonnegative rational point with exactly zero residual;
* infeasible: a row-multiplier vector y with ``y^T A <= 0`` componentwise
  and ``y^T b > 0`` (no nonnegative w can then satisfy the system, since
  ``y^T A w <= 0 < y^T b``).

The engine is a phase-one simplex over ``fractions.Fraction`` with Bland's
anti-cycling rule; certificates are the phase-one duals.  Its tableau rows
are sparse: each maps a column to its nonzero entry.  Full triple
systems, solved only to cross-check ``check_triple``'s closed-form
verdict, reach 4k + 2 rows over eight genuine variables plus one
artificial per row; each row starts with two genuine nonzeros and its
artificial, so memory grows with the nonzeros, not as the rows squared.

A brute-force basic-solution enumerator (:func:`enumerate_basic_solutions`)
is provided as an independent cross-check: it shares no code with the
simplex and decides feasibility by inspecting every candidate basis.  It
reduces ``[A | b]`` once to echelon form, whose pivot columns are the
first basis and whose pivot count is rank(A).  It then visits the
size-rank(A) column subsets in lexicographic order.  Only the rows whose
variable leaves decide a subset: their block on the entering columns is
solved on its own, and a singular block makes the subset dependent.  Each
kept basic variable is then read off its own echelon row with one dot
product over the entering columns.  Duplicate points are merged as
integers before any Fraction is built.

The enumerator and :func:`matrix_rank` share one echelon routine and
eliminate fraction-free, in the manner of Bareiss: each row of
``[A | b]`` is scaled once to coprime integers, and a step sets every
other row to ``pivot * row - factor * pivot_row`` and divides out the gcd
of its entries, so no step builds a Fraction.  A basis's solved block
gives its entering values over one common denominator, so every basic
variable is an integer quotient, kept as a reduced integer pair, and a
distinct vertex gets one Fraction per nonzero coordinate.
:func:`residual` likewise reads an integer form of the system that
:class:`LinearSystem` caches and each point value's integer pair once,
sums each row as one unreduced numerator and denominator and reduces it
once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from typing import Any, Iterator, Optional, Sequence

from .dist import _as_fraction_row, _common_denominator
from .errors import DimensionMismatch

ZERO = Fraction(0)
ONE = Fraction(1)


def _check_rectangular(rows: Sequence[Sequence]) -> None:
    """Raise :class:`DimensionMismatch` unless every row has the same width."""
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise DimensionMismatch(f"ragged matrix rows: widths {sorted(widths)}")


@dataclass(frozen=True)
class LinearSystem:
    """Equality system ``matrix . w = rhs`` with w constrained nonnegative.

    ``labels`` names each row; narratives and error messages use them to
    say which constraint is doing what.
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        matrix = tuple(self.matrix)  # holds every row, so no id below is reused while it is in use
        checked: dict[int, tuple[Fraction, ...]] = {}  # a row object given many times is checked once
        for r in matrix:
            if id(r) not in checked:
                checked[id(r)] = _as_fraction_row(r, "LinearSystem.matrix")
        rows = tuple(checked[id(r)] for r in matrix)
        rhs = _as_fraction_row(self.rhs, "LinearSystem.rhs")
        if len(rows) != len(rhs):
            raise DimensionMismatch(f"{len(rows)} rows vs {len(rhs)} right-hand sides")
        _check_rectangular(rows)
        labels = tuple(self.labels)
        if len(labels) != len(rows):
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

    @cached_property
    def integer_rows(self) -> tuple[tuple[tuple[tuple[int, int, int], ...], int, int], ...]:
        """Per row, each nonzero's ``(column, numerator, denominator)``, then
        the right-hand side's numerator and denominator; the form that
        :func:`residual` reads.  Built on first use and not a field, so
        equality, hashing and repr ignore it, and ``dataclasses.replace``
        starts without it."""
        return tuple(
            (tuple((j, a.numerator, a.denominator) for j, a in enumerate(row) if a), b.numerator, b.denominator)
            for row, b in zip(self.matrix, self.rhs)
        )


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a feasibility question, with evidence.

    ``witness`` is a tuple of Fractions for plain LP runs; ``check_triple``
    reports an ontic table instead.
    """

    feasible: bool
    witness: Optional[Any]
    certificate: Optional[tuple[Fraction, ...]]
    narrative: str


def residual(system: LinearSystem, point: Sequence) -> tuple[Fraction, ...]:
    """``A w - b`` for an exact point; all-zero means the point solves the system.

    Reads the system's :attr:`LinearSystem.integer_rows` and each point
    value's integer pair once, by ``as_integer_ratio()``; each row is summed
    as one unreduced numerator and denominator and reduced once at the end.
    """
    w = _as_fraction_row(point, "point")
    if len(w) != system.num_vars:
        raise DimensionMismatch(f"point has {len(w)} entries, system has {system.num_vars} variables")
    nums, dens = zip(*[v.as_integer_ratio() for v in w]) if w else ((), ())
    out = []
    for terms, b_num, b_den in system.integer_rows:
        num, den = -b_num, b_den
        for j, c_num, c_den in terms:
            n, d = c_num * nums[j], c_den * dens[j]
            if d == den:
                num += n
            else:
                num, den = num * d + n * den, den * d
        out.append(Fraction(num, den) if num else ZERO)
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
    active = [system.labels[i] for i in range(m) if y[i] != 0]
    narrative = "infeasible: Farkas certificate combines " + ", ".join(active)
    return FeasibilityReport(False, None, y, narrative)


def _integer_row(row: Sequence[Fraction]) -> list[int]:
    """``row``'s numerators over its :func:`dist._common_denominator`,
    divided by their gcd.

    A positive multiple of ``row`` with coprime integer entries, which is the
    same equation; :func:`matrix_rank` and the enumerator eliminate on these.
    """
    ints = _common_denominator(row)[1]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _eliminate(work: list[list[int]], r: int, col: int) -> None:
    """Clear column col from every row but r, fraction-free, in place.

    Row r is negated if needed so its pivot ``p = work[r][col]`` is positive;
    every other row with a nonzero ``f`` in column col becomes
    ``p * row - f * work[r]``, divided by the gcd of its entries.  Each row
    stays a positive multiple of its Gauss-Jordan counterpart, so zero
    entries and signs match that elimination's.
    """
    prow = work[r]
    if prow[col] < 0:
        prow[:] = [-v for v in prow]
    pivot = prow[col]
    for i, target in enumerate(work):
        factor = target[col]
        if i != r and factor:
            row = [pivot * a - factor * b for a, b in zip(target, prow)]
            g = gcd(*row)
            target[:] = [v // g for v in row] if g > 1 else row


def _echelon(work: list[list[int]], width: int) -> list[int]:
    """Reduce integer rows to fraction-free reduced echelon form over their
    first ``width`` columns, in place.

    Columns are scanned left to right; a column with a nonzero entry at or
    below the next pivot row swaps that row up and :func:`_eliminate` clears
    the column from every other row.  Returns the pivot columns, the one of
    pivot row i at index i, so their count is the rank of those columns.
    Every pivot stays positive: a later step scales a pivot row by a
    positive pivot and subtracts a multiple of a row that is zero in its
    pivot column.
    """
    pivots: list[int] = []
    height = len(work)
    for col in range(width):
        rank = len(pivots)
        if rank == height:
            break
        for i in range(rank, height):
            if work[i][col]:
                break
        else:
            continue
        work[rank], work[i] = work[i], work[rank]
        _eliminate(work, rank, col)
        pivots.append(col)
    return pivots


def matrix_rank(rows: Sequence[Sequence]) -> int:
    """Rank of an exact rational matrix by fraction-free Gaussian elimination.

    Raises :class:`DimensionMismatch` when the rows differ in width.
    """
    work = [_integer_row(_as_fraction_row(r, "matrix")) for r in rows]
    _check_rectangular(work)
    return len(_echelon(work, len(work[0]))) if work else 0


def _basic_solutions(system: LinearSystem) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield each nonnegative basic solution once per basis that gives it,
    as one reduced ``(numerator, denominator)`` pair per coordinate.

    ``[A | b]``, each row scaled to coprime integers (:func:`_integer_row`),
    is reduced once over A's columns (:func:`_echelon`).  Row i of that form
    reads ``s_i w_(p_i) + sum_j a_ij w_j = b_i`` over the columns j without
    a pivot, with ``s_i > 0``.  Its r pivot columns are the first basis;
    when a row without a pivot keeps a nonzero right-hand side, b is outside
    A's column span and no basis gives a point.  Every size-r column subset
    is then visited in lexicographic order.  Its e entering columns (those
    outside the first basis) take the place of the e leaving rows' pivot
    variables, and those rows alone decide them: the e x e block of the
    leaving rows on the entering columns, with its right-hand side, is
    reduced by :func:`_echelon`.  A block of rank below e means the subset's
    columns are dependent and it is not a basis.  Otherwise block row k
    reads ``c_k t_k = beta_k`` with ``c_k > 0``; over L (``scale``), the lcm
    of the c_k, each entering value is ``T_k / L`` and each kept row's basic
    variable is ``(b_i L - sum_k a_ik T_k) / (s_i L)``, one dot product over
    the entering columns.  A point is nonnegative iff every ``T_k`` and
    every such numerator is.
    """
    n = system.num_vars
    work = [_integer_row((*row, b)) for row, b in zip(system.matrix, system.rhs)]
    pivots = _echelon(work, n)
    r = len(pivots)
    if any(row[n] for row in work[r:]):
        return
    rows = list(zip(pivots, work[:r]))
    free = [j for j in range(n) if j not in pivots]
    zero = (0, 1)
    for subset in combinations(range(n), r):
        entering = [j for j in free if j in subset]
        e = len(entering)
        block = [[row[j] for j in entering] + [row[n]] for p, row in rows if p not in subset]
        if len(_echelon(block, e)) < e:
            continue  # the subset's columns are dependent
        scale = lcm(*[row[k] for k, row in enumerate(block)])
        values = [row[e] * (scale // row[k]) for k, row in enumerate(block)]
        if any(t < 0 for t in values):
            continue
        point = [zero] * n
        for j, t in zip(entering, values):
            if t:
                g = gcd(t, scale)
                point[j] = (t // g, scale // g)
        for p, row in rows:
            if p in subset:
                b = row[n] * scale - sum([row[j] * t for j, t in zip(entering, values)])
                if b < 0:
                    break
                if b:
                    d = row[p] * scale
                    g = gcd(b, d)
                    point[p] = (b // g, d // g)
        else:
            yield tuple(point)


def enumerate_basic_solutions(system: LinearSystem) -> tuple[tuple[Fraction, ...], ...]:
    """All basic feasible solutions (vertices) of ``{w >= 0 : A w = b}``.

    Brute force: try every size-rank(A) column subset, solve it exactly,
    keep nonnegative solutions (all from one echelon form; see
    :func:`_basic_solutions`).  The feasible region lies in the nonnegative
    orthant, so it is pointed and nonempty iff some basic feasible solution
    exists; this makes the enumerator an oracle for :func:`lp_feasible`.

    A degenerate vertex is the basic solution of several bases; these
    duplicates are merged by exact value, each coordinate's reduced
    ``(numerator, denominator)`` pair, before any Fraction is built.  Each
    distinct vertex then gets one Fraction per nonzero coordinate and
    ``ZERO`` for the rest.  The vertices are returned in sorted order.

    Intended for small systems only (the search is combinatorial).
    """
    vertices = set(_basic_solutions(system))
    return tuple(sorted(tuple(Fraction(n, d) if n else ZERO for n, d in point) for point in vertices))
