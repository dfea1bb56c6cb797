"""The hidden-variable constraint system and its two-parameter solution family.

A hidden-variable model for one experimental setting assigns exact rational
mass ``p(a, b, lam)`` to the eight cells combining detector outcomes (a, b)
with an intrinsic binary label ``lam`` in {p, w} ("particle" or "wave").
Tables are stored label-major, alphanumeric within each label::

    index: 0    1    2    3    4    5    6    7
    cell:  00p  01p  10p  11p  00w  01w  10w  11w

Two families of constraints act on a table, given observed statistics
(x, e_p, e_w):

* adequacy: the table's (a, b) marginal equals the observed joint;
* objectivity: conditioned on (b=0, lam=p) the a-statistics is
  (e_p, 1-e_p), and conditioned on (b=1, lam=w) it is (e_w, 1-e_w).
  Stored multiplied out (``p(0,0,p)(1-e_p) = p(1,0,p) e_p`` and the w
  analogue) so boundary values of e_p, e_w need no division.

For interior parameters the solution set is a two-parameter family,
parameterized here by the two cross-branch masses at a=0:
``s = p(0,0,w)`` and ``t = p(0,1,p)``.  At (s, t) = (0, 0) the label is
perfectly correlated with the apparatus outcome b (the "special" solution,
the only member that keeps objectivity meaningful); any member with s > 0
or t > 0 has its detector-a statistics fixed by b alone, independent of the
label, collapsing the wave/particle distinction.  With
``r_p = (1-e_p)/e_p`` and ``r_w = (1-e_w)/e_w`` the member at (s, t) is::

    p(0,0,p) = x*e_p - s            p(1,0,p) = (x*e_p - s) * r_p
    p(0,1,p) = t                    p(1,1,p) = t * r_w
    p(0,0,w) = s                    p(1,0,w) = s * r_p
    p(0,1,w) = (1-x)*e_w - t        p(1,1,w) = ((1-x)*e_w - t) * r_w

Everything in this module is exact: floats are rejected, residuals are
compared to literal zero.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Literal

from .dist import (
    BinaryDist,
    GeneralParams,
    JointDist,
    _as_fraction_row,
    _check_distribution,
    _is_bit_pair,
    _show,
    format_rational,
    joint_from_params,
)
from .errors import BoundaryParams, ConditionOnNull, NotASolution, OutOfRange
from .exactlp import LinearSystem, residual

LambdaLabel = Literal["p", "w"]

#: The two label values, in their fixed order (p before w).
LAMBDA_LABELS: tuple[LambdaLabel, LambdaLabel] = ("p", "w")

#: Cell keys in storage order; also the JSON field names for tables.
CELL_KEYS = ("00p", "01p", "10p", "11p", "00w", "01w", "10w", "11w")

#: (a, b, lam) triples in storage order.
CELLS = tuple((a, b, lam) for lam in LAMBDA_LABELS for a in (0, 1) for b in (0, 1))

#: Each cell's name in :class:`OnticTable`'s messages.
_CELL_NAMES = tuple(f"OnticTable[{key}]" for key in CELL_KEYS)


def cell_index(a: int, b: int, lam: LambdaLabel) -> int:
    if not _is_bit_pair((a, b)):
        raise ValueError(f"outcomes must be bits, got (a={a}, b={b})")
    if lam not in LAMBDA_LABELS:
        raise ValueError(f"label must be 'p' or 'w', got {lam!r}")
    return 4 * LAMBDA_LABELS.index(lam) + 2 * a + b


def _exact_params(params: GeneralParams, where: str) -> GeneralParams:
    if type(params.x) is not Fraction:
        raise TypeError(f"{where} works in exact arithmetic; got real-mode parameters")
    return params


@dataclass(frozen=True)
class OnticTable:
    """Exact joint mass over (a, b, lam); the object the constraints live on.

    Each cell doubles as a deterministic atom: all probability sitting in
    cell (a, b, lam) pins both detector outcomes, which is how weak
    determinism is represented throughout the package.  Every construction
    checks the exact-input rule, then the count of 8, each cell's range and
    the sum, as :class:`dist.JointDist` does (:func:`dist._check_distribution`).
    """

    entries: tuple[Fraction, ...]

    def __post_init__(self):
        entries = _as_fraction_row(self.entries, "OnticTable entries")
        object.__setattr__(self, "entries", entries)
        _check_distribution(entries, _CELL_NAMES, "OnticTable")

    def mass(self, a: int, b: int, lam: LambdaLabel) -> Fraction:
        return self.entries[cell_index(a, b, lam)]

    def branch_mass(self, b: int, lam: LambdaLabel) -> Fraction:
        """Total mass p(b, lam), summed over the a outcome."""
        return self.mass(0, b, lam) + self.mass(1, b, lam)

    def to_json_dict(self) -> dict[str, str]:
        return {key: format_rational(v) for key, v in zip(CELL_KEYS, self.entries)}


class CollapseKind(enum.Enum):
    """How a constraint-system solution treats the wave/particle label."""

    SPECIAL = "Special"
    COLLAPSE_W_AT_B0 = "CollapseWAtB0"
    COLLAPSE_P_AT_B1 = "CollapsePAtB1"
    COLLAPSE_BOTH = "CollapseBoth"


@dataclass(frozen=True)
class Classification:
    """Classification of a solution table.

    ``indistinguishable`` flags families with e_p = e_w, where the two
    behaviours cannot be told apart by any statistics.
    """

    kind: CollapseKind
    indistinguishable: bool


@dataclass(frozen=True)
class SolutionFamily:
    """The full solution set for interior parameters.

    Members are indexed by the cross-branch masses s = p(0,0,w) in
    ``s_range`` and t = p(0,1,p) in ``t_range``; both intervals are closed
    and exact, both start at 0, and their upper ends x*e_p and (1-x)*e_w
    are also the closed form's a=0 masses at s = t = 0.
    """

    params: GeneralParams
    s_range: tuple[Fraction, Fraction]
    t_range: tuple[Fraction, Fraction]

    @cached_property
    def _integers(self) -> tuple[int, int, int, int, int, int, int, int]:
        """Numerator and denominator of x*e_p (the upper end of ``s_range``),
        of (1-x)*e_w (that of ``t_range``) and of the a=1 to a=0 ratios
        r_p = (1-e_p)/e_p and r_w = (1-e_w)/e_w that every member shares;
        built on first use.  Not a field, so equality, hashing and repr are
        unchanged."""
        s_max, t_max = self.s_range[1], self.t_range[1]
        e_p, e_w = self.params.e_p, self.params.e_w
        # n/d in lowest terms gives (d - n)/n, also in lowest terms
        return (
            s_max.numerator, s_max.denominator, t_max.numerator, t_max.denominator,
            e_p.denominator - e_p.numerator, e_p.numerator, e_w.denominator - e_w.numerator, e_w.numerator,
        )


#: Adequacy rows ``p(a,b,p) + p(a,b,w)``, one per outcome pair in 00, 01, 10, 11 order.
_ADEQUACY_ROWS = tuple(
    tuple(Fraction(int((ca, cb) == (a, b))) for ca, cb, _ in CELLS) for a in (0, 1) for b in (0, 1)
)


def _adequacy_labels(tag: str) -> tuple[str, ...]:
    """The labels ``adequacy<tag>(a=..,b=..)`` of one joint's four adequacy rows, in 00, 01, 10, 11 order."""
    head = "adequacy" + tag
    return (head + "(a=0,b=0)", head + "(a=0,b=1)", head + "(a=1,b=0)", head + "(a=1,b=1)")


def _stacked_system(e_p: Fraction, e_w: Fraction, tagged_joints: Iterable[tuple[str, JointDist]]) -> LinearSystem:
    """Four adequacy rows per ``(tag, joint)``, labelled by :func:`_adequacy_labels`,
    then the two objectivity rows, which depend on (e_p, e_w) alone."""
    rows: list[tuple[Fraction, ...]] = []
    rhs: list[Fraction] = []
    labels: list[str] = []
    for tag, joint in tagged_joints:
        rows += _ADEQUACY_ROWS
        rhs += joint.entries
        labels += _adequacy_labels(tag)
    p_row = [Fraction(0)] * 8
    p_row[cell_index(0, 0, "p")] = 1 - e_p
    p_row[cell_index(1, 0, "p")] = -e_p
    w_row = [Fraction(0)] * 8
    w_row[cell_index(0, 1, "w")] = 1 - e_w
    w_row[cell_index(1, 1, "w")] = -e_w
    return LinearSystem(
        (*rows, tuple(p_row), tuple(w_row)),
        (*rhs, Fraction(0), Fraction(0)),
        (*labels, "objectivity(p-statistics at b=0)", "objectivity(w-statistics at b=1)"),
    )


def constraint_system(params: GeneralParams) -> LinearSystem:
    """Adequacy plus objectivity as one 6x8 equality system over table cells.

    Rows: four adequacy equations ``p(a,b,p) + p(a,b,w) = e(a,b)``, then the
    two multiplied-out objectivity equations.  Nonnegativity of the cells is
    a side condition carried by the feasibility machinery; normalization is
    implied by adequacy.

    The result is memoized in a least-recently-used cache of 32 parameter
    sets, keyed by the six integers of x, e_p and e_w, each a numerator and
    a denominator, so no Fraction is hashed.  Equal ``params`` have equal
    integers and get the same object back while they stay in it; a
    :class:`LinearSystem` is immutable, so sharing it is safe.  Real-mode
    ``params`` are rejected before any key is formed.
    """
    params = _exact_params(params, "constraint_system")
    x, e_p, e_w = params.x, params.e_p, params.e_w
    return _memoized_system(x.numerator, x.denominator, e_p.numerator, e_p.denominator, e_w.numerator, e_w.denominator)


@lru_cache(maxsize=32)
def _memoized_system(x_num: int, x_den: int, e_p_num: int, e_p_den: int, e_w_num: int, e_w_den: int) -> LinearSystem:
    params = GeneralParams(Fraction(x_num, x_den), Fraction(e_p_num, e_p_den), Fraction(e_w_num, e_w_den))
    return _stacked_system(params.e_p, params.e_w, (("", joint_from_params(params)),))


def solve_family(params: GeneralParams) -> SolutionFamily:
    """Solve the constraint system in closed form, for interior parameters.

    The ranges are exactly the set where all eight closed-form entries stay
    nonnegative: s in [0, x*e_p] and t in [0, (1-x)*e_w].

    Raises :class:`BoundaryParams` when x, e_p, or e_w is 0 or 1; there the
    solution set changes dimension and a two-parameter description would be
    wrong.
    """
    params = _exact_params(params, "solve_family")
    for name, value in (("x", params.x), ("e_p", params.e_p), ("e_w", params.e_w)):
        if value == 0 or value == 1:
            raise BoundaryParams(name)
    s_max = params.x * params.e_p
    t_max = (1 - params.x) * params.e_w
    return SolutionFamily(params, (Fraction(0), s_max), (Fraction(0), t_max))


def _family_entries(family: SolutionFamily, s: Fraction, t: Fraction) -> tuple[Fraction, ...]:
    """The eight closed-form entries of the member at (s, t), in storage
    order; each of the six that is not s or t is one Fraction built from
    integer products of :attr:`SolutionFamily._integers` and (s, t)."""
    sm_num, sm_den, tm_num, tm_den, rp_num, rp_den, rw_num, rw_den = family._integers
    s_num, s_den, t_num, t_den = s.numerator, s.denominator, t.numerator, t.denominator
    p_num, p_den = sm_num * s_den - s_num * sm_den, sm_den * s_den  # p(0,0,p) = x*e_p - s
    w_num, w_den = tm_num * t_den - t_num * tm_den, tm_den * t_den  # p(0,1,w) = (1-x)*e_w - t
    return (
        Fraction(p_num, p_den),
        t,
        Fraction(p_num * rp_num, p_den * rp_den),
        Fraction(t_num * rw_num, t_den * rw_den),
        s,
        Fraction(w_num, w_den),
        Fraction(s_num * rp_num, s_den * rp_den),
        Fraction(w_num * rw_num, w_den * rw_den),
    )


def instantiate(family: SolutionFamily, s, t) -> OnticTable:
    """The family member at (s, t); an exact solution of the constraint system.

    Raises :class:`OutOfRange` when (s, t) leaves the admissible rectangle,
    s checked before t.  Each check is decided in integers: 0 <= n/d <=
    N/D holds when n >= 0 and n*D <= N*d, with N/D the range's upper end
    from :attr:`SolutionFamily._integers`; :func:`_check_in_range` runs
    only to build the message of a value that is out of range.
    """
    s, t = _as_fraction_row((s, t), "instantiate")
    sm_num, sm_den, tm_num, tm_den = family._integers[:4]
    s_num, s_den = s.as_integer_ratio()
    if s_num < 0 or s_num * sm_den > sm_num * s_den:
        _check_in_range("s", s, family.s_range)
    t_num, t_den = t.as_integer_ratio()
    if t_num < 0 or t_num * tm_den > tm_num * t_den:
        _check_in_range("t", t, family.t_range)
    return OnticTable(_family_entries(family, s, t))


def _check_in_range(name: str, value: Fraction, bounds: tuple[Fraction, Fraction]) -> None:
    """Raise :class:`OutOfRange` unless ``lo <= value <= hi``; the message
    names the interval, each number as :func:`dist._show` prints it."""
    lo, hi = bounds
    if not lo <= value <= hi:
        raise OutOfRange(f"{name} = {_show(value)} outside [{_show(lo)}, {_show(hi)}]")


def special_solution(params: GeneralParams) -> OnticTable:
    """The unique objectivity-preserving solution: label and apparatus
    outcome perfectly correlated (all mass has lam=p with b=0, lam=w with
    b=1).  Defined for boundary parameters too.  It is
    :func:`dist.joint_from_params` placed by :func:`_special_table`.
    """
    return _special_table(joint_from_params(_exact_params(params, "special_solution")))


def _special_table(joint: JointDist) -> OnticTable:
    """An exact ``joint`` placed with its b=0 cells under label p and its
    b=1 cells under label w; every cross cell is zero."""
    e00, e01, e10, e11 = joint.entries
    zero = Fraction(0)
    return OnticTable((e00, zero, e10, zero, zero, e01, zero, e11))


def classify(table: OnticTable, params: GeneralParams) -> Classification:
    """Classify an exact solution by its cross-branch support.

    Special means both cross masses p(b=0, lam=w) and p(b=1, lam=p) vanish;
    otherwise the nonzero ones say in which apparatus setting the detector-a
    statistics has been detached from the label.

    Raises :class:`NotASolution` when the table does not solve the
    constraint system for these parameters exactly.
    """
    params = _exact_params(params, "classify")
    system = constraint_system(params)
    res = residual(system, table.entries)
    for i, r in enumerate(res):
        if r != 0:
            raise NotASolution(f"table violates {system.labels[i]} by {_show(r)}")
    # A cross mass is zero iff both its cells are, since no cell is negative:
    # p(b=0, lam=w) sums cells 00w and 10w, p(b=1, lam=p) cells 01p and 11p.
    cells = table.entries
    cross_w0 = cells[4] or cells[6]
    cross_p1 = cells[1] or cells[3]
    if not cross_w0 and not cross_p1:
        kind = CollapseKind.SPECIAL
    elif not cross_p1:
        kind = CollapseKind.COLLAPSE_W_AT_B0
    elif not cross_w0:
        kind = CollapseKind.COLLAPSE_P_AT_B1
    else:
        kind = CollapseKind.COLLAPSE_BOTH
    return Classification(kind, params.e_p == params.e_w)


def conditional_given(table: OnticTable, b: int, lam: LambdaLabel) -> BinaryDist:
    """Detector-a statistics conditioned on apparatus outcome b and label lam.

    Raises :class:`ConditionOnNull` when no mass sits on (b, lam).
    """
    m0, m1 = table.mass(0, b, lam), table.mass(1, b, lam)
    norm = m0 + m1
    if norm == 0:
        raise ConditionOnNull(f"no mass on (b={b}, lam={lam})")
    return BinaryDist(m0 / norm, m1 / norm)


def lambda_marginal(table: OnticTable) -> BinaryDist:
    """Distribution of the label: (total p mass, total w mass)."""
    p_mass = sum(table.entries[0:4])
    return BinaryDist(p_mass, 1 - p_mass)
