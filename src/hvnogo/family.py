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
label, collapsing the wave/particle distinction.

Everything in this module is exact: floats are rejected, residuals are
compared to literal zero.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Literal, Mapping

from .dist import BinaryDist, GeneralParams, JointDist, format_rational, joint_from_params, parse_rational
from .errors import (
    BoundaryParams,
    ConditionOnNull,
    InvalidDistribution,
    MalformedInput,
    NotASolution,
    OutOfRange,
    malformed_input,
)
from .exactlp import LinearSystem, _as_fraction_row, residual

LambdaLabel = Literal["p", "w"]

#: The two label values, in their fixed order (p before w).
LAMBDA_LABELS: tuple[LambdaLabel, LambdaLabel] = ("p", "w")

#: Cell keys in storage order; also the JSON field names for tables.
CELL_KEYS = ("00p", "01p", "10p", "11p", "00w", "01w", "10w", "11w")

#: (a, b, lam) triples in storage order.
CELLS = tuple((a, b, lam) for lam in LAMBDA_LABELS for a in (0, 1) for b in (0, 1))


def cell_index(a: int, b: int, lam: LambdaLabel) -> int:
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError(f"outcomes must be bits, got (a={a}, b={b})")
    if lam not in LAMBDA_LABELS:
        raise ValueError(f"label must be 'p' or 'w', got {lam!r}")
    return 4 * LAMBDA_LABELS.index(lam) + 2 * a + b


def _exact_params(params: GeneralParams, where: str) -> GeneralParams:
    if not params.exact:
        raise TypeError(f"{where} works in exact arithmetic; got real-mode parameters")
    return params


@dataclass(frozen=True)
class OnticTable:
    """Exact joint mass over (a, b, lam); the object the constraints live on.

    Each cell doubles as a deterministic atom: all probability sitting in
    cell (a, b, lam) pins both detector outcomes, which is how weak
    determinism is represented throughout the package.
    """

    entries: tuple[Fraction, ...]

    def __post_init__(self):
        entries = _as_fraction_row(self.entries, "OnticTable entries")
        if len(entries) != 8:
            raise InvalidDistribution(f"OnticTable needs 8 entries, got {len(entries)}")
        object.__setattr__(self, "entries", entries)
        for key, v in zip(CELL_KEYS, entries):
            if v < 0:
                raise InvalidDistribution(f"OnticTable[{key}] = {v} is negative")
        total = sum(entries)
        if total != 1:
            raise InvalidDistribution(f"OnticTable entries sum to {total}, expected 1")

    def mass(self, a: int, b: int, lam: LambdaLabel) -> Fraction:
        return self.entries[cell_index(a, b, lam)]

    def branch_mass(self, b: int, lam: LambdaLabel) -> Fraction:
        """Total mass p(b, lam), summed over the a outcome."""
        return self.mass(0, b, lam) + self.mass(1, b, lam)

    def to_json_dict(self) -> dict[str, str]:
        return {key: format_rational(v) for key, v in zip(CELL_KEYS, self.entries)}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, str]) -> "OnticTable":
        missing = [k for k in CELL_KEYS if k not in data]
        if missing:
            raise MalformedInput(f"ontic table is missing field {missing[0]!r}")
        entries = []
        for key in CELL_KEYS:
            with malformed_input(f"ontic table field {key!r}"):
                entries.append(parse_rational(str(data[key])))
        with malformed_input("ontic table"):
            return cls(tuple(entries))


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
    and exact.
    """

    params: GeneralParams
    s_range: tuple[Fraction, Fraction]
    t_range: tuple[Fraction, Fraction]


#: Adequacy rows ``p(a,b,p) + p(a,b,w)``, one per outcome pair in 00, 01, 10, 11 order.
_ADEQUACY_ROWS = tuple(
    tuple(Fraction(int((ca, cb) == (a, b))) for ca, cb, _ in CELLS) for a in (0, 1) for b in (0, 1)
)


def _stacked_system(e_p: Fraction, e_w: Fraction, tagged_joints: Iterable[tuple[str, JointDist]]) -> LinearSystem:
    """Four adequacy rows per ``(tag, joint)``, labelled ``adequacy<tag>(a=..,b=..)``,
    then the two objectivity rows, which depend on (e_p, e_w) alone."""
    rows: list[tuple[Fraction, ...]] = []
    rhs: list[Fraction] = []
    labels: list[str] = []
    for tag, joint in tagged_joints:
        rows += _ADEQUACY_ROWS
        rhs += joint.entries
        labels += (f"adequacy{tag}(a={a},b={b})" for a in (0, 1) for b in (0, 1))
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

    The result is memoized for the most recently used parameters, so equal
    ``params`` get the same object back; a :class:`LinearSystem` is
    immutable, so sharing it is safe.  Real-mode ``params`` are rejected
    before the memo is consulted, since floats compare equal to Fractions.
    """
    return _memoized_system(_exact_params(params, "constraint_system"))


@lru_cache(maxsize=32)
def _memoized_system(params: GeneralParams) -> LinearSystem:
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


def _family_entries(params: GeneralParams, s: Fraction, t: Fraction) -> tuple[Fraction, ...]:
    x, e_p, e_w = params.x, params.e_p, params.e_w
    entries = [Fraction(0)] * 8
    entries[cell_index(0, 0, "p")] = x * e_p - s
    entries[cell_index(1, 0, "p")] = (x * e_p - s) * (1 - e_p) / e_p
    entries[cell_index(0, 0, "w")] = s
    entries[cell_index(1, 0, "w")] = s * (1 - e_p) / e_p
    entries[cell_index(0, 1, "p")] = t
    entries[cell_index(1, 1, "p")] = t * (1 - e_w) / e_w
    entries[cell_index(0, 1, "w")] = (1 - x) * e_w - t
    entries[cell_index(1, 1, "w")] = ((1 - x) * e_w - t) * (1 - e_w) / e_w
    return tuple(entries)


def instantiate(family: SolutionFamily, s, t) -> OnticTable:
    """The family member at (s, t); an exact solution of the constraint system.

    Raises :class:`OutOfRange` when (s, t) leaves the admissible rectangle.
    """
    if isinstance(s, float) or isinstance(t, float):
        raise TypeError("instantiate works in exact arithmetic; pass Fraction or int")
    s = Fraction(s)
    t = Fraction(t)
    lo_s, hi_s = family.s_range
    lo_t, hi_t = family.t_range
    if not lo_s <= s <= hi_s:
        raise OutOfRange(f"s = {s} outside [{lo_s}, {hi_s}]")
    if not lo_t <= t <= hi_t:
        raise OutOfRange(f"t = {t} outside [{lo_t}, {hi_t}]")
    return OnticTable(_family_entries(family.params, s, t))


def special_solution(params: GeneralParams) -> OnticTable:
    """The unique objectivity-preserving solution: label and apparatus
    outcome perfectly correlated (all mass has lam=p with b=0, lam=w with
    b=1).  Defined for boundary parameters too.
    """
    params = _exact_params(params, "special_solution")
    x, e_p, e_w = params.x, params.e_p, params.e_w
    entries = [Fraction(0)] * 8
    entries[cell_index(0, 0, "p")] = x * e_p
    entries[cell_index(1, 0, "p")] = x * (1 - e_p)
    entries[cell_index(0, 1, "w")] = (1 - x) * e_w
    entries[cell_index(1, 1, "w")] = (1 - x) * (1 - e_w)
    return OnticTable(tuple(entries))


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
            raise NotASolution(f"table violates {system.label(i)} by {r}")
    cross_w0 = table.branch_mass(0, "w")
    cross_p1 = table.branch_mass(1, "p")
    if cross_w0 == 0 and cross_p1 == 0:
        kind = CollapseKind.SPECIAL
    elif cross_p1 == 0:
        kind = CollapseKind.COLLAPSE_W_AT_B0
    elif cross_w0 == 0:
        kind = CollapseKind.COLLAPSE_P_AT_B1
    else:
        kind = CollapseKind.COLLAPSE_BOTH
    return Classification(kind, params.e_p == params.e_w)


def conditional_given(table: OnticTable, b: int, lam: LambdaLabel) -> BinaryDist:
    """Detector-a statistics conditioned on apparatus outcome b and label lam.

    Raises :class:`ConditionOnNull` when no mass sits on (b, lam).
    """
    norm = table.branch_mass(b, lam)
    if norm == 0:
        raise ConditionOnNull(f"no mass on (b={b}, lam={lam})")
    return BinaryDist(table.mass(0, b, lam) / norm, table.mass(1, b, lam) / norm)


def lambda_marginal(table: OnticTable) -> BinaryDist:
    """Distribution of the label: (total p mass, total w mass)."""
    p_mass = sum(table.entries[0:4])
    return BinaryDist(p_mass, 1 - p_mass)
