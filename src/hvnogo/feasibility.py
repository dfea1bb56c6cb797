"""Which subsets of {objectivity, determinism, independence} admit a model?

A *settings family* is a collection of experimental settings sharing the
conditional statistics (e_p, e_w) but differing in the apparatus marginal
x.  The three classical assumptions are formalized as:

* determinism: probability mass sits on atoms with pinned outcomes.  For
  label-carrying models the eight ontic-table cells are exactly those
  atoms, so the table itself is the decision variable.
* independence: one atom-weight vector serves every setting (the setting
  is a free input that does not act back on the hidden state).
* objectivity: each atom carries a fixed binary label in {p, w}, revealed
  as the matching conditional statistics in the matching apparatus outcome.

In the triple check one table serves every setting, so it fixes one b=0
marginal for all of them: :func:`check_triple` decides by the x values
alone, in closed form, with no solver.  Equal x values are feasible, with
the special solution as witness.  Distinct x values are infeasible: the
adequacy rows of the settings with the smallest and the largest x
combine, with multipliers of +-1 and no objectivity row, into a Farkas
certificate that verifies against the full :func:`triple_system`; that
is the no-go theorem.  The full system stays public so that the simplex
can cross-check the verdict.  The three ``model_drop_*`` constructors
then witness that dropping any single assumption restores consistency,
and :func:`validate_witness` audits each witness against the two
retained assumptions in exact arithmetic.  It reads the payload in one
place, into each setting's (a, b) joint and, for a labelled payload, its
p(a, b, lam) masses, all as integer numerators over one common
denominator.  That one reading also decides determinism and
independence, the two checks that depend on the payload's type;
adequacy and objectivity read its joints and masses and are decided by
integer cross-multiplication.  Fractions appear only as payload weights
and in the detail text of a failing check.  A :class:`WitnessModel` is built
from its payload alone: the payload's type fixes its ``mode``, and with
it which assumption is dropped.

Each witness uses its own model class.  Drop-independence uses labelled
per-setting tables (:class:`PerSettingTables`).  Drop-objectivity uses
setting-indexed deterministic outcomes (:class:`OutcomeAtomModel`), where
the setting index is the whole point.  Drop-determinism uses labelled
atoms with stochastic responses (:class:`StochasticResponseModel`).
"""

from __future__ import annotations

import bisect
import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

from .dist import (
    JointDist,
    _OUTCOME_PAIRS,
    _as_probability,
    _common_denominator,
    _is_bit_pair,
    _joints_at,
    _show,
)
from .errors import MalformedModel
from .exactlp import FeasibilityReport, LinearSystem
from .family import LambdaLabel, OnticTable, _adequacy_labels, _special_table, _stacked_system, cell_index


@dataclass(frozen=True)
class Setting:
    """One experimental setting: a label and its apparatus marginal x."""

    label: str
    x: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", _as_probability(self.x, f"setting {self.label!r}: x"))


@dataclass(frozen=True)
class SettingsFamily:
    """Settings sharing (e_p, e_w); only the apparatus marginal x varies.

    :attr:`joints` holds each setting's :class:`JointDist`, in the order of
    ``settings``.  The tuple is built on first use and kept for the
    family's lifetime.  It is not a field: equality, hashing and repr see
    only (e_p, e_w, settings).
    """

    e_p: Fraction
    e_w: Fraction
    settings: tuple[Setting, ...]

    def __post_init__(self):
        object.__setattr__(self, "e_p", _as_probability(self.e_p, "e_p"))
        object.__setattr__(self, "e_w", _as_probability(self.e_w, "e_w"))
        settings = tuple(self.settings)
        for i, s in enumerate(settings):
            if not isinstance(s, Setting):
                raise TypeError(f"settings[{i}] must be a Setting, got {type(s).__name__}")
        if not settings:
            raise ValueError("a settings family needs at least one setting")
        labels = [s.label for s in settings]
        if len(set(labels)) != len(labels):
            raise ValueError(f"setting labels must be unique, got {labels}")
        object.__setattr__(self, "settings", settings)

    @cached_property
    def joints(self) -> tuple[JointDist, ...]:
        """Each setting's joint, from one call of the joint formula
        :func:`dist._joints_at` over the settings' x values; no
        :class:`GeneralParams` is built, since ``Setting`` and the family
        have checked x, e_p and e_w already."""
        return _joints_at([s.x for s in self.settings], self.e_p, self.e_w)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.settings)


def triple_system(family: SettingsFamily) -> LinearSystem:
    """All three assumptions stacked across the family's settings.

    Variables: one shared eight-cell table (independence + determinism).
    Rows: four adequacy equations per setting, read from the family's kept
    joints, then the two objectivity product equations (shared, since e_p
    and e_w are setting-independent).
    """
    tagged = ((f"[{s.label}]", joint) for s, joint in zip(family.settings, family.joints))
    return _stacked_system(family.e_p, family.e_w, tagged)


def check_triple(family: SettingsFamily) -> FeasibilityReport:
    """Can determinism, independence, and objectivity coexist over the family?

    Decided in closed form, with no solver: feasible exactly when every
    setting shares one apparatus marginal x, with the special solution at
    that x (:func:`family.special_solution`) as witness, placed from the
    family's checked values.  Otherwise the first setting with the smallest
    x and the first with the largest x clash: the certificate puts
    (-1, 1, -1, 1) on the low one's adequacy rows (a, b = 00, 01, 10, 11),
    (1, -1, 1, -1) on the high one's, and 0 on every other row of
    :func:`triple_system`, objectivity included.  All adequacy blocks share
    their coefficients, so y^T A = 0, while y^T b = 2 (x_hi - x_lo) > 0.
    """
    xs = [s.x for s in family.settings]
    low = high = 0
    lo_n, lo_d = hi_n, hi_d = xs[0].numerator, xs[0].denominator
    for i, (n, d) in enumerate([(x.numerator, x.denominator) for x in xs]):
        if n * lo_d < lo_n * d:  # x < lo, cross-multiplied: every denominator is positive
            low, lo_n, lo_d = i, n, d
        elif n * hi_d > hi_n * d:
            high, hi_n, hi_d = i, n, d
    if low == high:  # no x lies below or above the first: all are equal
        lo = xs[low]
        narrative = (
            f"feasible: all settings share the apparatus marginal x = {_show(lo)}; "
            "the witness table reproduces every setting's statistics while keeping "
            "determinism, independence, and objectivity"
        )
        return FeasibilityReport(True, _special_table(_joints_at((lo,), family.e_p, family.e_w)[0]), None, narrative)
    certificate = [Fraction(0)] * (4 * len(xs) + 2)
    certificate[4 * low : 4 * low + 4] = map(Fraction, (-1, 1, -1, 1))
    certificate[4 * high : 4 * high + 4] = map(Fraction, (1, -1, 1, -1))
    pair = sorted((low, high))
    clash = " and ".join(f"setting {family.settings[i].label!r} demands x = {_show(xs[i])}" for i in pair)
    active = [label for i in pair for label in _adequacy_labels(f"[{family.settings[i].label}]")]
    narrative = (
        f"infeasible: one setting-independent table fixes the b=0 marginal once, but {clash}. "
        "Certificate rows: " + ", ".join(active)
    )
    return FeasibilityReport(False, None, tuple(certificate), narrative)


# ---------------------------------------------------------------------------
# Pairwise witness models
# ---------------------------------------------------------------------------


class WitnessMode(enum.Enum):
    DROP_INDEPENDENCE = "DropIndependence"
    DROP_OBJECTIVITY = "DropObjectivity"
    DROP_DETERMINISM = "DropDeterminism"


@dataclass(frozen=True)
class PerSettingTables:
    """Drop-independence payload: one labelled table per setting."""

    tables: dict[str, OnticTable]

    def __post_init__(self):
        for label, table in self.tables.items():
            if not isinstance(table, OnticTable):
                raise TypeError(f"table for setting {label!r} must be an OnticTable")


@dataclass(frozen=True)
class OutcomeAtom:
    """One deterministic (setting -> outcome pair) response, with its weight."""

    assignments: tuple[tuple[int, int], ...]
    weight: Fraction

    def __post_init__(self):
        assignments = tuple(tuple(pair) for pair in self.assignments)
        if not all(map(_is_bit_pair, assignments)):
            raise ValueError(f"assignments must be outcome-pair bits, got {assignments}")
        object.__setattr__(self, "assignments", assignments)
        object.__setattr__(self, "weight", _as_probability(self.weight, "OutcomeAtom.weight"))


@dataclass(frozen=True)
class OutcomeAtomModel:
    """Drop-objectivity payload: explicit setting-indexed deterministic atoms."""

    setting_labels: tuple[str, ...]
    atoms: tuple[OutcomeAtom, ...]

    def __post_init__(self):
        object.__setattr__(self, "setting_labels", tuple(self.setting_labels))
        object.__setattr__(self, "atoms", tuple(self.atoms))


_RESPONSE_FIELDS = ("b0", "a0_given_b0", "a0_given_b1")


@dataclass(frozen=True)
class SettingResponse:
    """Stochastic responses of one atom under one setting."""

    b0: Fraction
    a0_given_b0: Fraction
    a0_given_b1: Fraction

    def __post_init__(self):
        for name in _RESPONSE_FIELDS:
            value = _as_probability(getattr(self, name), f"SettingResponse.{name}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ResponseAtom:
    """A labelled hidden state with per-setting stochastic responses."""

    name: str
    weight: Fraction
    label: LambdaLabel
    responses: dict[str, SettingResponse]

    def __post_init__(self):
        object.__setattr__(self, "weight", _as_probability(self.weight, f"atom {self.name!r} weight"))
        if self.label not in ("p", "w"):
            raise ValueError(f"atom {self.name!r} has label {self.label!r}, expected 'p' or 'w'")
        for label, response in self.responses.items():
            if not isinstance(response, SettingResponse):
                raise TypeError(f"atom {self.name!r}: response for {label!r} must be a SettingResponse")


@dataclass(frozen=True)
class StochasticResponseModel:
    """Drop-determinism payload: labelled atoms with stochastic responses."""

    atoms: tuple[ResponseAtom, ...]


Payload = Union[PerSettingTables, OutcomeAtomModel, StochasticResponseModel]

#: The payload's type fixes which assumption a witness drops.
_MODE_OF_PAYLOAD = {
    PerSettingTables: WitnessMode.DROP_INDEPENDENCE,
    OutcomeAtomModel: WitnessMode.DROP_OBJECTIVITY,
    StochasticResponseModel: WitnessMode.DROP_DETERMINISM,
}


@dataclass(frozen=True)
class WitnessModel:
    """A concrete model keeping two assumptions and abandoning the third.

    Built from its payload alone; the payload's type fixes :attr:`mode`.
    """

    payload: Payload

    def __post_init__(self):
        if type(self.payload) not in _MODE_OF_PAYLOAD:
            expected = ", ".join(t.__name__ for t in _MODE_OF_PAYLOAD)
            raise TypeError(f"witness payload must be one of {expected}; got {type(self.payload).__name__}")

    @property
    def mode(self) -> WitnessMode:
        return _MODE_OF_PAYLOAD[type(self.payload)]


def model_drop_independence(family: SettingsFamily) -> WitnessModel:
    """Keep determinism and objectivity; let the hidden state depend on the
    setting.  Each setting gets its own perfectly-correlated special table,
    its kept joint placed by :func:`family._special_table`, so the label
    marginal tracks (x, 1-x) and varies with the setting."""
    tables = {s.label: _special_table(joint) for s, joint in zip(family.settings, family.joints)}
    return WitnessModel(PerSettingTables(tables))


def model_drop_objectivity(family: SettingsFamily) -> WitnessModel:
    """Keep determinism (setting-indexed) and independence; carry no
    wave/particle label at all.

    Quantile coupling (Fine's joint-distribution construction): one
    uniform u in [0, 1) picks every setting's outcome pair through that
    setting's cumulative joint in 00, 01, 10, 11 order.  The atoms are
    the intervals between the merged breakpoints of all k cumulatives, so
    there are at most 3k+1 of them; an atom's weight is its interval's
    length, and each setting's cells collect exactly their joint entries.
    The cumulatives are integers over the joints' one common denominator
    D; only each weight, (hi - lo)/D, is built as a Fraction.
    """
    scale, numerators = _common_denominator([v for joint in family.joints for v in joint.entries])
    cumulatives = [tuple(itertools.accumulate(numerators[i : i + 4])) for i in range(0, len(numerators), 4)]
    cuts = sorted({0}.union(*cumulatives))
    atoms = tuple(
        OutcomeAtom(
            tuple(_OUTCOME_PAIRS[bisect.bisect_right(cum, lo)] for cum in cumulatives), Fraction(hi - lo, scale)
        )
        for lo, hi in zip(cuts, cuts[1:])
    )
    return WitnessModel(OutcomeAtomModel(family.labels, atoms))


def model_drop_determinism(family: SettingsFamily) -> WitnessModel:
    """Keep objectivity and independence; let atoms respond stochastically.

    Two atoms with fixed weights (1/2, 1/2) carry the labels p and w.  Both
    respond identically: b=0 with probability x under setting x, then the
    observed conditionals (e_p at b=0, e_w at b=1).  Conditioning on any
    (b, label) therefore reveals exactly the matching statistics."""
    responses = {
        s.label: SettingResponse(s.x, family.e_p, family.e_w) for s in family.settings
    }
    atoms = (
        ResponseAtom("Lambda_p", Fraction(1, 2), "p", dict(responses)),
        ResponseAtom("Lambda_w", Fraction(1, 2), "w", dict(responses)),
    )
    return WitnessModel(StochasticResponseModel(atoms))


# ---------------------------------------------------------------------------
# Witness validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionCheck:
    """Pass/fail verdict for one assumption (or for adequacy)."""

    name: str
    retained: bool
    passed: bool
    detail: str


@dataclass(frozen=True)
class WitnessReport:
    """Exact audit of a witness model against its family."""

    mode: WitnessMode
    checks: tuple[AssumptionCheck, ...]

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks if c.retained)

    def check(self, name: str) -> AssumptionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


#: One tuple of integer masses per setting, in family order, all over one denominator.
_PerSetting = list[tuple[int, ...]]
#: One check's verdict: whether it passed, and its detail text.
_Verdict = tuple[bool, str]

_PINNED = True, "all probability mass sits on atoms with pinned outcomes"


def _marginals(
    payload: Payload, family: SettingsFamily
) -> tuple[int, _PerSetting, _PerSetting | None, _Verdict, _Verdict]:
    """Read ``payload`` once, checking that it matches ``family``.

    Returns ``(D, joints, masses, determinism, independence)``: each
    setting's predicted (a, b) joint in 00, 01, 10, 11 order and, for a
    labelled payload, its eight p(a, b, lam) masses in :class:`OnticTable`
    order (``None`` for an :class:`OutcomeAtomModel`), all as integer
    numerators over the one common denominator D, then the verdicts of two
    checks.  A labelled joint is cell i plus cell i + 4: the p mass plus the
    w mass.  An outcome atom adds its integer weight to the cell its
    assignment names in each setting, so atom order does not matter.  D is
    the lcm of the tables' entries, the lcm of the atom weights, or for
    stochastic responses the product of the lcms of the weights, of the b0
    responses and of the a responses.  Raises :class:`MalformedModel` on a
    structural mismatch.
    """
    labels = family.labels
    if isinstance(payload, PerSettingTables):
        if set(payload.tables) != set(labels):
            raise MalformedModel(f"per-setting tables keyed by {sorted(payload.tables)}, family has {sorted(labels)}")
        scale, numerators = _common_denominator([v for label in labels for v in payload.tables[label].entries])
        masses = [tuple(numerators[i : i + 8]) for i in range(0, len(numerators), 8)]
        marginals = {label: sum(m[:4]) for label, m in zip(labels, masses)}  # p(lam = p), over scale
        if len(set(marginals.values())) > 1:
            listing = ", ".join(f"{lbl}: {_show(Fraction(v, scale))}" for lbl, v in marginals.items())
            independence = False, f"label marginal p(lam=p) depends on the setting ({listing})"
        else:
            independence = True, "label marginal p(lam=p) is the same in every setting"
        joints = [tuple(m[i] + m[i + 4] for i in range(4)) for m in masses]
        return scale, joints, masses, _PINNED, independence
    w_scale, weights = _common_denominator([atom.weight for atom in payload.atoms])
    if sum(weights) == w_scale:
        independence = True, "one fixed atom-weight vector serves every setting"
    else:
        total = _show(Fraction(sum(weights), w_scale))
        independence = False, f"atom weights sum to {total}, not a probability distribution"
    if isinstance(payload, OutcomeAtomModel):
        if payload.setting_labels != labels:
            raise MalformedModel(f"atom model ordered by {list(payload.setting_labels)}, family has {list(labels)}")
        k = len(labels)
        for atom in payload.atoms:
            if len(atom.assignments) != k:
                raise MalformedModel(f"atom assigns {len(atom.assignments)} outcomes for {k} settings")
        sums = [[0] * 4 for _ in labels]
        for atom, weight in zip(payload.atoms, weights):
            for cells, (a, b) in zip(sums, atom.assignments):
                cells[2 * a + b] += weight
        return w_scale, [tuple(cells) for cells in sums], None, _PINNED, independence
    if not payload.atoms:
        raise MalformedModel("stochastic response model has no atoms")
    determinism = True, "all responses are 0 or 1"
    responses = []  # atom-major, family order within each atom
    for atom in payload.atoms:
        for label in labels:
            r = atom.responses.get(label)
            if r is None:
                raise MalformedModel(f"atom {atom.name!r} lacks responses for setting {label!r}")
            responses.append(r)
            if determinism[0]:
                for name, v in zip(_RESPONSE_FIELDS, (r.b0, r.a0_given_b0, r.a0_given_b1)):
                    if v.denominator != 1:  # a probability strictly between 0 and 1
                        determinism = False, (
                            f"atom {atom.name!r}, setting {label!r}: response {name} = {_show(v)} "
                            "is strictly between 0 and 1"
                        )
                        break
        if len(atom.responses) != len(labels):  # every family label is there, so some are extra
            extra = sorted(set(atom.responses).difference(labels))
            raise MalformedModel(f"atom {atom.name!r} has responses for settings {extra} not in the family")
    b_scale, b0s = _common_denominator([r.b0 for r in responses])
    a_scale, a0s = _common_denominator([v for r in responses for v in (r.a0_given_b0, r.a0_given_b1)])
    b0s, a0s = iter(b0s), iter(a0s)
    sums = [[0] * 8 for _ in labels]
    for atom, weight in zip(payload.atoms, weights):
        # cells (0, 0), (0, 1), (1, 0), (1, 1) of the atom's label
        i00, i01, i10, i11 = (cell_index(a, b, atom.label) for a, b in _OUTCOME_PAIRS)
        for cells in sums:
            b0 = weight * next(b0s)
            b1 = weight * b_scale - b0
            a0_given_b0, a0_given_b1 = next(a0s), next(a0s)
            cells[i00] += b0 * a0_given_b0
            cells[i10] += b0 * (a_scale - a0_given_b0)
            cells[i01] += b1 * a0_given_b1
            cells[i11] += b1 * (a_scale - a0_given_b1)
    joints = [tuple(cells[i] + cells[i + 4] for i in range(4)) for cells in sums]
    return w_scale * b_scale * a_scale, joints, [tuple(cells) for cells in sums], determinism, independence


def _adequacy_check(family: SettingsFamily, scale: int, model_joints: _PerSetting) -> tuple[bool, str]:
    for s, joint, got in zip(family.settings, family.joints, model_joints):
        for (a, b), w, g in zip(_OUTCOME_PAIRS, joint.entries, got):
            if g * w.denominator != w.numerator * scale:
                model = _show(Fraction(g, scale))
                return False, f"setting {s.label!r}: model gives p(a={a},b={b}) = {model}, observed {_show(w)}"
    return True, "every setting's joint reproduced exactly"


def _objectivity_check(family: SettingsFamily, masses: _PerSetting | None) -> tuple[bool, str]:
    """Support-sensitive revelation check.

    For each setting and each apparatus outcome that occurs at all, the
    matching label must occur with it, and conditioning on (outcome,
    matching label) must reveal exactly the matching statistics.  A label
    that never accompanies its own apparatus outcome makes the revelation
    equation unsatisfiable, not vacuous.  ``masses`` holds each setting's
    8-tuple of integers over one denominator from :func:`_marginals`, None
    for a payload with no labels; the revelation equation
    ``m0 (1 - e) = m1 e`` is tested as ``m0 (den - num) = m1 num`` for
    ``e = num/den``.
    """
    if masses is None:
        return False, "model carries no wave/particle labels"
    # cells (a=0, b, lam), (a=1, b, lam) of the matching label, then of the other one
    expectations = [
        (b, lam, e_target, constraint, [cell_index(a, b, l) for l in (lam, other) for a in (0, 1)])
        for b, lam, other, e_target, constraint in (
            (0, "p", "w", family.e_p, "p-statistics revelation at b=0"),
            (1, "w", "p", family.e_w, "w-statistics revelation at b=1"),
        )
    ]
    for s, m in zip(family.settings, masses):
        for b, lam, e_target, constraint, (i0, i1, j0, j1) in expectations:
            match_mass = m[i0] + m[i1]
            if match_mass + m[j0] + m[j1] == 0:
                continue  # the apparatus never shows this outcome; nothing to reveal
            if match_mass == 0:
                return False, (
                    f"setting {s.label!r}: outcome b={b} occurs but never with label {lam!r}; "
                    f"{constraint} cannot hold"
                )
            num, den = e_target.numerator, e_target.denominator
            if m[i0] * (den - num) != m[i1] * num:
                got, expected = _show(Fraction(m[i0], match_mass)), _show(e_target)
                return False, (
                    f"setting {s.label!r}: {constraint} fails; p(a=0|b={b},lam={lam}) = {got}, expected {expected}"
                )
    return True, "each label reveals its matching statistics in its matching outcome"


def validate_witness(model: WitnessModel, family: SettingsFamily) -> WitnessReport:
    """Audit a witness: adequacy plus the two retained assumptions must pass.

    The dropped assumption is checked too and reported informationally
    (``retained = False``); it is expected to fail for honest witnesses.
    :func:`_marginals` reads the payload once, into integers over one
    common denominator D, and decides determinism and independence in the
    same pass; adequacy and objectivity read only its joints and masses,
    by integer cross-multiplication.  The report lists adequacy,
    determinism, independence and objectivity, in that order.  A Fraction
    is built only for the detail text of a failing check.
    It raises :class:`MalformedModel` when the payload does not match the family.

    For :class:`PerSettingTables` independence compares only p(lam = p)
    across settings, weaker than :func:`triple_system`'s one shared table:
    on x in {1/3, 2/3} with e_p = 1/2, e_w = 1/4, tables holding half of
    each setting's joint under each label pass all four checks, while
    :func:`check_triple` refutes the family.
    """
    scale, joints, masses, determinism, independence = _marginals(model.payload, family)
    dropped = model.mode.value.removeprefix("Drop").lower()  # "DropIndependence" -> "independence"
    results = (
        ("adequacy", _adequacy_check(family, scale, joints)),
        ("determinism", determinism),
        ("independence", independence),
        ("objectivity", _objectivity_check(family, masses)),
    )
    return WitnessReport(model.mode, tuple(AssumptionCheck(name, name != dropped, *r) for name, r in results))

