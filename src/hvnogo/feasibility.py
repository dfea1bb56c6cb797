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

:func:`check_triple` stacks all three over every setting and decides
feasibility with an exact certificate: with two different x values the
system is infeasible, and that is the no-go theorem.  The three
``model_drop_*`` constructors then witness that dropping any single
assumption restores consistency, and :func:`validate_witness` audits each
witness against the two retained assumptions in exact arithmetic.  A
:class:`WitnessModel` is built from its payload alone: the payload's type
fixes its ``mode``, and with it which assumption is dropped.

In the triple check the deterministic responses are taken
setting-independent: one table serves every setting, so it fixes one b=0
marginal for all of them.  With one setting-independent table, adequacy
alone refutes distinct x values; the certificate needs no objectivity row.
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
from typing import Mapping, Union

from .dist import GeneralParams, JointDist, format_rational, joint_from_params, parse_rational
from .errors import MalformedInput, MalformedModel, malformed_input
from .exactlp import FeasibilityReport, LinearSystem, _as_fraction_row, lp_feasible
from .family import (
    CELLS,
    LambdaLabel,
    OnticTable,
    _ADEQUACY_LABELS,
    _ADEQUACY_ROWS,
    _objectivity_rows,
    lambda_marginal,
    special_solution,
)

_OUTCOME_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _as_probability_fraction(value, what: str) -> Fraction:
    (v,) = _as_fraction_row((value,), what)
    if v < 0 or v > 1:
        raise ValueError(f"{what} = {v} outside [0, 1]")
    return v


@dataclass(frozen=True)
class Setting:
    """One experimental setting: a label and its apparatus marginal x."""

    label: str
    x: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", _as_probability_fraction(self.x, f"setting {self.label!r}: x"))


@dataclass(frozen=True)
class SettingsFamily:
    """Settings sharing (e_p, e_w); only the apparatus marginal x varies.

    Each setting's :class:`GeneralParams` and :class:`JointDist` are built
    the first time any of them is asked for, then kept for the family's
    lifetime.  The kept values are not fields: equality, hashing and repr
    see only (e_p, e_w, settings).
    """

    e_p: Fraction
    e_w: Fraction
    settings: tuple[Setting, ...]

    def __post_init__(self):
        object.__setattr__(self, "e_p", _as_probability_fraction(self.e_p, "e_p"))
        object.__setattr__(self, "e_w", _as_probability_fraction(self.e_w, "e_w"))
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
    def _built(self) -> dict[str, tuple[Setting, GeneralParams, JointDist]]:
        """Each setting with its validated params and joint, keyed by label."""
        built = {}
        for s in self.settings:
            params = GeneralParams(s.x, self.e_p, self.e_w)
            built[s.label] = (s, params, joint_from_params(params))
        return built

    def _own(self, setting: Setting) -> tuple[Setting, GeneralParams, JointDist]:
        entry = self._built.get(setting.label)
        if entry is None or entry[0] != setting:
            raise ValueError(f"setting {setting.label!r} is not one of this family's settings")
        return entry

    def params_for(self, setting: Setting) -> GeneralParams:
        return self._own(setting)[1]

    def joint_for(self, setting: Setting) -> JointDist:
        return self._own(setting)[2]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.settings)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SettingsFamily":
        for key in ("e_p", "e_w", "settings"):
            if key not in data:
                raise MalformedInput(f"settings family is missing field {key!r}")
        with malformed_input("field 'e_p'"):
            e_p = parse_rational(str(data["e_p"]))
        with malformed_input("field 'e_w'"):
            e_w = parse_rational(str(data["e_w"]))
        raw = data["settings"]
        if not isinstance(raw, (list, tuple)) or not raw:
            raise MalformedInput("field 'settings' must be a nonempty list")
        settings = []
        for i, item in enumerate(raw):
            if not isinstance(item, Mapping) or "label" not in item or "x" not in item:
                raise MalformedInput(f"settings[{i}] needs fields 'label' and 'x'")
            if not isinstance(item["label"], str):
                raise MalformedInput(f"settings[{i}].label: expected a string, got {type(item['label']).__name__}")
            with malformed_input(f"settings[{i}].x"):
                settings.append(Setting(item["label"], parse_rational(str(item["x"]))))
        with malformed_input():
            return cls(e_p, e_w, tuple(settings))


def triple_system(family: SettingsFamily) -> LinearSystem:
    """All three assumptions stacked across the family's settings.

    Variables: one shared eight-cell table (independence + determinism).
    Rows: four adequacy equations per setting, then the two objectivity
    product equations (shared, since e_p and e_w are setting-independent).

    Each call builds every setting's joint afresh instead of reading the
    family's kept joints.  Sharing them made the ``exact`` benchmark
    workload faster, and that alone can move its tail from p90 to p99,
    since the rank still depends on how many jobs a run completes
    (ROADMAP item 5).  Read ``family.joint_for`` here once it does not.
    """
    rows: list[tuple[Fraction, ...]] = []
    rhs: list[Fraction] = []
    labels: list[str] = []
    for setting in family.settings:
        rows += _ADEQUACY_ROWS
        rhs += joint_from_params(GeneralParams(setting.x, family.e_p, family.e_w)).entries
        labels += (f"adequacy[{setting.label}]" + label.removeprefix("adequacy") for label in _ADEQUACY_LABELS)
    # e_p and e_w are shared, so one pair of objectivity rows serves every setting
    o_rows, o_rhs, o_labels = _objectivity_rows(family.e_p, family.e_w)
    return LinearSystem((*rows, *o_rows), (*rhs, *o_rhs), (*labels, *o_labels))


def check_triple(family: SettingsFamily) -> FeasibilityReport:
    """Can determinism, independence, and objectivity coexist over the family?

    Feasible exactly when every setting shares one apparatus marginal x.
    Infeasible runs return a Farkas certificate over the stacked system
    (:func:`triple_system` rebuilds it for auditing).
    """
    system = triple_system(family)
    report = lp_feasible(system)
    xs = sorted({s.x for s in family.settings})
    if report.feasible:
        table = OnticTable(report.witness)
        narrative = (
            f"feasible: all settings share the apparatus marginal x = {format_rational(xs[0])}; "
            "the witness table reproduces every setting's statistics while keeping "
            "determinism, independence, and objectivity"
        )
        return FeasibilityReport(True, table, None, narrative)
    clash = ", ".join(format_rational(x) for x in xs)
    active = [system.label(i) for i, y in enumerate(report.certificate) if y != 0]
    narrative = (
        "infeasible: one setting-independent table fixes the b=0 marginal once, "
        f"but the settings demand it equal each of: {clash}. "
        "Certificate rows: " + ", ".join(active)
    )
    return FeasibilityReport(False, None, report.certificate, narrative)


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
        if any(pair not in _OUTCOME_PAIRS for pair in assignments):
            raise ValueError(f"assignments must be outcome-pair bits, got {assignments}")
        object.__setattr__(self, "assignments", assignments)
        object.__setattr__(self, "weight", _as_probability_fraction(self.weight, "OutcomeAtom.weight"))


@dataclass(frozen=True)
class OutcomeAtomModel:
    """Drop-objectivity payload: explicit setting-indexed deterministic atoms."""

    setting_labels: tuple[str, ...]
    atoms: tuple[OutcomeAtom, ...]


_RESPONSE_FIELDS = ("b0", "a0_given_b0", "a0_given_b1")


@dataclass(frozen=True)
class SettingResponse:
    """Stochastic responses of one atom under one setting."""

    b0: Fraction
    a0_given_b0: Fraction
    a0_given_b1: Fraction

    def __post_init__(self):
        for name in _RESPONSE_FIELDS:
            value = _as_probability_fraction(getattr(self, name), f"SettingResponse.{name}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ResponseAtom:
    """A labelled hidden state with per-setting stochastic responses."""

    name: str
    weight: Fraction
    label: LambdaLabel
    responses: dict[str, SettingResponse]

    def __post_init__(self):
        object.__setattr__(self, "weight", _as_probability_fraction(self.weight, f"atom {self.name!r} weight"))
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
    so the label marginal tracks (x, 1-x) and varies with the setting."""
    tables = {s.label: special_solution(family.params_for(s)) for s in family.settings}
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
    """
    cumulatives = [tuple(itertools.accumulate(family.joint_for(s).entries)) for s in family.settings]
    cuts = sorted({Fraction(0)}.union(*cumulatives))
    atoms = tuple(
        OutcomeAtom(tuple(_OUTCOME_PAIRS[bisect.bisect_right(cum, lo)] for cum in cumulatives), hi - lo)
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


#: p(a, b, lam) masses of one setting, keyed by (a, b, lam).
_BranchMasses = dict[tuple[int, int, LambdaLabel], Fraction]


def _branch_masses(payload: Payload, setting: Setting) -> _BranchMasses:
    """p(a, b, lam) masses for label-carrying payloads, keyed by (a, b, lam)."""
    if isinstance(payload, PerSettingTables):
        return dict(zip(CELLS, payload.tables[setting.label].entries))
    masses = dict.fromkeys(CELLS, Fraction(0))
    for atom in payload.atoms:
        r = atom.responses[setting.label]
        masses[(0, 0, atom.label)] += atom.weight * r.b0 * r.a0_given_b0
        masses[(1, 0, atom.label)] += atom.weight * r.b0 * (1 - r.a0_given_b0)
        masses[(0, 1, atom.label)] += atom.weight * (1 - r.b0) * r.a0_given_b1
        masses[(1, 1, atom.label)] += atom.weight * (1 - r.b0) * (1 - r.a0_given_b1)
    return masses


def _model_joints(
    payload: Payload, family: SettingsFamily, branch_masses: Mapping[str, _BranchMasses] | None
) -> dict[str, tuple[Fraction, ...]]:
    """Predicted (a, b) statistics per setting, as raw 4-tuples in 00,01,10,11 order."""
    if not isinstance(payload, OutcomeAtomModel):
        return {
            label: tuple(m[(a, b, "p")] + m[(a, b, "w")] for a, b in _OUTCOME_PAIRS)
            for label, m in branch_masses.items()
        }
    out: dict[str, tuple[Fraction, ...]] = {}
    for i, s in enumerate(family.settings):
        cells = dict.fromkeys(_OUTCOME_PAIRS, Fraction(0))
        for atom in payload.atoms:
            cells[atom.assignments[i]] += atom.weight
        out[s.label] = tuple(cells.values())
    return out


def _check_structure(payload: Payload, family: SettingsFamily) -> None:
    if isinstance(payload, PerSettingTables):
        have = set(payload.tables)
        want = set(family.labels)
        if have != want:
            raise MalformedModel(f"per-setting tables keyed by {sorted(have)}, family has {sorted(want)}")
    elif isinstance(payload, OutcomeAtomModel):
        if payload.setting_labels != family.labels:
            raise MalformedModel(
                f"atom model ordered by {list(payload.setting_labels)}, family has {list(family.labels)}"
            )
        k = len(family.settings)
        for atom in payload.atoms:
            if len(atom.assignments) != k:
                raise MalformedModel(f"atom assigns {len(atom.assignments)} outcomes for {k} settings")
    else:
        if not payload.atoms:
            raise MalformedModel("stochastic response model has no atoms")
        for atom in payload.atoms:
            missing = [lbl for lbl in family.labels if lbl not in atom.responses]
            if missing:
                raise MalformedModel(f"atom {atom.name!r} lacks responses for setting {missing[0]!r}")


def _adequacy_check(
    payload: Payload, family: SettingsFamily, branch_masses: Mapping[str, _BranchMasses] | None
) -> tuple[bool, str]:
    joints = _model_joints(payload, family, branch_masses)
    for s in family.settings:
        want = family.joint_for(s).entries
        for (a, b), w, g in zip(_OUTCOME_PAIRS, want, joints[s.label]):
            if g != w:
                return False, f"setting {s.label!r}: model gives p(a={a},b={b}) = {g}, observed {w}"
    return True, "every setting's joint reproduced exactly"


def _objectivity_check(
    payload: Payload, family: SettingsFamily, branch_masses: Mapping[str, _BranchMasses] | None
) -> tuple[bool, str]:
    """Support-sensitive revelation check.

    For each setting and each apparatus outcome that occurs at all, the
    matching label must occur with it, and conditioning on (outcome,
    matching label) must reveal exactly the matching statistics.  A label
    that never accompanies its own apparatus outcome makes the revelation
    equation unsatisfiable, not vacuous.
    """
    if isinstance(payload, OutcomeAtomModel):
        return False, "model carries no wave/particle labels"
    expectations = (
        (0, "p", family.e_p, "p-statistics revelation at b=0"),
        (1, "w", family.e_w, "w-statistics revelation at b=1"),
    )
    for s in family.settings:
        masses = branch_masses[s.label]
        for b, lam, e_target, constraint in expectations:
            outcome_mass = sum(masses[(a, b, l)] for a in (0, 1) for l in ("p", "w"))
            if outcome_mass == 0:
                continue  # the apparatus never shows this outcome; nothing to reveal
            match_mass = masses[(0, b, lam)] + masses[(1, b, lam)]
            if match_mass == 0:
                return False, (
                    f"setting {s.label!r}: outcome b={b} occurs but never with label {lam!r}; "
                    f"{constraint} cannot hold"
                )
            if masses[(0, b, lam)] * (1 - e_target) != masses[(1, b, lam)] * e_target:
                got = masses[(0, b, lam)] / match_mass
                return False, (
                    f"setting {s.label!r}: {constraint} fails; p(a=0|b={b},lam={lam}) = {got}, expected {e_target}"
                )
    return True, "each label reveals its matching statistics in its matching outcome"


def _determinism_check(
    payload: Payload, family: SettingsFamily, branch_masses: Mapping[str, _BranchMasses] | None
) -> tuple[bool, str]:
    if isinstance(payload, (PerSettingTables, OutcomeAtomModel)):
        return True, "all probability mass sits on atoms with pinned outcomes"
    for atom in payload.atoms:
        for label in family.labels:
            for field_name in _RESPONSE_FIELDS:
                v = getattr(atom.responses[label], field_name)
                if v != 0 and v != 1:
                    return False, (
                        f"atom {atom.name!r}, setting {label!r}: response {field_name} = {v} "
                        "is strictly between 0 and 1"
                    )
    return True, "all responses are 0 or 1"


def _independence_check(
    payload: Payload, family: SettingsFamily, branch_masses: Mapping[str, _BranchMasses] | None
) -> tuple[bool, str]:
    if isinstance(payload, PerSettingTables):
        marginals = {s.label: lambda_marginal(payload.tables[s.label]).p0 for s in family.settings}
        if len(set(marginals.values())) > 1:
            listing = ", ".join(f"{lbl}: {format_rational(v)}" for lbl, v in marginals.items())
            return False, f"label marginal p(lam=p) depends on the setting ({listing})"
        return True, "hidden-state distribution identical across settings"
    total = sum(atom.weight for atom in payload.atoms)
    if total != 1:
        return False, f"atom weights sum to {total}, not a probability distribution"
    return True, "one fixed atom-weight vector serves every setting"


#: Adequacy, then the three assumptions, in report order.  Each check takes
#: the payload, the family and the per-setting branch masses (None for an
#: :class:`OutcomeAtomModel`, which carries no labels).
_CHECKS = (
    ("adequacy", _adequacy_check),
    ("determinism", _determinism_check),
    ("independence", _independence_check),
    ("objectivity", _objectivity_check),
)


def validate_witness(model: WitnessModel, family: SettingsFamily) -> WitnessReport:
    """Audit a witness: adequacy plus the two retained assumptions must pass.

    The dropped assumption is checked too and reported informationally
    (``retained = False``); it is expected to fail for honest witnesses.

    Raises :class:`MalformedModel` when the payload does not structurally
    match the family.
    """
    payload = model.payload
    _check_structure(payload, family)
    # adequacy and objectivity both read each setting's branch masses
    branch_masses = (
        None
        if isinstance(payload, OutcomeAtomModel)
        else {s.label: _branch_masses(payload, s) for s in family.settings}
    )
    dropped = model.mode.value.removeprefix("Drop").lower()  # "DropIndependence" -> "independence"
    checks = tuple(
        AssumptionCheck(name, name != dropped, *check(payload, family, branch_masses)) for name, check in _CHECKS
    )
    return WitnessReport(model.mode, checks)

