"""Triple check, certificates, and the three pairwise witness models."""

import dataclasses
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from hvnogo import (
    GeneralParams,
    LinearSystem,
    MalformedModel,
    OnticTable,
    Setting,
    SettingsFamily,
    WitnessMode,
    WitnessModel,
    check_triple,
    constraint_system,
    enumerate_basic_solutions,
    lambda_marginal,
    lp_feasible,
    model_drop_determinism,
    model_drop_independence,
    model_drop_objectivity,
    residual,
    special_solution,
    triple_system,
    validate_witness,
    verify_certificate,
)
from hvnogo import dist, exactlp, feasibility
from hvnogo.acceptance import _interior_fraction as interior_fraction
from hvnogo.acceptance import _random_family, _rng
from hvnogo.feasibility import OutcomeAtom, OutcomeAtomModel, PerSettingTables

F = Fraction

#: Exact probabilities with the boundary values 0 and 1 drawn often.
PROBABILITIES = st.one_of(
    st.sampled_from((F(0), F(1))),
    st.fractions(min_value=0, max_value=1, max_denominator=24),
)

TWO_SETTINGS = SettingsFamily(
    F(1, 2), F(1, 4), (Setting("alpha1", F(1, 3)), Setting("alpha2", F(2, 3)))
)

FIVE_SETTINGS = SettingsFamily(
    F(1, 2), F(1, 4), tuple(Setting(f"s{i}", F(i + 1, 7)) for i in range(5))
)

BUILDERS = (model_drop_independence, model_drop_objectivity, model_drop_determinism)

INDEPENDENCE, OBJECTIVITY = WitnessMode.DROP_INDEPENDENCE, WitnessMode.DROP_OBJECTIVITY


@st.composite
def families(draw):
    """Families of 1..6 settings over PROBABILITIES, half of them with one shared x."""
    k = draw(st.integers(min_value=1, max_value=6))
    if draw(st.booleans()):
        xs = [draw(PROBABILITIES)] * k
    else:
        xs = draw(st.lists(PROBABILITIES, min_size=k, max_size=k))
    e_p, e_w = draw(PROBABILITIES), draw(PROBABILITIES)
    return SettingsFamily(e_p, e_w, tuple(Setting(f"s{i}", x) for i, x in enumerate(xs)))


def _count_calls(monkeypatch, name: str) -> list:
    """Wrap ``hvnogo.feasibility.<name>`` so that each call appends to the returned list."""
    original = getattr(feasibility, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(feasibility, name, counted)
    return calls


def _count_joints(monkeypatch) -> list[int]:
    """Wrap the one joint formula, ``dist._joints_at``, where ``dist`` calls
    it (``joint_from_params``) and where ``feasibility`` calls it
    (``SettingsFamily.joints``); each call appends the number of joints it
    builds to the returned list."""
    original, built = dist._joints_at, []

    def counted(xs, e_p, e_w):
        joints = original(xs, e_p, e_w)
        built.append(len(joints))
        return joints

    monkeypatch.setattr(dist, "_joints_at", counted)
    monkeypatch.setattr(feasibility, "_joints_at", counted)
    return built


def _half_and_half(joint) -> tuple[Fraction, ...]:
    """Half of ``joint`` under each label, as the eight cells of a table."""
    return tuple(v / 2 for v in joint.entries) * 2


def _extreme_pair(family: SettingsFamily) -> tuple[int, int]:
    """Indices, in family order, of the first setting with the smallest x and the first with the largest."""
    xs = [s.x for s in family.settings]
    return tuple(sorted((xs.index(min(xs)), xs.index(max(xs)))))


class TestCheckTriple:
    def test_two_distinct_settings_are_infeasible(self):
        report = check_triple(TWO_SETTINGS)
        assert not report.feasible
        assert verify_certificate(triple_system(TWO_SETTINGS), report.certificate)
        assert "1/3" in report.narrative and "2/3" in report.narrative

    def test_an_x_too_long_to_print_keeps_its_verdict(self):
        family = SettingsFamily(F(1, 2), F(1, 4), (Setting("a", F(1, 10**5000)), Setting("b", F(1, 2))))
        report = check_triple(family)
        assert not report.feasible
        assert verify_certificate(triple_system(family), report.certificate)
        assert "setting 'a' demands x = (an exact result needs more than 4300 digits to print)" in report.narrative

    def test_single_setting_is_feasible(self):
        family = SettingsFamily(F(1, 2), F(1, 4), (Setting("alpha1", F(1, 3)),))
        report = check_triple(family)
        assert report.feasible
        assert isinstance(report.witness, OnticTable)
        assert all(r == 0 for r in residual(triple_system(family), report.witness.entries))

    def test_equal_settings_are_feasible(self):
        family = SettingsFamily(F(1, 2), F(1, 4), (Setting("a", F(1, 2)), Setting("b", F(1, 2))))
        report = check_triple(family)
        assert report.feasible
        assert all(r == 0 for r in residual(triple_system(family), report.witness.entries))

    def test_theorem_over_random_families(self):
        rng = Generator(Philox(key=61))
        for _ in range(25):
            family = _random_family(rng, distinct_x=True, k=int(rng.integers(2, 5)))
            report = check_triple(family)
            assert not report.feasible
            assert verify_certificate(triple_system(family), report.certificate)
        for _ in range(25):
            family = _random_family(rng, distinct_x=False, k=int(rng.integers(2, 5)))
            report = check_triple(family)
            assert report.feasible
            assert all(r == 0 for r in residual(triple_system(family), report.witness.entries))

    @pytest.mark.parametrize("reverse", [False, True], ids=["low_first", "high_first"])
    def test_the_certificate_holds_for_every_pair_by_the_grid_lemma(self, reverse):
        """Proved, not sampled, by the grid lemma (Alon, Combin. Probab.
        Comput. 8, 1999).  With the low and high values apart, the
        certificate's pattern does not depend on the parameters, and y^T A
        reads only the constant adequacy rows, since objectivity gets 0.  So
        y^T b - 2 (x_hi - x_lo) is a polynomial of degree <= 1 in each of
        x_lo, x_hi, e_p and e_w: each entry of ``dist.joint_from_params`` is
        a product of one factor per variable.  2 values per variable, 16
        families, suffice; the grid proves the identity only under that bound."""
        low, high = (-1, 1, -1, 1), (1, -1, 1, -1)
        grid = itertools.product((F(0), F(1, 3)), (F(1, 2), F(1)), (F(1, 4), F(2, 3)), (F(1, 4), F(2, 3)))
        for x_lo, x_hi, e_p, e_w in grid:
            settings = (Setting("lo", x_lo), Setting("hi", x_hi))
            family = SettingsFamily(e_p, e_w, settings[::-1] if reverse else settings)
            report = check_triple(family)
            system = triple_system(family)
            y = report.certificate
            assert y == (*(high + low if reverse else low + high), 0, 0)
            assert all(sum(y_i * row[j] for y_i, row in zip(y, system.matrix)) == 0 for j in range(8))
            assert sum(y_i * b_i for y_i, b_i in zip(y, system.rhs)) == 2 * (x_hi - x_lo)
            assert verify_certificate(system, y)

    def test_a_setting_between_the_extremes_gets_no_multiplier(self):
        settings = (Setting("lo", F(1, 3)), Setting("mid", F(1, 2)), Setting("hi", F(1)))
        family = SettingsFamily(F(1, 4), F(2, 3), settings)
        y = check_triple(family).certificate
        assert y == (-1, 1, -1, 1, 0, 0, 0, 0, 1, -1, 1, -1, 0, 0)
        assert verify_certificate(triple_system(family), y)

    def test_constant_x_witness_keeps_all_three_assumptions(self):
        rng = _rng(601)  # criterion 6's draws: 100 distinct-x families, then the constant-x ones
        for _ in range(100):
            _random_family(rng, distinct_x=True, k=int(rng.integers(2, 5)))
        for _ in range(100):
            family = _random_family(rng, distinct_x=False, k=int(rng.integers(2, 5)))
            witness = check_triple(family).witness
            tables = PerSettingTables(dict.fromkeys(family.labels, witness))
            report = validate_witness(WitnessModel(INDEPENDENCE, tables), family)
            assert all(c.passed for c in report.checks), report
            assert all(r == 0 for r in residual(triple_system(family), witness.entries))

    @given(families())
    @settings(max_examples=200, deadline=None)
    def test_verdict_is_equal_x_and_agrees_with_the_simplex(self, family):
        report = check_triple(family)
        system = triple_system(family)
        assert report.feasible == (len({s.x for s in family.settings}) == 1) == lp_feasible(system).feasible
        if report.feasible:
            assert all(r == 0 for r in residual(system, report.witness.entries))
        else:
            y = report.certificate
            assert len(y) == system.num_rows
            assert verify_certificate(system, y)
            # the closed form: +-1 on the extreme pair's adequacy rows, 0 elsewhere
            xs = [s.x for s in family.settings]
            low, high = xs.index(min(xs)), xs.index(max(xs))
            expected = [0] * system.num_rows
            expected[4 * low : 4 * low + 4] = (-1, 1, -1, 1)
            expected[4 * high : 4 * high + 4] = (1, -1, 1, -1)
            assert list(y) == expected
            assert all(system.labels[r].startswith("adequacy") for r, v in enumerate(y) if v != 0)
            assert sum(v * b for v, b in zip(y, system.rhs)) == 2 * (max(xs) - min(xs))

    def test_refutes_the_first_settings_with_the_smallest_and_the_largest_x(self):
        xs = (F(1, 2), F(1), F(0), F(1, 3), F(0), F(1), F(1, 2))
        labels = ("mid", "top", "bottom", "third", "bottom_again", "top_again", "mid_again")
        family = SettingsFamily(F(1, 2), F(1, 4), tuple(Setting(lbl, x) for lbl, x in zip(labels, xs)))
        assert _extreme_pair(family) == (1, 2)
        report = check_triple(family)
        assert not report.feasible
        support = {family.settings[r // 4].label for r, y in enumerate(report.certificate[:-2]) if y != 0}
        assert support == {"top", "bottom"}
        assert "setting 'top' demands x = 1 and setting 'bottom' demands x = 0" in report.narrative
        assert all(f"[{lbl}]" not in report.narrative for lbl in labels if lbl not in ("top", "bottom"))
        assert verify_certificate(triple_system(family), report.certificate)

    def test_narrative_size_does_not_grow_with_k(self):
        k = 512
        family = SettingsFamily(F(1, 2), F(1, 4), tuple(Setting(f"s{i}", F(i + 1, k + 2)) for i in range(k)))
        report = check_triple(family)
        assert not report.feasible
        assert len(report.narrative.encode()) < 1024
        assert sum(y != 0 for y in report.certificate) <= 10

    def test_certificate_at_256_settings(self):
        family = _random_family(Generator(Philox(key=64)), distinct_x=True, k=256)
        system = triple_system(family)
        report = check_triple(family)
        assert not report.feasible
        assert system.num_rows == 4 * 256 + 2 and len(report.certificate) == system.num_rows
        assert verify_certificate(system, report.certificate)

    def test_simplex_memory_is_linear_in_k(self):
        k = 500
        settings = tuple(Setting(f"s{i}", F(i + 1, k + 2)) for i in range(k))
        system = triple_system(SettingsFamily(F(1, 2), F(1, 4), settings))
        tracemalloc.start()
        try:
            report = lp_feasible(system)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not report.feasible
        assert peak < 8 * 2**20

    def test_adequacy_alone_refutes_distinct_x(self):
        """One setting-independent table cannot meet two x values, objectivity or not."""
        rng = Generator(Philox(key=65))
        for _ in range(40):
            family = _random_family(rng, distinct_x=True, k=int(rng.integers(2, 9)))
            system = triple_system(family)
            assert all(label.startswith("objectivity") for label in system.labels[-2:])
            adequacy = LinearSystem(system.matrix[:-2], system.rhs[:-2], system.labels[:-2])
            report = lp_feasible(adequacy)
            assert not report.feasible, family
            assert verify_certificate(adequacy, report.certificate)

    def test_boundary_x_values_behave_like_any_other(self):
        boundary = SettingsFamily(F(1, 2), F(1, 4), (Setting("open", F(0)), Setting("closed", F(1))))
        report = check_triple(boundary)
        assert not report.feasible
        assert verify_certificate(triple_system(boundary), report.certificate)
        same = SettingsFamily(F(1, 2), F(1, 4), (Setting("a", F(1)), Setting("b", F(1))))
        assert check_triple(same).feasible

    def test_witnesses_accept_boundary_x(self):
        boundary = SettingsFamily(F(1, 2), F(1, 4), (Setting("open", F(0)), Setting("mid", F(1, 3))))
        for build in (model_drop_independence, model_drop_objectivity, model_drop_determinism):
            assert validate_witness(build(boundary), boundary).overall_pass, build.__name__

    def test_agrees_with_brute_force_enumeration(self):
        rng = Generator(Philox(key=63))
        for trial in range(12):
            family = _random_family(rng, distinct_x=trial % 2 == 0, k=int(rng.integers(2, 5)))
            system = triple_system(family)
            assert check_triple(family).feasible == (enumerate_basic_solutions(system) != ())

    def test_adding_a_fresh_setting_never_restores_feasibility(self):
        rng = Generator(Philox(key=62))
        for _ in range(15):
            family = _random_family(rng, distinct_x=True, k=int(rng.integers(2, 5)))
            assert not check_triple(family).feasible
            fresh_x = interior_fraction(rng)
            while any(s.x == fresh_x for s in family.settings):
                fresh_x = interior_fraction(rng)
            extended = SettingsFamily(
                family.e_p, family.e_w, family.settings + (Setting("fresh", fresh_x),)
            )
            assert not check_triple(extended).feasible


class TestWitnessMassesOnAGrid:
    """The per-setting masses that ``feasibility._marginals`` reads from two
    witnesses at k = 2, proved, not sampled, by the grid lemma (Alon,
    Combin. Probab. Comput. 8, 1999): a polynomial of degree at most d in
    each variable that vanishes on a product grid with d + 1 values per
    variable is zero.  ``_marginals`` returns integer numerators over one
    denominator D; each mass is compared as numerator/D, the exact value it
    stands for.  The grid proves the identities only under the degree bound
    each test states; the point off the grid is evidence against a wrong
    bound, not part of the proof."""

    GRID = list(itertools.product((F(1, 3), F(3, 4)), (F(0), F(2, 5)), (F(1, 4), F(2, 3)), (F(1, 6), F(1))))
    OFF_GRID = (F(2, 9), F(7, 11), F(3, 13), F(5, 17))

    @staticmethod
    def masses(build, x1, x2, e_p, e_w):
        family = SettingsFamily(e_p, e_w, (Setting("one", x1), Setting("two", x2)))
        scale, joints, masses, _, _ = feasibility._marginals(build(family).payload, family)
        return tuple([tuple(F(n, scale) for n in row) for row in rows] for rows in (masses, joints))

    def test_drop_independence_places_each_setting_joint(self):
        """Degree <= 1 in each of x1, x2, e_p and e_w: ``dist._joints_at``
        forms each joint entry as x or 1 - x times e_p, 1 - e_p, e_w or
        1 - e_w, ``family._special_table`` places the entries, and
        ``_marginals`` only scales them to one denominator.  So 2 values per
        variable, 16 families, suffice."""
        for x1, x2, e_p, e_w in [*self.GRID, self.OFF_GRID]:
            masses, joints = self.masses(model_drop_independence, x1, x2, e_p, e_w)
            for x, cells, joint in zip((x1, x2), masses, joints):
                zero = F(0)
                assert cells == (x * e_p, zero, x * (1 - e_p), zero, zero, (1 - x) * e_w, zero, (1 - x) * (1 - e_w))
                assert joint == (x * e_p, (1 - x) * e_w, x * (1 - e_p), (1 - x) * (1 - e_w))

    def test_drop_determinism_halves_each_setting_joint(self):
        """Degree <= 1 in each of x1, x2, e_p and e_w:
        ``model_drop_determinism`` halves each entry of the joint that
        ``dist._joints_at`` forms, x or 1 - x times e_p, 1 - e_p, e_w or
        1 - e_w, and places the halves under both labels; ``_marginals``
        only scales them to one denominator, and each setting reads its own
        x only.  So 2 values per variable, 16 families, suffice."""
        half = F(1, 2)
        for x1, x2, e_p, e_w in [*self.GRID, self.OFF_GRID]:
            masses, joints = self.masses(model_drop_determinism, x1, x2, e_p, e_w)
            for x, cells, joint in zip((x1, x2), masses, joints):
                label = tuple(half * v for v in (x * e_p, (1 - x) * e_w, x * (1 - e_p), (1 - x) * (1 - e_w)))
                assert cells == label + label  # the p atom's cells, then the w atom's
                assert joint == (x * e_p, (1 - x) * e_w, x * (1 - e_p), (1 - x) * (1 - e_w))


class TestTripleSystem:
    @pytest.mark.parametrize("x,e_p,e_w", [
        (F(1, 3), F(1, 2), F(1, 4)),
        (F(0), F(1, 2), F(1, 4)),
        (F(1), F(0), F(1)),
        (F(1, 3), F(1), F(0)),
        (F(0), F(0), F(0)),
        (F(1), F(1), F(1)),
    ])
    def test_one_setting_is_the_constraint_system(self, x, e_p, e_w):
        system = triple_system(SettingsFamily(e_p, e_w, (Setting("only", x),)))
        single = constraint_system(GeneralParams(x, e_p, e_w))
        assert system.matrix == single.matrix
        assert system.rhs == single.rhs
        assert system.labels == tuple(label.replace("adequacy", "adequacy[only]", 1) for label in single.labels)
        assert sum(label.startswith("adequacy[only](") for label in system.labels) == 4


class TestDropIndependence:
    def test_tables_are_per_setting_special_solutions(self):
        model = model_drop_independence(TWO_SETTINGS)
        tables = model.payload.tables
        assert tables["alpha1"].entries == special_solution(GeneralParams(F(1, 3), F(1, 2), F(1, 4))).entries
        assert lambda_marginal(tables["alpha1"]).as_tuple() == (F(1, 3), F(2, 3))
        assert lambda_marginal(tables["alpha2"]).as_tuple() == (F(2, 3), F(1, 3))

    def test_validates(self):
        report = validate_witness(model_drop_independence(TWO_SETTINGS), TWO_SETTINGS)
        assert report.overall_pass
        assert report.check("adequacy").passed
        assert report.check("determinism").passed
        assert report.check("objectivity").passed
        # the dropped assumption really is violated: the label depends on the setting
        assert not report.check("independence").passed
        assert not report.check("independence").retained

    def test_tables_are_placed_from_the_kept_joints(self, monkeypatch):
        family = SettingsFamily(FIVE_SETTINGS.e_p, FIVE_SETTINGS.e_w, FIVE_SETTINGS.settings)
        joints = family.joints
        built = _count_joints(monkeypatch)
        model = model_drop_independence(family)
        assert built == [] and family.joints is joints
        assert validate_witness(model, family).overall_pass

    def test_single_setting_reduces_to_the_special_solution(self):
        family = SettingsFamily(F(1, 2), F(1, 4), (Setting("only", F(1, 3)),))
        model = model_drop_independence(family)
        assert model.payload.tables["only"].entries == special_solution(GeneralParams(F(1, 3), F(1, 2), F(1, 4))).entries

    def test_swapped_labels_fail_objectivity(self):
        model = model_drop_independence(TWO_SETTINGS)
        swapped = {
            label: OnticTable(table.entries[4:] + table.entries[:4])
            for label, table in model.payload.tables.items()
        }
        corrupted = WitnessModel(INDEPENDENCE, PerSettingTables(swapped))
        report = validate_witness(corrupted, TWO_SETTINGS)
        assert report.check("adequacy").passed  # the observed joint is label-blind
        objectivity = report.check("objectivity")
        assert not objectivity.passed
        assert "revelation" in objectivity.detail
        assert not report.overall_pass

    def test_outcome_seen_only_with_the_other_label_fails_objectivity(self):
        # b=0 carries mass 1/4 + 1/4 under w and none under p: equal a masses,
        # so a check that lets the two w cells cancel would skip the outcome
        family = SettingsFamily(F(1, 2), F(1, 2), (Setting("only", F(1, 2)),))
        table = OnticTable((0, 0, 0, 0, F(1, 4), F(1, 4), F(1, 4), F(1, 4)))
        report = validate_witness(WitnessModel(INDEPENDENCE, PerSettingTables({"only": table})), family)
        assert report.check("adequacy").passed
        objectivity = report.check("objectivity")
        assert not objectivity.passed
        assert "outcome b=0 occurs but never with label 'p'" in objectivity.detail

    def test_a_failing_detail_too_long_to_print_is_returned(self):
        # x*e_p = 1/10^5000 in setting "a": the swapped tables fail adequacy, and
        # the failing detail shows that number by the reason it cannot be printed
        tiny = F(1, 10**2500)
        family = SettingsFamily(tiny, F(1, 3), (Setting("a", tiny), Setting("b", F(1, 2))))
        tables = model_drop_independence(family).payload.tables
        swapped = WitnessModel(INDEPENDENCE, PerSettingTables({"a": tables["b"], "b": tables["a"]}))
        report = validate_witness(swapped, family)
        adequacy = report.check("adequacy")
        assert not adequacy.passed and not report.overall_pass
        assert adequacy.detail == (
            f"setting 'a': model gives p(a=0,b=0) = 1/{2 * 10**2500}, "
            "observed (an exact result needs more than 4300 digits to print)"
        )

    def test_independence_detail_names_only_the_label_marginal(self):
        # half of each setting's joint under each label: p(lam=p) = 1/2 in both
        # settings although the two tables differ in every cell
        tables = dict(zip(TWO_SETTINGS.labels, (OnticTable(_half_and_half(joint)) for joint in TWO_SETTINGS.joints)))
        report = validate_witness(WitnessModel(INDEPENDENCE, PerSettingTables(tables)), TWO_SETTINGS)
        independence = report.check("independence")
        assert independence.passed
        assert independence.detail == "label marginal p(lam=p) is the same in every setting"

    def test_half_of_each_joint_under_each_label_fails_determinism(self):
        # the same tables pass adequacy, independence and objectivity, and
        # check_triple refutes the family: determinism is what tells them apart
        tables = dict(zip(TWO_SETTINGS.labels, (OnticTable(_half_and_half(joint)) for joint in TWO_SETTINGS.joints)))
        report = validate_witness(WitnessModel(INDEPENDENCE, PerSettingTables(tables)), TWO_SETTINGS)
        assert [c.name for c in report.checks if c.passed] == ["adequacy", "independence", "objectivity"]
        determinism = report.check("determinism")
        assert (determinism.retained, determinism.passed) == (True, False)
        assert determinism.detail == "setting 'alpha1': p(a=0,b=1,lam=p) = 1/12; label 'p' must fix b=0"
        assert not report.overall_pass
        assert not check_triple(TWO_SETTINGS).feasible

    @given(families(), PROBABILITIES)
    @settings(max_examples=150, deadline=None)
    def test_tables_pass_every_check_only_where_check_triple_is_feasible(self, family, t):
        # each setting's table is t * special + (1 - t) * half: t = 0 is the half-and-half payload
        tables = {}
        for label, joint in zip(family.labels, family.joints):
            e00, e01, e10, e11 = joint.entries
            special = (e00, 0, e10, 0, 0, e01, 0, e11)
            tables[label] = OnticTable(tuple(t * u + (1 - t) * v for u, v in zip(special, _half_and_half(joint))))
        report = validate_witness(WitnessModel(INDEPENDENCE, PerSettingTables(tables)), family)
        if all(c.passed for c in report.checks):
            assert check_triple(family).feasible


class TestDropObjectivity:
    def test_atom_model_from_lists_validates_like_tuples(self):
        payload = model_drop_objectivity(TWO_SETTINGS).payload
        from_lists = OutcomeAtomModel(list(TWO_SETTINGS.labels), list(payload.atoms))
        assert from_lists == payload
        report = validate_witness(WitnessModel(OBJECTIVITY, from_lists), TWO_SETTINGS)
        assert report.overall_pass
        assert report == validate_witness(WitnessModel(OBJECTIVITY, payload), TWO_SETTINGS)

    def test_single_setting_atoms_are_the_outcomes(self):
        family = SettingsFamily(F(1, 2), F(1, 4), (Setting("only", F(1, 3)),))
        model = model_drop_objectivity(family)
        weights = [atom.weight for atom in model.payload.atoms]
        assert weights == [F(1, 6), F(1, 6), F(1, 6), F(1, 2)]

    def test_two_setting_atoms_are_the_quantile_intervals(self):
        # cumulatives 1/6, 1/3, 1/2, 1 (x = 1/3) and 1/3, 5/12, 3/4, 1 (x = 2/3)
        model = model_drop_objectivity(TWO_SETTINGS)
        atoms = [(atom.assignments, atom.weight) for atom in model.payload.atoms]
        assert atoms == [
            (((0, 0), (0, 0)), F(1, 6)),
            (((0, 1), (0, 0)), F(1, 6)),
            (((1, 0), (0, 1)), F(1, 12)),
            (((1, 0), (1, 0)), F(1, 12)),
            (((1, 1), (1, 0)), F(1, 4)),
            (((1, 1), (1, 1)), F(1, 4)),
        ]

    def test_marginals_reproduce_each_setting(self):
        model = model_drop_objectivity(TWO_SETTINGS)
        for i, want in enumerate(TWO_SETTINGS.joints):
            for a in (0, 1):
                for b in (0, 1):
                    got = sum(
                        atom.weight for atom in model.payload.atoms if atom.assignments[i] == (a, b)
                    )
                    assert got == want.entry(a, b)

    def test_validates(self):
        report = validate_witness(model_drop_objectivity(TWO_SETTINGS), TWO_SETTINGS)
        assert report.overall_pass
        assert not report.check("objectivity").passed
        assert not report.check("objectivity").retained

    @given(
        st.lists(PROBABILITIES, min_size=1, max_size=64),
        PROBABILITIES,
        PROBABILITIES,
    )
    @settings(max_examples=60, deadline=None)
    def test_quantile_coupling_over_random_families(self, xs, e_p, e_w):
        family = SettingsFamily(e_p, e_w, tuple(Setting(f"s{i}", x) for i, x in enumerate(xs)))
        model = model_drop_objectivity(family)
        weights = [atom.weight for atom in model.payload.atoms]
        assert len(weights) <= 3 * len(xs) + 1
        assert all(w > 0 for w in weights)
        assert sum(weights) == 1
        assert validate_witness(model, family).overall_pass

    def test_sixty_four_settings(self):
        rng = Generator(Philox(key=64))
        family = _random_family(rng, distinct_x=True, k=64)
        model = model_drop_objectivity(family)
        assert len(model.payload.atoms) <= 3 * 64 + 1
        assert validate_witness(model, family).overall_pass

    def test_any_atom_order_sums_like_the_atoms_one_by_one(self):
        rng = random.Random(1406)
        family = _random_family(Generator(Philox(key=66)), distinct_x=True, k=12)
        atoms = list(model_drop_objectivity(family).payload.atoms)
        for trial in range(6):
            rng.shuffle(atoms)
            if trial % 2:  # break adequacy too, so that the report names a setting and a cell
                n = rng.randrange(len(atoms))
                atoms[n] = OutcomeAtom(atoms[n].assignments, atoms[n].weight / 2)
            payload = OutcomeAtomModel(family.labels, tuple(atoms))
            reference = []
            for i in range(len(family.settings)):
                cells = dict.fromkeys(((0, 0), (0, 1), (1, 0), (1, 1)), F(0))
                for atom in payload.atoms:
                    cells[atom.assignments[i]] += atom.weight
                reference.append(tuple(cells.values()))
            report = validate_witness(WitnessModel(OBJECTIVITY, payload), family)
            scale, joints, masses, *_ = feasibility._marginals(payload, family)
            assert ([tuple(F(n, scale) for n in joint) for joint in joints], masses) == (reference, None)
            adequacy = report.check("adequacy")
            assert (adequacy.passed, adequacy.detail) == reference_adequacy_check(family, reference)

    def test_zeroed_weights_fail_adequacy(self):
        model = model_drop_objectivity(TWO_SETTINGS)
        zeroed = OutcomeAtomModel(
            model.payload.setting_labels,
            tuple(OutcomeAtom(atom.assignments, F(0)) for atom in model.payload.atoms),
        )
        report = validate_witness(WitnessModel(OBJECTIVITY, zeroed), TWO_SETTINGS)
        assert not report.check("adequacy").passed
        assert not report.overall_pass


class TestDropDeterminism:
    def test_validates(self):
        report = validate_witness(model_drop_determinism(TWO_SETTINGS), TWO_SETTINGS)
        assert report.overall_pass
        assert report.check("objectivity").passed
        assert report.check("independence").passed

    def test_neither_label_fixes_b(self):
        report = validate_witness(model_drop_determinism(TWO_SETTINGS), TWO_SETTINGS)
        determinism = report.check("determinism")
        assert not determinism.retained
        assert not determinism.passed
        assert determinism.detail == "setting 'alpha1': p(a=0,b=1,lam=p) = 1/12; label 'p' must fix b=0"


#: The four cells, as (a, b, lam), where the label does not fix b, in the order the validator scans them.
CROSSED_CELLS = ((0, 1, "p"), (1, 1, "p"), (0, 0, "w"), (1, 0, "w"))

#: The four cells where it does: label p at b=0, label w at b=1.
KEPT_CELLS = ((0, 0, "p"), (1, 0, "p"), (0, 1, "w"), (1, 1, "w"))


def _cell_id(cell) -> str:
    a, b, lam = cell
    return f"{a}{b}{lam}"


class TestTableDeterminism:
    """Tables keep determinism exactly when no crossed cell holds mass, in every setting."""

    @pytest.mark.parametrize("index", range(len(FIVE_SETTINGS.labels)), ids=FIVE_SETTINGS.labels)
    @pytest.mark.parametrize("cell", CROSSED_CELLS, ids=_cell_id)
    def test_mass_in_one_crossed_cell_fails_determinism(self, cell, index):
        # half of the (a, b) mass moves to the other label, so the joint is unchanged
        a, b, lam = cell
        label = FIVE_SETTINGS.labels[index]
        tables = dict(model_drop_independence(FIVE_SETTINGS).payload.tables)
        entries = list(tables[label].entries)
        crossed = feasibility.cell_index(a, b, lam)
        moved = entries[crossed ^ 4] / 2
        assert moved > 0
        entries[crossed ^ 4] -= moved
        entries[crossed] += moved
        tables[label] = OnticTable(tuple(entries))
        model = WitnessModel(INDEPENDENCE, PerSettingTables(tables))
        report = validate_witness(model, FIVE_SETTINGS)
        assert report.check("adequacy").passed
        determinism = report.check("determinism")
        assert (determinism.retained, determinism.passed) == (True, False)
        assert determinism.detail == (
            f"setting {label!r}: p(a={a},b={b},lam={lam}) = {moved}; label {lam!r} must fix b={1 - b}"
        )
        assert (determinism.passed, determinism.detail) == reference_determinism_check(model.payload, FIVE_SETTINGS)
        assert not report.overall_pass

    @pytest.mark.parametrize("cell", KEPT_CELLS, ids=_cell_id)
    def test_all_mass_in_one_kept_cell_keeps_determinism(self, cell):
        entries = [F(0)] * 8
        entries[feasibility.cell_index(*cell)] = F(1)
        family = SettingsFamily(F(1, 2), F(1, 4), (Setting("only", F(1, 3)),))
        model = WitnessModel(INDEPENDENCE, PerSettingTables({"only": OnticTable(tuple(entries))}))
        determinism = validate_witness(model, family).check("determinism")
        assert determinism.passed
        assert determinism.detail == "in every setting label 'p' fixes b=0 and label 'w' fixes b=1"

    @pytest.mark.parametrize("first", range(len(CROSSED_CELLS)), ids=[_cell_id(c) for c in CROSSED_CELLS])
    def test_the_first_crossed_cell_in_scan_order_is_named(self, first):
        # the named cell and every later one share the mass equally, in every setting
        family = SettingsFamily(F(1, 2), F(1, 4), (Setting("s0", F(1, 3)), Setting("s1", F(2, 3))))
        share = F(1, len(CROSSED_CELLS) - first)
        entries = [F(0)] * 8
        for cell in CROSSED_CELLS[first:]:
            entries[feasibility.cell_index(*cell)] = share
        table = OnticTable(tuple(entries))
        model = WitnessModel(INDEPENDENCE, PerSettingTables({"s1": table, "s0": table}))
        determinism = validate_witness(model, family).check("determinism")
        a, b, lam = CROSSED_CELLS[first]
        assert not determinism.passed
        assert determinism.detail == (
            f"setting 's0': p(a={a},b={b},lam={lam}) = {share}; label {lam!r} must fix b={1 - b}"
        )


class TestWitnessValidationAcrossFamilies:
    def test_all_three_witnesses_validate(self):
        rng = Generator(Philox(key=71))
        for _ in range(15):
            family = _random_family(rng, distinct_x=True, k=int(rng.integers(1, 4)))
            for build in (model_drop_independence, model_drop_objectivity, model_drop_determinism):
                assert validate_witness(build(family), family).overall_pass, build.__name__

    def test_sixty_four_distinct_interior_settings(self):
        k = 64
        family = SettingsFamily(F(1, 2), F(1, 4), tuple(Setting(f"s{i}", F(i + 1, k + 1)) for i in range(k)))
        for build, dropped in zip(BUILDERS, ("independence", "objectivity", "determinism")):
            model = build(family)
            report = validate_witness(model, family)
            assert report.overall_pass, build.__name__
            assert not report.check(dropped).retained and not report.check(dropped).passed, build.__name__
        assert len(model_drop_objectivity(family).payload.atoms) <= 3 * k + 1

    def test_each_mode_refuses_the_wrong_payload_type(self):
        tables = model_drop_independence(TWO_SETTINGS).payload
        atoms = model_drop_objectivity(TWO_SETTINGS).payload
        for mode, wrong, carried in (
            (WitnessMode.DROP_INDEPENDENCE, atoms, "PerSettingTables"),
            (WitnessMode.DROP_DETERMINISM, atoms, "PerSettingTables"),
            (WitnessMode.DROP_OBJECTIVITY, tables, "OutcomeAtomModel"),
            (WitnessMode.DROP_INDEPENDENCE, tables.tables, "PerSettingTables"),
        ):
            with pytest.raises(TypeError) as info:
                WitnessModel(mode, wrong)
            assert str(info.value) == f"a {mode.value} witness carries a {carried}, got {type(wrong).__name__}"
        with pytest.raises(TypeError) as info:
            WitnessModel("DropIndependence", tables)
        assert str(info.value) == "witness mode must be a WitnessMode, got str"
        for build, mode in zip(BUILDERS, WitnessMode):
            assert build(TWO_SETTINGS).mode is mode

    def test_label_mismatch(self):
        other = SettingsFamily(F(1, 2), F(1, 4), (Setting("zeta", F(1, 3)),))
        model = model_drop_independence(TWO_SETTINGS)
        with pytest.raises(MalformedModel):
            validate_witness(model, other)


def per_atom_joint(payload, i: int, label: str) -> tuple[Fraction, ...]:
    """Setting i's (a, b) joint, in 00, 01, 10, 11 order, summed one atom at a time."""
    cells = dict.fromkeys(((0, 0), (0, 1), (1, 0), (1, 1)), F(0))
    if isinstance(payload, PerSettingTables):
        table = payload.tables[label]
        for a, b in cells:  # each cell of a table is one deterministic atom
            cells[(a, b)] += table.mass(a, b, "p") + table.mass(a, b, "w")
    else:
        for atom in payload.atoms:
            cells[atom.assignments[i]] += atom.weight
    return tuple(cells.values())


# ---------------------------------------------------------------------------
# Reference validator: the witness checks in plain Fraction arithmetic,
# summed atom by atom, with no common denominator.  validate_witness works
# in integers over one denominator and must match it tuple for tuple.
# ---------------------------------------------------------------------------

_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def reference_marginals(payload, family):
    """Each setting's (a, b) joint and, for tables, its eight masses, as Fractions."""
    labels = family.labels
    if isinstance(payload, OutcomeAtomModel):
        joints = []
        for i in range(len(labels)):
            cells = dict.fromkeys(_PAIRS, F(0))
            for atom in payload.atoms:
                cells[atom.assignments[i]] += atom.weight
            joints.append(tuple(cells.values()))
        return joints, None
    masses = [payload.tables[label].entries for label in labels]
    return [tuple(m[i] + m[i + 4] for i in range(4)) for m in masses], masses


def reference_adequacy_check(family, model_joints):
    for s, joint, got in zip(family.settings, family.joints, model_joints):
        for (a, b), w, g in zip(_PAIRS, joint.entries, got):
            if g != w:
                return False, f"setting {s.label!r}: model gives p(a={a},b={b}) = {g}, observed {w}"
    return True, "every setting's joint reproduced exactly"


def reference_objectivity_check(family, masses):
    if masses is None:
        return False, "model carries no wave/particle labels"
    cell = feasibility.cell_index
    for s, m in zip(family.settings, masses):
        for b, lam, other, e_target, constraint in (
            (0, "p", "w", family.e_p, "p-statistics revelation at b=0"),
            (1, "w", "p", family.e_w, "w-statistics revelation at b=1"),
        ):
            i0, i1, j0, j1 = (cell(a, b, l) for l in (lam, other) for a in (0, 1))
            match_mass = m[i0] + m[i1]
            if match_mass + m[j0] + m[j1] == 0:
                continue
            if match_mass == 0:
                return False, (
                    f"setting {s.label!r}: outcome b={b} occurs but never with label {lam!r}; "
                    f"{constraint} cannot hold"
                )
            if m[i0] * (1 - e_target) != m[i1] * e_target:
                got = m[i0] / match_mass
                return False, (
                    f"setting {s.label!r}: {constraint} fails; p(a=0|b={b},lam={lam}) = {got}, expected {e_target}"
                )
    return True, "each label reveals its matching statistics in its matching outcome"


def reference_determinism_check(payload, family):
    """The label fixes b: in every setting, label p has no mass at b=1 and label w none at b=0."""
    if isinstance(payload, OutcomeAtomModel):
        return True, "all probability mass sits on atoms with pinned outcomes"
    fixed_b = {"p": 0, "w": 1}
    for label in family.labels:
        table = payload.tables[label]
        for lam in ("p", "w"):
            for a in (0, 1):
                for b in (0, 1):
                    mass = table.mass(a, b, lam)
                    if b != fixed_b[lam] and mass != 0:
                        return False, (
                            f"setting {label!r}: p(a={a},b={b},lam={lam}) = {mass}; "
                            f"label {lam!r} must fix b={fixed_b[lam]}"
                        )
    return True, "in every setting label 'p' fixes b=0 and label 'w' fixes b=1"


def reference_independence_check(payload, family, masses):
    if isinstance(payload, PerSettingTables):
        marginals = {label: sum(m[:4]) for label, m in zip(family.labels, masses)}
        if len(set(marginals.values())) > 1:
            listing = ", ".join(f"{lbl}: {v}" for lbl, v in marginals.items())
            return False, f"label marginal p(lam=p) depends on the setting ({listing})"
        return True, "label marginal p(lam=p) is the same in every setting"
    total = sum(atom.weight for atom in payload.atoms)
    if total != 1:
        return False, f"atom weights sum to {total}, not a probability distribution"
    return True, "one fixed atom-weight vector serves every setting"


def reference_validate(model, family):
    """The ``(name, retained, passed, detail)`` tuple of each check, in report order."""
    payload = model.payload
    joints, masses = reference_marginals(payload, family)
    dropped = model.mode.value.removeprefix("Drop").lower()
    results = (
        ("adequacy", reference_adequacy_check(family, joints)),
        ("determinism", reference_determinism_check(payload, family)),
        ("independence", reference_independence_check(payload, family, masses)),
        ("objectivity", reference_objectivity_check(family, masses)),
    )
    return tuple((name, name != dropped, *r) for name, r in results)


CORRUPTIONS = ("none", "halved weight", "zeroed cell", "mass to the other label", "weights not summing to 1")


def corrupt(payload, kind, rnd):
    """``payload`` with its atoms or tables shuffled and one ``kind`` of fault put in at a random place.

    A table must still sum to 1, so a table's halved or zeroed cell hands
    its mass to another cell, and "weights not summing to 1" leaves tables
    as they are.  An :class:`OutcomeAtomModel` carries no label, so there
    "mass to the other label" moves an atom to another outcome pair of one
    setting.
    """
    if isinstance(payload, PerSettingTables):
        tables = dict(payload.tables)
        if kind in ("halved weight", "zeroed cell", "mass to the other label"):
            label = rnd.choice(sorted(tables))
            entries = list(tables[label].entries)
            j = rnd.randrange(8)
            moved = entries[j] / 2 if kind == "halved weight" else entries[j]
            target = j ^ 4 if kind == "mass to the other label" else rnd.choice([i for i in range(8) if i != j])
            entries[j] -= moved
            entries[target] += moved
            tables[label] = OnticTable(tuple(entries))
        items = list(tables.items())
        rnd.shuffle(items)
        return PerSettingTables(dict(items))
    atoms = list(payload.atoms)
    n = rnd.randrange(len(atoms))
    atom = atoms[n]
    if kind == "halved weight":
        atoms[n] = dataclasses.replace(atom, weight=atom.weight / 2)
    elif kind == "weights not summing to 1":
        atoms[n] = dataclasses.replace(atom, weight=1 - atom.weight / 3)
    elif kind == "zeroed cell":
        atoms[n] = OutcomeAtom(atom.assignments, F(0))
    elif kind == "mass to the other label":
        i = rnd.randrange(len(atom.assignments))
        assignments = list(atom.assignments)
        assignments[i] = rnd.choice([pair for pair in _PAIRS if pair != assignments[i]])
        atoms[n] = OutcomeAtom(tuple(assignments), atom.weight)
    rnd.shuffle(atoms)
    return dataclasses.replace(payload, atoms=tuple(atoms))


def report_tuples(report):
    return tuple((c.name, c.retained, c.passed, c.detail) for c in report.checks)


class TestAgainstTheReferenceValidator:
    @given(families(), st.sampled_from(BUILDERS), st.sampled_from(CORRUPTIONS), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_every_check_and_detail_matches(self, family, build, kind, rnd):
        honest = build(family)
        model = WitnessModel(honest.mode, corrupt(honest.payload, kind, rnd))
        assert report_tuples(validate_witness(model, family)) == reference_validate(model, family)

    @pytest.mark.parametrize("build", BUILDERS)
    @pytest.mark.parametrize("kind", CORRUPTIONS)
    def test_each_fault_on_a_fixed_family(self, build, kind):
        rnd = random.Random(2201)
        for _ in range(10):
            honest = build(FIVE_SETTINGS)
            model = WitnessModel(honest.mode, corrupt(honest.payload, kind, rnd))
            assert report_tuples(validate_witness(model, FIVE_SETTINGS)) == reference_validate(model, FIVE_SETTINGS)

    def test_honest_witnesses_at_sixty_four_settings(self):
        family = _random_family(Generator(Philox(key=2202)), distinct_x=True, k=64)
        for build in BUILDERS:
            model = build(family)
            assert report_tuples(validate_witness(model, family)) == reference_validate(model, family)


class TestMarginals:
    @given(families(), st.sampled_from(BUILDERS), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_joints_and_label_marginals_match_the_atoms_one_by_one(self, family, build, rnd):
        payload = build(family).payload
        if isinstance(payload, PerSettingTables):
            items = list(payload.tables.items())
            rnd.shuffle(items)
            payload = PerSettingTables(dict(items))
        else:
            atoms = list(payload.atoms)
            rnd.shuffle(atoms)
            payload = dataclasses.replace(payload, atoms=tuple(atoms))
        scale, joints, masses, *_ = feasibility._marginals(payload, family)
        assert [tuple(F(n, scale) for n in joint) for joint in joints] == [
            per_atom_joint(payload, i, label) for i, label in enumerate(family.labels)
        ]
        assert (masses is None) == isinstance(payload, OutcomeAtomModel)
        if isinstance(payload, PerSettingTables):
            for label, m in zip(family.labels, masses):
                assert F(sum(m[:4]), scale) == lambda_marginal(payload.tables[label]).p0


class TestMalformedWitness:
    """Each structural mismatch raises its own message, and the first fault found is the one named."""

    @staticmethod
    def message(model, family) -> str:
        with pytest.raises(MalformedModel) as info:
            validate_witness(model, family)
        return str(info.value)

    def test_table_keys(self):
        other = SettingsFamily(F(1, 2), F(1, 4), (Setting("zeta", F(1, 3)),))
        assert self.message(model_drop_independence(TWO_SETTINGS), other) == (
            "per-setting tables keyed by ['alpha1', 'alpha2'], family has ['zeta']"
        )

    def test_atom_model_order_is_checked_before_assignment_length(self):
        atoms = model_drop_objectivity(TWO_SETTINGS).payload.atoms
        short = OutcomeAtom(atoms[0].assignments[:1], atoms[0].weight)
        payload = OutcomeAtomModel(("alpha2", "alpha1"), (short, *atoms[1:]))
        assert self.message(WitnessModel(OBJECTIVITY, payload), TWO_SETTINGS) == (
            "atom model ordered by ['alpha2', 'alpha1'], family has ['alpha1', 'alpha2']"
        )

    def test_assignment_length_of_the_first_faulty_atom(self):
        atoms = model_drop_objectivity(TWO_SETTINGS).payload.atoms
        short = OutcomeAtom(atoms[1].assignments[:1], atoms[1].weight)
        long = OutcomeAtom(atoms[2].assignments * 2, atoms[2].weight)
        payload = OutcomeAtomModel(TWO_SETTINGS.labels, (atoms[0], short, long, *atoms[3:]))
        message = self.message(WitnessModel(OBJECTIVITY, payload), TWO_SETTINGS)
        assert message == "atom assigns 1 outcomes for 2 settings"


class TestWitnessParts:
    """A witness payload refuses a part of the wrong kind when it is built, and a report an unknown check."""

    @pytest.mark.parametrize("build,error,message", [
        (lambda: PerSettingTables({"a": TWO_SETTINGS.joints[0]}), TypeError,
         "table for setting 'a' must be an OnticTable"),
    ], ids=["table_not_an_ontic_table"])
    def test_a_part_of_the_wrong_kind(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message

    def test_an_unknown_check_is_a_key_error(self):
        report = validate_witness(model_drop_independence(TWO_SETTINGS), TWO_SETTINGS)
        with pytest.raises(KeyError) as info:
            report.check("honesty")
        assert info.value.args == ("honesty",)


class TestSharedWork:
    def test_each_joint_is_built_once_per_family(self, monkeypatch):
        # a new family, so that no earlier test has asked for its joints
        family = SettingsFamily(FIVE_SETTINGS.e_p, FIVE_SETTINGS.e_w, FIVE_SETTINGS.settings)
        built = _count_joints(monkeypatch)
        models = [build(family) for build in BUILDERS]
        for model in models:
            assert validate_witness(model, family).overall_pass
        assert built == [5]  # one call of the formula, one joint per setting
        # the stacked system reads its right-hand sides from the kept joints
        check_triple(family)
        triple_system(family)
        assert built == [5]

    def test_a_family_builds_its_joints_without_params(self, monkeypatch):
        family = SettingsFamily(F(1, 2), F(1, 4), tuple(Setting(f"s{i}", F(i, 63)) for i in range(64)))
        original, params = GeneralParams.__post_init__, []

        def counted(self):
            params.append(self)
            original(self)

        monkeypatch.setattr(GeneralParams, "__post_init__", counted)
        assert len(family.joints) == 64
        assert params == []
        assert family.joints[63].entries == (F(1, 2), F(0), F(1, 2), F(0))

    @pytest.mark.parametrize("distinct", [True, False], ids=["distinct_x", "equal_x"])
    def test_check_triple_builds_no_joint_and_runs_no_solver(self, monkeypatch, distinct):
        k = 2_000
        xs = [F(i + 1, k + 2) if distinct else F(1, 3) for i in range(k)]
        family = SettingsFamily(F(1, 2), F(1, 4), tuple(Setting(f"s{i}", x) for i, x in enumerate(xs)))
        built = _count_joints(monkeypatch)

        def unreachable(system):
            raise AssertionError("check_triple reached the simplex")

        monkeypatch.setattr(exactlp, "lp_feasible", unreachable)
        report = check_triple(family)
        assert report.feasible is not distinct
        assert built == ([] if distinct else [1])  # equal x: the witness places the one joint of that x
        assert "joints" not in family.__dict__
        system = triple_system(family)
        if distinct:
            assert verify_certificate(system, report.certificate)
        else:
            assert all(r == 0 for r in residual(system, report.witness.entries))

    @pytest.mark.parametrize("build", BUILDERS)
    def test_the_payload_is_read_once_per_validation(self, monkeypatch, build):
        model = build(FIVE_SETTINGS)
        calls = _count_calls(monkeypatch, "_marginals")
        validate_witness(model, FIVE_SETTINGS)
        assert len(calls) == 1
        validate_witness(model, FIVE_SETTINGS)
        assert len(calls) == 2

    @pytest.mark.parametrize("build, expected", zip(BUILDERS, (1, 1, 1)), ids=[b.__name__ for b in BUILDERS])
    def test_each_common_denominator_is_found_once(self, monkeypatch, build, expected):
        # one over all tables, or over the atom weights; none to sum the weights again
        model = build(FIVE_SETTINGS)
        assert len(FIVE_SETTINGS.joints) == 5  # built before counting
        original, calls = dist._common_denominator, []

        def counted(values):
            calls.append(values)
            return original(values)

        monkeypatch.setattr(dist, "_common_denominator", counted)
        monkeypatch.setattr(feasibility, "_common_denominator", counted)
        validate_witness(model, FIVE_SETTINGS)
        assert len(calls) == expected

    def test_the_lcm_is_taken_over_distinct_denominators(self, monkeypatch):
        # the 40 cells of the five tables have only the denominators 28, 14, 56 and 7
        model = model_drop_determinism(FIVE_SETTINGS)
        assert len(FIVE_SETTINGS.joints) == 5  # built before counting
        original, calls = dist.math.lcm, []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(dist.math, "lcm", counted)
        assert validate_witness(model, FIVE_SETTINGS).overall_pass
        assert [sorted(args) for args in calls] == [[7, 14, 28, 56]]

    def test_cached_joints_are_invisible(self):
        family = SettingsFamily(F(1, 2), F(1, 4), FIVE_SETTINGS.settings)
        fresh = SettingsFamily(F(1, 2), F(1, 4), FIVE_SETTINGS.settings)
        before = repr(family)
        assert len(family.joints) == len(family.settings)
        assert family == fresh and hash(family) == hash(fresh)
        assert repr(family) == before == repr(fresh)
        moved = dataclasses.replace(family, e_p=F(1, 3))
        for i, s in enumerate(family.settings):
            assert moved.joints[i].entry(0, 0) == s.x * F(1, 3)
            assert family.joints[i].entry(0, 0) == s.x * F(1, 2)


class TestSettingsFamilyChecks:
    def test_float_probabilities_rejected(self):
        with pytest.raises(TypeError):
            Setting("a", 0.5)
        with pytest.raises(TypeError):
            SettingsFamily(0.5, F(1, 4), (Setting("a", F(1, 3)),))

    def test_a_non_setting_is_rejected_by_index(self):
        with pytest.raises(TypeError, match=r"settings\[1\]"):
            SettingsFamily(F(1, 2), F(1, 4), (Setting("a", F(1, 3)), ("b", F(1, 3))))

    def test_a_family_needs_a_setting(self):
        with pytest.raises(ValueError, match="^a settings family needs at least one setting$"):
            SettingsFamily(F(1, 2), F(1, 4), ())
