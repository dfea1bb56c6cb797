"""Triple check, certificates, and the three pairwise witness models."""

import dataclasses
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from hvnogo import (
    GeneralParams,
    LinearSystem,
    MalformedInput,
    MalformedModel,
    OnticTable,
    Setting,
    SettingsFamily,
    WitnessMode,
    WitnessModel,
    brute_force_feasible,
    check_triple,
    lambda_marginal,
    lp_feasible,
    model_drop_determinism,
    model_drop_independence,
    model_drop_objectivity,
    residual,
    special_solution,
    to_json,
    triple_system,
    validate_witness,
    verify_certificate,
)
from hvnogo import feasibility
from hvnogo.acceptance import _interior_fraction as interior_fraction
from hvnogo.acceptance import _random_family
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


def _count_calls(monkeypatch, name: str) -> list:
    """Wrap ``hvnogo.feasibility.<name>`` so that each call appends to the returned list."""
    original = getattr(feasibility, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(feasibility, name, counted)
    return calls


class TestCheckTriple:
    def test_two_distinct_settings_are_infeasible(self):
        report = check_triple(TWO_SETTINGS)
        assert not report.feasible
        assert verify_certificate(triple_system(TWO_SETTINGS), report.certificate)
        assert "1/3" in report.narrative and "2/3" in report.narrative

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
            assert check_triple(family).feasible == brute_force_feasible(system)

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
        corrupted = WitnessModel(PerSettingTables(swapped))
        report = validate_witness(corrupted, TWO_SETTINGS)
        assert report.check("adequacy").passed  # the observed joint is label-blind
        objectivity = report.check("objectivity")
        assert not objectivity.passed
        assert "revelation" in objectivity.detail
        assert not report.overall_pass


class TestDropObjectivity:
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
        for i, setting in enumerate(TWO_SETTINGS.settings):
            want = TWO_SETTINGS.joint_for(setting)
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

    def test_zeroed_weights_fail_adequacy(self):
        model = model_drop_objectivity(TWO_SETTINGS)
        zeroed = OutcomeAtomModel(
            model.payload.setting_labels,
            tuple(OutcomeAtom(atom.assignments, F(0)) for atom in model.payload.atoms),
        )
        report = validate_witness(WitnessModel(zeroed), TWO_SETTINGS)
        assert not report.check("adequacy").passed
        assert not report.overall_pass


class TestDropDeterminism:
    def test_validates(self):
        report = validate_witness(model_drop_determinism(TWO_SETTINGS), TWO_SETTINGS)
        assert report.overall_pass
        assert report.check("objectivity").passed
        assert report.check("independence").passed

    def test_responses_are_genuinely_stochastic(self):
        report = validate_witness(model_drop_determinism(TWO_SETTINGS), TWO_SETTINGS)
        determinism = report.check("determinism")
        assert not determinism.retained
        assert not determinism.passed
        assert "between 0 and 1" in determinism.detail

    def test_atom_weights_are_half_half(self):
        model = model_drop_determinism(TWO_SETTINGS)
        assert [atom.weight for atom in model.payload.atoms] == [F(1, 2), F(1, 2)]
        assert {atom.label for atom in model.payload.atoms} == {"p", "w"}


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

    def test_payload_type_fixes_mode(self):
        for build, mode in (
            (model_drop_independence, WitnessMode.DROP_INDEPENDENCE),
            (model_drop_objectivity, WitnessMode.DROP_OBJECTIVITY),
            (model_drop_determinism, WitnessMode.DROP_DETERMINISM),
        ):
            assert WitnessModel(build(TWO_SETTINGS).payload).mode is mode
        with pytest.raises(TypeError):
            WitnessModel(model_drop_independence(TWO_SETTINGS).payload.tables)

    def test_label_mismatch(self):
        other = SettingsFamily(F(1, 2), F(1, 4), (Setting("zeta", F(1, 3)),))
        model = model_drop_independence(TWO_SETTINGS)
        with pytest.raises(MalformedModel):
            validate_witness(model, other)


class TestSharedWork:
    def test_each_joint_is_built_once_per_family(self, monkeypatch):
        # a new family, so that no earlier test has asked for its joints
        family = SettingsFamily(FIVE_SETTINGS.e_p, FIVE_SETTINGS.e_w, FIVE_SETTINGS.settings)
        calls = _count_calls(monkeypatch, "joint_from_params")
        models = [build(family) for build in BUILDERS]
        for model in models:
            assert validate_witness(model, family).overall_pass
        assert len(calls) == 5
        # the stacked system builds its right-hand sides afresh on each call
        check_triple(family)
        triple_system(family)
        assert len(calls) == 15

    @pytest.mark.parametrize("build,per_setting", [
        (model_drop_independence, 1),
        (model_drop_objectivity, 0),
        (model_drop_determinism, 1),
    ])
    def test_branch_masses_once_per_setting_per_validation(self, monkeypatch, build, per_setting):
        model = build(FIVE_SETTINGS)
        calls = _count_calls(monkeypatch, "_branch_masses")
        validate_witness(model, FIVE_SETTINGS)
        assert len(calls) == per_setting * 5
        validate_witness(model, FIVE_SETTINGS)
        assert len(calls) == 2 * per_setting * 5

    def test_cached_joints_are_invisible(self):
        family = SettingsFamily(F(1, 2), F(1, 4), FIVE_SETTINGS.settings)
        fresh = SettingsFamily(F(1, 2), F(1, 4), FIVE_SETTINGS.settings)
        before = repr(family)
        for s in family.settings:
            family.joint_for(s)
        assert family == fresh and hash(family) == hash(fresh)
        assert repr(family) == before == repr(fresh)
        moved = dataclasses.replace(family, e_p=F(1, 3))
        for s in family.settings:
            assert moved.params_for(s) == GeneralParams(s.x, F(1, 3), F(1, 4))
            assert moved.joint_for(s).entry(0, 0) == s.x * F(1, 3)
            assert family.joint_for(s).entry(0, 0) == s.x * F(1, 2)

    def test_a_foreign_setting_is_rejected_by_label(self):
        for foreign in (Setting("zeta", F(1, 3)), Setting("alpha1", F(1, 5))):
            with pytest.raises(ValueError, match=repr(foreign.label)):
                TWO_SETTINGS.params_for(foreign)
            with pytest.raises(ValueError, match=repr(foreign.label)):
                TWO_SETTINGS.joint_for(foreign)


class TestSettingsFamilyJson:
    def test_round_trip(self):
        data = to_json(TWO_SETTINGS)
        assert data == {
            "e_p": "1/2",
            "e_w": "1/4",
            "settings": [{"label": "alpha1", "x": "1/3"}, {"label": "alpha2", "x": "2/3"}],
        }
        rebuilt = SettingsFamily.from_json_dict(data)
        assert rebuilt == TWO_SETTINGS

    @pytest.mark.parametrize("mutate,fragment", [
        (lambda d: d.pop("e_p"), "e_p"),
        (lambda d: d.update(e_w="w"), "e_w"),
        (lambda d: d.update(settings=[]), "settings"),
        (lambda d: d.update(settings=[{"label": "a"}]), "settings[0]"),
        (lambda d: d.update(settings=[{"label": "a", "x": "x"}]), "settings[0].x"),
        (lambda d: d.update(settings=[{"label": "a", "x": "5/3"}]), "settings[0].x:"),
        (lambda d: d.update(settings=[{"label": None, "x": "1/3"}]), "settings[0].label"),
    ])
    def test_malformed_inputs_name_the_field(self, mutate, fragment):
        data = to_json(TWO_SETTINGS)
        mutate(data)
        with pytest.raises(MalformedInput) as info:
            SettingsFamily.from_json_dict(data)
        assert fragment in str(info.value)

    def test_duplicate_labels_rejected(self):
        data = {"e_p": "1/2", "e_w": "1/4", "settings": [{"label": "a", "x": "1/3"}, {"label": "a", "x": "2/3"}]}
        with pytest.raises(MalformedInput):
            SettingsFamily.from_json_dict(data)

    def test_float_probabilities_rejected(self):
        with pytest.raises(TypeError):
            Setting("a", 0.5)
        with pytest.raises(TypeError):
            SettingsFamily(0.5, F(1, 4), (Setting("a", F(1, 3)),))

    def test_a_non_setting_is_rejected_by_index(self):
        with pytest.raises(TypeError, match=r"settings\[1\]"):
            SettingsFamily(F(1, 2), F(1, 4), (Setting("a", F(1, 3)), ("b", F(1, 3))))
