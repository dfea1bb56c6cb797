"""Constraint-system family: closed forms, classification, exact identities."""

from fractions import Fraction

import pytest
from numpy.random import Generator, Philox

from hvnogo import (
    BoundaryParams,
    CollapseKind,
    ConditionOnNull,
    GeneralParams,
    MalformedInput,
    NotASolution,
    OnticTable,
    OutOfRange,
    classify,
    conditional_given,
    constraint_system,
    enumerate_basic_solutions,
    instantiate,
    lambda_marginal,
    residual,
    solve_family,
    special_solution,
)
from hvnogo.acceptance import _interior_params as interior_params

F = Fraction

PARAMS = GeneralParams(F(1, 3), F(1, 2), F(1, 4))


class TestSolveFamily:
    def test_worked_ranges(self):
        family = solve_family(PARAMS)
        assert family.s_range == (F(0), F(1, 6))
        assert family.t_range == (F(0), F(1, 6))

    def test_ranges_are_the_exact_nonnegativity_region(self):
        # the closed-form entries stay nonnegative exactly for
        # s in [0, x*e_p], t in [0, (1-x)*e_w], including e_p, e_w > 1/2
        params = GeneralParams(F(1, 2), F(3, 4), F(2, 3))
        family = solve_family(params)
        assert family.s_range == (F(0), F(3, 8))
        assert family.t_range == (F(0), F(1, 3))
        edge = instantiate(family, F(3, 8), F(1, 3))
        assert min(edge.entries) >= 0
        with pytest.raises(OutOfRange):
            instantiate(family, F(3, 8) + F(1, 100), F(0))

    @pytest.mark.parametrize("params,which", [
        (GeneralParams(F(0), F(1, 2), F(1, 2)), "x"),
        (GeneralParams(F(1), F(1, 2), F(1, 2)), "x"),
        (GeneralParams(F(1, 2), F(1), F(1, 2)), "e_p"),
        (GeneralParams(F(1, 2), F(1, 2), F(0)), "e_w"),
    ])
    def test_boundary_rejected(self, params, which):
        with pytest.raises(BoundaryParams) as info:
            solve_family(params)
        assert info.value.parameter == which

    def test_real_mode_rejected(self):
        with pytest.raises(TypeError):
            solve_family(GeneralParams(0.5, 0.5, 0.5))

    def test_float_free_parameters_rejected(self):
        family = solve_family(PARAMS)
        with pytest.raises(TypeError):
            instantiate(family, 0.1, F(0))

    def test_float_table_entries_rejected(self):
        with pytest.raises(TypeError):
            OnticTable((0.5, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0))


class TestInstantiate:
    def test_origin_is_the_special_solution(self):
        family = solve_family(PARAMS)
        assert instantiate(family, F(0), F(0)).entries == special_solution(PARAMS).entries

    def test_worked_member(self):
        family = solve_family(PARAMS)
        member = instantiate(family, F(1, 12), F(1, 12))
        assert member.entries == (F(1, 12), F(1, 12), F(1, 12), F(1, 4), F(1, 12), F(1, 12), F(1, 12), F(1, 4))
        system = constraint_system(PARAMS)
        assert all(r == 0 for r in residual(system, member.entries))

    def test_member_reveals_wave_statistics_in_the_wrong_label(self):
        family = solve_family(PARAMS)
        member = instantiate(family, F(1, 12), F(1, 12))
        assert conditional_given(member, 1, "p").as_tuple() == (F(1, 4), F(3, 4))

    def test_out_of_range(self):
        family = solve_family(PARAMS)
        with pytest.raises(OutOfRange):
            instantiate(family, F(1, 5), F(0))

    def test_family_soundness_randomized(self):
        rng = Generator(Philox(key=31))
        for _ in range(60):
            params = interior_params(rng)
            family = solve_family(params)
            system = constraint_system(params)
            for _ in range(10):
                s = family.s_range[1] * F(int(rng.integers(0, 7)), 6)
                t = family.t_range[1] * F(int(rng.integers(0, 7)), 6)
                member = instantiate(family, s, t)
                assert all(r == 0 for r in residual(system, member.entries))
                assert min(member.entries) >= 0

    def test_family_completeness_via_enumeration(self):
        rng = Generator(Philox(key=32))
        for _ in range(25):
            params = interior_params(rng)
            family = solve_family(params)
            system = constraint_system(params)
            s_max, t_max = family.s_range[1], family.t_range[1]
            vertices = enumerate_basic_solutions(system)
            assert vertices, "interior parameters always admit solutions"
            for point in vertices:
                s, t = point[4], point[1]
                # every enumerated vertex is a corner of the (s, t) rectangle
                assert s in (F(0), s_max) and t in (F(0), t_max)
                assert instantiate(family, s, t).entries == point


class TestSpecialSolution:
    def test_worked_example(self):
        assert special_solution(PARAMS).entries == (F(1, 6), F(0), F(1, 6), F(0), F(0), F(1, 6), F(0), F(1, 2))

    def test_x_one_piles_mass_on_p(self):
        table = special_solution(GeneralParams(F(1), F(1, 2), F(1, 4)))
        assert lambda_marginal(table).as_tuple() == (F(1), F(0))
        assert sum(table.entries[4:]) == 0

    def test_reveals_particle_statistics(self):
        rng = Generator(Philox(key=33))
        for _ in range(40):
            params = interior_params(rng)
            table = special_solution(params)
            assert conditional_given(table, 0, "p").as_tuple() == (params.e_p, 1 - params.e_p)
            assert conditional_given(table, 1, "w").as_tuple() == (params.e_w, 1 - params.e_w)

    def test_label_marginal_tracks_apparatus_marginal(self):
        rng = Generator(Philox(key=34))
        for _ in range(60):
            params = GeneralParams(
                F(int(rng.integers(0, 13)), 12), F(int(rng.integers(0, 13)), 12), F(int(rng.integers(0, 13)), 12)
            )
            marginal = lambda_marginal(special_solution(params))
            assert marginal.as_tuple() == (params.x, 1 - params.x)

    def test_conditioning_on_empty_branch_raises(self):
        with pytest.raises(ConditionOnNull):
            conditional_given(special_solution(PARAMS), 0, "w")


class TestClassify:
    def test_special(self):
        verdict = classify(special_solution(PARAMS), PARAMS)
        assert verdict.kind is CollapseKind.SPECIAL
        assert not verdict.indistinguishable

    def test_collapse_both(self):
        family = solve_family(PARAMS)
        verdict = classify(instantiate(family, F(1, 12), F(1, 12)), PARAMS)
        assert verdict.kind is CollapseKind.COLLAPSE_BOTH

    def test_collapse_w_only(self):
        family = solve_family(PARAMS)
        verdict = classify(instantiate(family, F(1, 12), F(0)), PARAMS)
        assert verdict.kind is CollapseKind.COLLAPSE_W_AT_B0

    def test_collapse_p_only(self):
        family = solve_family(PARAMS)
        verdict = classify(instantiate(family, F(0), F(1, 12)), PARAMS)
        assert verdict.kind is CollapseKind.COLLAPSE_P_AT_B1

    def test_special_iff_origin(self):
        rng = Generator(Philox(key=35))
        for _ in range(30):
            params = interior_params(rng)
            family = solve_family(params)
            for num_s in (0, 1):
                for num_t in (0, 1):
                    s = family.s_range[1] * num_s
                    t = family.t_range[1] * num_t
                    verdict = classify(instantiate(family, s, t), params)
                    assert (verdict.kind is CollapseKind.SPECIAL) == (s == 0 and t == 0)

    def test_indistinguishable_flag(self):
        params = GeneralParams(F(1, 3), F(1, 4), F(1, 4))
        assert classify(special_solution(params), params).indistinguishable

    def test_non_solution_rejected(self):
        # Repeated, so a memoized constraint system still rejects on every call.
        other = GeneralParams(F(2, 3), F(1, 2), F(1, 4))
        for _ in range(3):
            with pytest.raises(NotASolution, match=r"adequacy\(a=0,b=0\) by -1/6"):
                classify(special_solution(PARAMS), other)


class TestConstraintSystemMemo:
    def test_equal_params_share_one_system(self):
        params = GeneralParams(F(2, 7), F(3, 5), F(1, 9))
        system = constraint_system(params)
        assert constraint_system(GeneralParams(params.x, params.e_p, params.e_w)) is system
        assert system.rhs[:4] == (F(6, 35), F(5, 63), F(4, 35), F(40, 63))

    def test_real_mode_rejected_on_every_call(self):
        # Floats equal to memoized Fractions must not be served from the memo.
        constraint_system(GeneralParams(F(1, 2), F(1, 2), F(1, 4)))
        real = GeneralParams(0.5, 0.5, 0.25)
        for _ in range(3):
            with pytest.raises(TypeError):
                constraint_system(real)
            with pytest.raises(TypeError):
                classify(special_solution(PARAMS), real)


class TestOnticTableJson:
    def test_round_trip(self):
        table = special_solution(PARAMS)
        data = table.to_json_dict()
        assert data["00p"] == "1/6" and data["11w"] == "1/2"
        assert OnticTable.from_json_dict(data).entries == table.entries

    def test_missing_field(self):
        data = special_solution(PARAMS).to_json_dict()
        del data["01w"]
        with pytest.raises(MalformedInput):
            OnticTable.from_json_dict(data)

    def test_bad_rational(self):
        data = special_solution(PARAMS).to_json_dict()
        data["00p"] = "zero"
        with pytest.raises(MalformedInput):
            OnticTable.from_json_dict(data)

    def test_entries_not_summing_to_one(self):
        data = special_solution(PARAMS).to_json_dict()
        data["00p"] = "1"
        with pytest.raises(MalformedInput, match="ontic table"):
            OnticTable.from_json_dict(data)
