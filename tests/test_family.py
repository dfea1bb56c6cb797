"""Constraint-system family: closed forms, classification, exact identities."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from hvnogo import (
    BoundaryParams,
    CollapseKind,
    ConditionOnNull,
    GeneralParams,
    InvalidDistribution,
    NotASolution,
    OnticTable,
    OutOfRange,
    Setting,
    SettingsFamily,
    classify,
    conditional_given,
    constraint_system,
    enumerate_basic_solutions,
    instantiate,
    joint_from_params,
    lambda_marginal,
    matrix_rank,
    residual,
    solve_family,
    special_solution,
)
from hvnogo.acceptance import _interior_params as interior_params
from hvnogo.family import _family_entries, cell_index

F = Fraction

PARAMS = GeneralParams(F(1, 3), F(1, 2), F(1, 4))

#: A family whose ranges end at different values: s in [0, 3/8], t in [0, 1/3].
UNEQUAL = GeneralParams(F(1, 2), F(3, 4), F(2, 3))

#: The 5 x 5 grid of a benchmark vertex job: s and t at these fractions of their range.
GRID = tuple(F(k, 4) for k in range(5))

#: Interior probabilities, small denominators and denominators up to 10**6.
INTERIOR = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=12),
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
).filter(lambda v: 0 < v < 1)

#: Fractions of a range, its two ends included.
UNIT = st.one_of(st.sampled_from((F(0), F(1))), st.fractions(min_value=0, max_value=1, max_denominator=10**6))


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

    def test_a_table_needs_eight_entries(self):
        with pytest.raises(InvalidDistribution, match="^OnticTable needs 8 entries, got 7$"):
            OnticTable((F(1, 7),) * 7)

    def test_a_cell_label_is_p_or_w(self):
        with pytest.raises(ValueError, match="^label must be 'p' or 'w', got 'q'$"):
            cell_index(0, 0, "q")

    def test_negative_entry_too_long_to_print(self):
        tiny = F(1, 10**5000)
        with pytest.raises(InvalidDistribution) as info:
            OnticTable((-tiny, 1 + tiny, 0, 0, 0, 0, 0, 0))
        assert str(info.value) == (
            "OnticTable[00p]: probability (an exact result needs more than 4300 digits to print) outside [0, 1]"
        )


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
        with pytest.raises(OutOfRange, match=r"^s = 1/5 outside \[0, 1/6\]$"):
            instantiate(family, F(1, 5), F(0))
        with pytest.raises(OutOfRange, match=r"^t = 1/5 outside \[0, 1/6\]$"):
            instantiate(family, F(0), F(1, 5))

    def test_range_ends_are_members(self):
        family = solve_family(UNEQUAL)
        member = instantiate(family, F(3, 8), F(1, 3))
        assert member.entries == _family_entries(family, F(3, 8), F(1, 3))
        assert member.entries[0] == 0 and member.entries[5] == 0

    @pytest.mark.parametrize("s,t,line", [
        (F(3, 8) + F(1, 10**40), F(0), f"s = {F(3, 8) + F(1, 10**40)} outside [0, 3/8]"),
        (F(-1, 10**40), F(0), f"s = -1/{10**40} outside [0, 3/8]"),
        (F(0), F(1, 3) + F(1, 10**40), f"t = {F(1, 3) + F(1, 10**40)} outside [0, 1/3]"),
        (F(-1, 7), F(1, 2), "s = -1/7 outside [0, 3/8]"),
        (F(1, 2), F(1, 2), "s = 1/2 outside [0, 3/8]"),
    ], ids=["s_past_its_end", "negative_s", "t_past_its_end", "both_out_negative_s", "both_out_past_ends"])
    def test_refused_just_outside_with_s_checked_first(self, s, t, line):
        with pytest.raises(OutOfRange) as info:
            instantiate(solve_family(UNEQUAL), s, t)
        assert str(info.value) == line

    def test_out_of_range_with_bounds_too_long_to_print(self):
        # s_range ends at x*e_p = 1/10^5000, past the 4300 digits str() allows.
        tiny = F(1, 10**2500)
        family = solve_family(GeneralParams(tiny, tiny, F(1, 3)))
        message = r"^s = 1/2 outside \[0, \(an exact result needs more than 4300 digits to print\)\]$"
        with pytest.raises(OutOfRange, match=message):
            instantiate(family, F(1, 2), F(0))

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


class TestClosedForm:
    @given(INTERIOR, INTERIOR, INTERIOR, UNIT, UNIT)
    @settings(max_examples=200, deadline=None)
    def test_instantiate_is_the_module_docstring_closed_form(self, x, e_p, e_w, u, v):
        family = solve_family(GeneralParams(x, e_p, e_w))
        s, t = u * x * e_p, v * (1 - x) * e_w
        member = instantiate(family, s, t)
        expected = {
            (0, 0, "p"): x * e_p - s,
            (1, 0, "p"): (x * e_p - s) * (1 - e_p) / e_p,
            (0, 1, "p"): t,
            (1, 1, "p"): t * (1 - e_w) / e_w,
            (0, 0, "w"): s,
            (1, 0, "w"): s * (1 - e_p) / e_p,
            (0, 1, "w"): (1 - x) * e_w - t,
            (1, 1, "w"): ((1 - x) * e_w - t) * (1 - e_w) / e_w,
        }
        assert {cell: member.mass(*cell) for cell in expected} == expected
        assert all(type(value) is Fraction for value in member.entries)

    @given(INTERIOR, INTERIOR, INTERIOR, st.data())
    @settings(max_examples=200, deadline=None)
    def test_integer_entries_equal_the_fraction_formula(self, x, e_p, e_w, data):
        family = solve_family(GeneralParams(x, e_p, e_w))
        s_max, t_max = x * e_p, (1 - x) * e_w

        def across(top):
            """0, top, or k/d in between with d up to 10**6."""
            if data.draw(st.booleans()):
                return data.draw(st.sampled_from((F(0), top)))
            d = data.draw(st.integers(min_value=1, max_value=10**6))
            return F(data.draw(st.integers(min_value=0, max_value=int(top * d))), d)

        s, t = across(s_max), across(t_max)
        r_p, r_w = (1 - e_p) / e_p, (1 - e_w) / e_w
        expected = (s_max - s, t, (s_max - s) * r_p, t * r_w, s, t_max - t, s * r_p, (t_max - t) * r_w)
        entries = _family_entries(family, s, t)
        assert entries == expected
        assert all(type(value) is Fraction for value in entries)


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


class TestClosedFormsOnAGrid:
    """Identities proved, not sampled, by the grid lemma (Alon, Combin. Probab.
    Comput. 8, 1999): a polynomial of degree at most d in each variable that
    vanishes on a product grid with d + 1 values per variable is zero.  Each
    test reads its degree bound from the code it names; the grid proves the
    identity only under that bound.  The point off the grid is evidence
    against a wrong bound, not part of the proof."""

    OFF_GRID = (F(2, 9), F(7, 11), F(3, 13))

    def test_special_solution_is_its_closed_form(self):
        """Degree <= 1 in each of x, e_p and e_w: ``special_solution`` places
        the entries of ``dist.joint_from_params``, each a product of x or
        1 - x with e_p, 1 - e_p, e_w or 1 - e_w; the label marginal adds two
        of them.  So 2 values per variable, 8 points, suffice."""
        for x, e_p, e_w in [*itertools.product((F(1, 3), F(3, 4)), repeat=3), self.OFF_GRID]:
            table = special_solution(GeneralParams(x, e_p, e_w))
            zero = F(0)
            assert table.entries == (x * e_p, zero, x * (1 - e_p), zero, zero, (1 - x) * e_w, zero, (1 - x) * (1 - e_w))
            assert lambda_marginal(table).as_tuple() == (x, 1 - x)

    def test_every_member_solves_the_constraint_system(self):
        """Degree <= 2 in e_p and e_w and <= 1 in x, u and v, for s = u*x*e_p
        and t = v*(1-x)*e_w: each entry of ``family._family_entries`` is then
        a product of one factor per variable (r_p = (1-e_p)/e_p cancels the
        e_p in x*e_p - s, r_w the e_w in (1-x)*e_w - t), the rows of
        ``_stacked_system`` multiply an entry by at most e_p, 1 - e_p, e_w or
        1 - e_w, and the joint on the right is of degree 1.  So 3 values per
        variable, 243 points, suffice; e_p and e_w stay off 0, where the code
        divides."""
        probabilities, shares = (F(1, 3), F(1, 2), F(5, 7)), (F(0), F(1, 2), F(1))
        grid = itertools.product(probabilities, probabilities, probabilities, shares, shares)
        for x, e_p, e_w, u, v in [*grid, (*self.OFF_GRID, F(3, 8), F(5, 6))]:
            params = GeneralParams(x, e_p, e_w)
            member = instantiate(solve_family(params), u * x * e_p, v * (1 - x) * e_w)
            assert all(r == 0 for r in residual(constraint_system(params), member.entries))

    def test_cross_branch_mass_shows_the_apparatus_statistics(self):
        """Criterion 4's collapse identities, cross-multiplied so that no
        branch mass divides: p(0,0,w) (1 - e_p) = p(1,0,w) e_p and
        p(0,1,p) (1 - e_w) = p(1,1,p) e_w.  With s = u*x*e_p and
        t = v*(1-x)*e_w, ``family._family_entries`` gives p(0,0,w) = s,
        p(1,0,w) = s*r_p, p(0,1,p) = t and p(1,1,p) = t*r_w, where the
        ratios r_p = (1-e_p)/e_p and r_w = (1-e_w)/e_w, whose integers
        ``SolutionFamily._integers`` holds,
        cancel the e_p in s and the e_w in t.  Each side is then degree <= 2
        in e_p and e_w and <= 1 in x, u and v: 3 values for e_p and e_w and
        2 for x, u and v, 72 points, suffice.  u and v stay off 0, so every
        member has s > 0 and t > 0, and there the identities say that both
        conditionals are the apparatus statistics; e_p and e_w stay off 0,
        where the code divides."""
        probabilities, shares = (F(1, 3), F(1, 2), F(5, 7)), (F(1, 3), F(1))
        grid = itertools.product((F(1, 3), F(3, 4)), probabilities, probabilities, shares, shares)
        for x, e_p, e_w, u, v in [*grid, (*self.OFF_GRID, F(3, 8), F(5, 6))]:
            params = GeneralParams(x, e_p, e_w)
            member = instantiate(solve_family(params), u * x * e_p, v * (1 - x) * e_w)
            assert member.mass(0, 0, "w") * (1 - e_p) == member.mass(1, 0, "w") * e_p
            assert member.mass(0, 1, "p") * (1 - e_w) == member.mass(1, 1, "p") * e_w


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

    @given(INTERIOR, INTERIOR, INTERIOR, st.sampled_from(GRID), st.sampled_from(GRID))
    @settings(max_examples=100, deadline=None)
    def test_kind_follows_the_cross_branch_masses(self, x, e_p, e_w, u, v):
        params = GeneralParams(x, e_p, e_w)
        family = solve_family(params)
        table = instantiate(family, u * family.s_range[1], v * family.t_range[1])
        nonzero = (table.branch_mass(0, "w") != 0, table.branch_mass(1, "p") != 0)
        expected = {
            (False, False): CollapseKind.SPECIAL,
            (True, False): CollapseKind.COLLAPSE_W_AT_B0,
            (False, True): CollapseKind.COLLAPSE_P_AT_B1,
            (True, True): CollapseKind.COLLAPSE_BOTH,
        }
        assert classify(table, params).kind is expected[nonzero]

    def test_indistinguishable_flag(self):
        params = GeneralParams(F(1, 3), F(1, 4), F(1, 4))
        assert classify(special_solution(params), params).indistinguishable

    def test_non_solution_with_a_residual_too_long_to_print(self):
        # C - x*e_p = 1/10^5000 - 1/6 has a 5 001-digit denominator
        tiny = F(1, 10**5000)
        table = OnticTable((tiny, 1 - tiny, 0, 0, 0, 0, 0, 0))
        with pytest.raises(NotASolution) as info:
            classify(table, PARAMS)
        assert str(info.value) == (
            "table violates adequacy(a=0,b=0) by (an exact result needs more than 4300 digits to print)"
        )

    @pytest.mark.parametrize("params,entries,message", [
        # 1/12 of 00p moved to 00w: adequacy still holds, the p-statistics at b=0 do not
        (PARAMS, (F(1, 12), 0, F(1, 6), 0, F(1, 12), F(1, 6), 0, F(1, 2)),
         "objectivity(p-statistics at b=0) by -1/24"),
        # 1/1000003 of 01w moved to 11w in a member with six-digit denominators
        (GeneralParams(F(123457, 999983), F(5, 123451), F(77777, 876543)), None, "adequacy(a=0,b=1) by -1/1000003"),
    ], ids=["objectivity", "adequacy-large-denominators"])
    def test_perturbed_member_names_the_first_violated_row(self, params, entries, message):
        if entries is None:
            family = solve_family(params)
            cells = list(instantiate(family, family.s_range[1] / 3, family.t_range[1] / 5).entries)
            cells[5] -= F(1, 1000003)
            cells[7] += F(1, 1000003)
            entries = tuple(cells)
        with pytest.raises(NotASolution) as info:
            classify(OnticTable(entries), params)
        assert str(info.value) == "table violates " + message

    def test_non_solution_rejected(self):
        # Repeated, so a memoized constraint system still rejects on every call.
        other = GeneralParams(F(2, 3), F(1, 2), F(1, 4))
        for _ in range(3):
            with pytest.raises(NotASolution, match=r"adequacy\(a=0,b=0\) by -1/6"):
                classify(special_solution(PARAMS), other)


class TestVertexPathHashesNoFraction:
    """Hashing a Fraction costs a modular inverse; the vertex path decides its
    memo lookups, merges and signs without one.  The memo is keyed by the
    parameters' numerators and denominators, so even its first lookup, which
    builds the system, hashes no Fraction."""

    def test_no_fraction_is_hashed(self, monkeypatch):
        params = GeneralParams(F(123457, 999983), F(5, 123451), F(77777, 876543))
        hashed = []
        unpatched = Fraction.__hash__

        def counting_hash(value):
            hashed.append(value)
            return unpatched(value)

        monkeypatch.setattr(Fraction, "__hash__", counting_hash)
        system = constraint_system(params)
        assert matrix_rank(system.matrix) == 6
        family = solve_family(params)
        for u in GRID:
            for v in GRID:
                member = instantiate(family, u * family.s_range[1], v * family.t_range[1])
                residual(system, member.entries)
                classify(member, params)
        assert len(enumerate_basic_solutions(system)) == 4
        assert len(hashed) == 0


class TestExactPathsRunNoFractionOperator:
    """The joint formula and ``instantiate`` build each value as one
    ``Fraction(n, d)`` of integer products, and every check on their way
    (the exact-input rule, ranges, sums) is decided in integers; so they
    run with every Fraction arithmetic and ordering operator raising."""

    OPERATORS = (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__",
        "__divmod__", "__rdivmod__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
        "__lt__", "__le__", "__gt__", "__ge__",
    )

    def test_joints_and_members_use_no_operator(self, monkeypatch):
        family = solve_family(UNEQUAL)
        s, t = F(3, 8) * F(2, 5), F(1, 3) * F(5, 7)

        def refuse(*args):
            raise AssertionError("a Fraction operator ran")

        with monkeypatch.context() as patch:
            for name in self.OPERATORS:
                patch.setattr(Fraction, name, refuse)
            settings_family = SettingsFamily(F(3, 4), F(2, 3), (Setting("a", F(1, 2)), Setting("b", F(5, 9))))
            joints = settings_family.joints
            joint = joint_from_params(GeneralParams(F(5, 9), F(3, 4), F(2, 3)))
            member = instantiate(family, s, t)
            for operation in (lambda: 1 - s, lambda: s * t, lambda: 0 <= s <= t):
                with pytest.raises(AssertionError, match="^a Fraction operator ran$"):
                    operation()
        assert [j.entries for j in joints] == [joint_from_params(GeneralParams(x, F(3, 4), F(2, 3))).entries
                                               for x in (F(1, 2), F(5, 9))]
        assert joint.entries == joints[1].entries
        assert member.entries == _family_entries(family, s, t)
        assert all(r == 0 for r in residual(constraint_system(UNEQUAL), member.entries))


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
    def test_keys_and_values(self):
        data = special_solution(PARAMS).to_json_dict()
        assert data["00p"] == "1/6" and data["11w"] == "1/2"
