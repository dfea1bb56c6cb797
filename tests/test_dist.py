"""Distribution primitives: frozen examples plus algebraic property tests."""

import dataclasses
import enum
import itertools
import math
import pickle
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvnogo import (
    REAL_TOL,
    BinaryDist,
    ConditionOnNull,
    GeneralParams,
    InvalidDistribution,
    JointDist,
    LinearSystem,
    OnticTable,
    OutOfRange,
    OversizedRational,
    Setting,
    SettingsFamily,
    conditional_a_given_b,
    format_rational,
    instantiate,
    joint_from_params,
    marginal_b,
    matrix_rank,
    parse_rational,
    residual,
    solve_family,
    to_json,
    verify_certificate,
)
from hvnogo.dist import _as_fraction_row, _check_distribution, _common_denominator, _joints_at, _show
from hvnogo.family import cell_index
from hvnogo.feasibility import OutcomeAtom
from hvnogo.quantum import quantum_joint, quantum_params

F = Fraction


@st.composite
def rational_prob(draw, max_den=60):
    den = draw(st.integers(min_value=1, max_value=max_den))
    num = draw(st.integers(min_value=0, max_value=den))
    return F(num, den)


@st.composite
def interior_rational_prob(draw, max_den=60):
    den = draw(st.integers(min_value=2, max_value=max_den))
    num = draw(st.integers(min_value=1, max_value=den - 1))
    return F(num, den)


#: A probability with small or large denominator, 0 and 1 drawn on their own too.
BOUNDARY_OR_RATIONAL = st.one_of(
    st.sampled_from((F(0), F(1))),
    st.fractions(min_value=0, max_value=1, max_denominator=12),
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
)


@st.composite
def rational_params(draw):
    return GeneralParams(draw(rational_prob()), draw(rational_prob()), draw(rational_prob()))


@st.composite
def interior_params(draw):
    return GeneralParams(
        draw(interior_rational_prob()), draw(interior_rational_prob()), draw(interior_rational_prob())
    )


class TestJointFromParams:
    def test_worked_example(self):
        # direct substitution, checked by hand: (1/3*1/2, 2/3*1/4, 1/3*1/2, 2/3*3/4)
        joint = joint_from_params(GeneralParams(F(1, 3), F(1, 2), F(1, 4)))
        assert joint.entries == (F(1, 6), F(1, 6), F(1, 6), F(1, 2))
        assert sum(joint.entries) == 1

    def test_x_one_empties_the_b1_branch(self):
        joint = joint_from_params(GeneralParams(F(1), F(1, 2), F(1, 4)))
        assert joint.entries == (F(1, 2), F(0), F(1, 2), F(0))

    def test_matches_quantum_joint_for_quantum_parameters(self):
        for alpha in (0.3, 1.0, 2.2):
            for phi in (0.0, 0.7, 2.9):
                params = GeneralParams(math.cos(alpha) ** 2, 0.5, math.cos(phi / 2) ** 2)
                built = joint_from_params(params)
                direct = quantum_joint(alpha, phi)
                assert all(abs(p - q) <= 1e-12 for p, q in zip(built.entries, direct.entries))

    @given(rational_params())
    def test_normalization_closure(self, params):
        assert sum(joint_from_params(params).entries) == 1

    @given(st.lists(BOUNDARY_OR_RATIONAL, min_size=1, max_size=4), BOUNDARY_OR_RATIONAL, BOUNDARY_OR_RATIONAL)
    def test_exact_entries_are_the_operator_formula(self, xs, e_p, e_w):
        # the formula builds each entry from integers; it must equal the operator form, as an exact Fraction
        joints = _joints_at(xs, e_p, e_w)
        assert len(joints) == len(xs)
        for x, joint in zip(xs, joints):
            assert joint.entries == (x * e_p, (1 - x) * e_w, x * (1 - e_p), (1 - x) * (1 - e_w))
            assert all(type(v) is F for v in joint.entries)

    def test_real_entries_are_the_float_products(self):
        # bit for bit: real mode multiplies the floats it is given and nothing else
        for alpha in (0.0, 0.3, 1.0, math.pi / 4, 2.2, math.pi / 2, 3.0):
            for phi in (0.0, 0.7, math.pi / 2, 2.9, math.pi, 5.5):
                params = quantum_params(alpha, phi)
                x, e_p, e_w = params.x, params.e_p, params.e_w
                entries = joint_from_params(params).entries
                assert entries == (x * e_p, (1 - x) * e_w, x * (1 - e_p), (1 - x) * (1 - e_w))
                assert all(type(v) is float for v in entries)


class TestMarginalB:
    def test_column_sums(self):
        assert marginal_b(JointDist((F(1, 6), F(1, 6), F(1, 6), F(1, 2)))).as_tuple() == (F(1, 3), F(2, 3))

    def test_uniform(self):
        quarter = F(1, 4)
        assert marginal_b(JointDist((quarter,) * 4)).as_tuple() == (F(1, 2), F(1, 2))

    @given(rational_params())
    def test_marginal_law(self, params):
        assert marginal_b(joint_from_params(params)).as_tuple() == (params.x, 1 - params.x)


class TestConditional:
    def test_b0_branch(self):
        joint = JointDist((F(1, 6), F(1, 6), F(1, 6), F(1, 2)))
        assert conditional_a_given_b(joint, 0).as_tuple() == (F(1, 2), F(1, 2))

    def test_b1_branch(self):
        joint = JointDist((F(1, 6), F(1, 6), F(1, 6), F(1, 2)))
        assert conditional_a_given_b(joint, 1).as_tuple() == (F(1, 4), F(3, 4))

    def test_condition_on_null(self):
        with pytest.raises(ConditionOnNull):
            conditional_a_given_b(JointDist((F(1, 2), F(0), F(1, 2), F(0))), 1)

    @given(interior_params())
    def test_conditional_law(self, params):
        joint = joint_from_params(params)
        assert conditional_a_given_b(joint, 0).as_tuple() == (params.e_p, 1 - params.e_p)
        assert conditional_a_given_b(joint, 1).as_tuple() == (params.e_w, 1 - params.e_w)

    @given(interior_params())
    def test_bayes_consistency(self, params):
        joint = joint_from_params(params)
        marg = marginal_b(joint)
        for b, p_b in ((0, marg.p0), (1, marg.p1)):
            cond = conditional_a_given_b(joint, b)
            assert joint.entry(0, b) == cond.p0 * p_b
            assert joint.entry(1, b) == cond.p1 * p_b


class TestScalarKinds:
    def test_float_contaminates_container(self):
        d = BinaryDist(0.5, F(1, 2))
        assert type(d.p0) is type(d.p1) is float

    def test_ints_become_exact(self):
        d = BinaryDist(1, 0)
        assert type(d.p0) is F and d.p0 == F(1)

    def test_negative_entry_rejected(self):
        with pytest.raises(InvalidDistribution):
            JointDist((F(-1, 4), F(1, 2), F(1, 2), F(1, 4)))

    @pytest.mark.parametrize("entries,message", [
        ((F(1, 3),) * 3, "JointDist needs 4 entries, got 3"),
        ((math.nan, 0.5, 0.25, 0.25), r"JointDist\.entries\[0\]: probability is not finite"),
    ], ids=["three_entries", "real_nan"])
    def test_malformed_joint_rejected(self, entries, message):
        with pytest.raises(InvalidDistribution, match=f"^{message}$"):
            JointDist(entries)

    def test_bad_sum_rejected_exact(self):
        with pytest.raises(InvalidDistribution):
            BinaryDist(F(1, 2), F(1, 3))

    def test_bad_sum_rejected_real(self):
        with pytest.raises(InvalidDistribution):
            BinaryDist(0.5, 0.5 + 1e-9)

    def test_real_mode_tolerance_accepted(self):
        BinaryDist(0.5, 0.5 + 1e-13)  # within REAL_TOL

    def test_probabilities_exactly_at_the_tolerance_are_accepted(self):
        d = BinaryDist(-REAL_TOL, 1 + REAL_TOL)  # the bounds are inclusive; the sum is 1 within REAL_TOL
        assert d.as_tuple() == (-REAL_TOL, 1 + REAL_TOL)
        with pytest.raises(InvalidDistribution):
            BinaryDist(-2 * REAL_TOL, 1 + 2 * REAL_TOL)

    def test_params_range_checked(self):
        with pytest.raises(InvalidDistribution):
            GeneralParams(F(3, 2), F(1, 2), F(1, 2))


class TestJointDistRefusals:
    """Each refusal of ``JointDist``, its class and its whole message.  The
    checks run in a fixed order (entry types, length, each entry's range in
    entry order, then the sum), so the first failing one names the refusal."""

    @pytest.mark.parametrize("entries,error,message", [
        ((F(1, 2), F(-1, 4), F(1, 2), F(1, 4)), InvalidDistribution,
         "JointDist.entries[1]: probability -1/4 outside [0, 1]"),
        ((F(0), F(3, 2), F(0), F(-1, 2)), InvalidDistribution,
         "JointDist.entries[1]: probability 3/2 outside [0, 1]"),
        ((F(5, 4), F(-1, 4), 0, 0), InvalidDistribution, "JointDist.entries[0]: probability 5/4 outside [0, 1]"),
        ((F(1, 3),) * 3, InvalidDistribution, "JointDist needs 4 entries, got 3"),
        ((F(-1), 1, 1, 0, 0), InvalidDistribution, "JointDist needs 4 entries, got 5"),
        ((F(1, 4), F(1, 4), F(1, 4), F(1, 3)), InvalidDistribution, "JointDist: entries sum to 13/12, expected 1"),
        ((F(1, 4), 0, 0, 0), InvalidDistribution, "JointDist: entries sum to 1/4, expected 1"),
        ((True, 0, 0, 0), TypeError, "JointDist: expected Fraction or int, got bool"),
        (("1/2", F(1, 2), 0, 0), TypeError, "JointDist: expected Fraction or int, got str"),
        ((Decimal("0.5"), F(1, 2), 0, 0), TypeError, "JointDist: expected Fraction or int, got Decimal"),
        ((F(-1), F(1), "x"), TypeError, "JointDist: expected Fraction or int, got str"),
        ((0.5, F(1, 3), 0, 0), InvalidDistribution,
         "JointDist: entries sum to 0.8333333333333333, expected 1 within 1e-12"),
        ((1.5, F(-1, 2), 0, 0), InvalidDistribution,
         "JointDist.entries[0]: probability 1.5 outside [0, 1] beyond tolerance"),
        ((0.5, True, 0, 0), TypeError, "JointDist: expected int, Fraction, or float, got bool"),
        ((0.5, Decimal("0.5"), 0, 0), TypeError, "JointDist: expected int, Fraction, or float, got Decimal"),
        ((0.5, 0.5, -2e-12, 2e-12), InvalidDistribution,
         "JointDist.entries[2]: probability -2e-12 outside [0, 1] beyond tolerance"),
        ((0.5, 0.5, 0.0, 1 + 2e-12), InvalidDistribution,
         "JointDist.entries[3]: probability 1.000000000002 outside [0, 1] beyond tolerance"),
        ((0.5, math.inf, 0.0, 0.0), InvalidDistribution, "JointDist.entries[1]: probability is not finite"),
        ((0.5, 0.5 + 1e-9, 0.0, 0.0), InvalidDistribution,
         "JointDist: entries sum to 1.000000001, expected 1 within 1e-12"),
        ((0.5, 0.5), InvalidDistribution, "JointDist needs 4 entries, got 2"),
    ], ids=[
        "negative", "above_one", "first_failing_entry_named", "three_entries", "length_before_range",
        "sum_above_one", "sum_below_one", "bool", "str", "Decimal", "type_before_length",
        "float_with_fraction_sum", "float_with_fraction_range", "real_mode_bool", "real_mode_Decimal",
        "float_below_tolerance", "float_above_tolerance", "float_infinite", "float_sum", "float_length",
    ])
    def test_message(self, entries, error, message):
        with pytest.raises(error) as info:
            JointDist(entries)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("entries,error,message", [
        ((F(1, 7),) * 7, InvalidDistribution, "OnticTable needs 8 entries, got 7"),
        ((F(-1), 1, 1, 0, 0, 0, 0, 0, 0), InvalidDistribution, "OnticTable needs 8 entries, got 9"),
        ((F(1, 2), F(-1, 2), 1, 0, 0, 0, 0, 0), InvalidDistribution,
         "OnticTable[01p]: probability -1/2 outside [0, 1]"),
        ((F(3, 2), F(-1, 2), 0, 0, 0, 0, 0, 0), InvalidDistribution,
         "OnticTable[00p]: probability 3/2 outside [0, 1]"),
        ((0, 0, 0, 0, 0, F(5, 4), 0, F(-1, 4)), InvalidDistribution,
         "OnticTable[01w]: probability 5/4 outside [0, 1]"),
        ((F(1, 8),) * 7 + (F(1, 4),), InvalidDistribution, "OnticTable: entries sum to 9/8, expected 1"),
        ((F(1, 8),) * 7 + (0,), InvalidDistribution, "OnticTable: entries sum to 7/8, expected 1"),
        ((F(-1), F(1), "x"), TypeError, "OnticTable entries: expected Fraction or int, got str"),
    ], ids=[
        "seven_entries", "length_before_range", "negative", "above_one_before_a_later_negative",
        "above_one_under_w", "sum_above_one", "sum_below_one", "type_before_length",
    ])
    def test_ontic_table_message(self, entries, error, message):
        """``OnticTable`` is checked by the same pass, in the same order."""
        with pytest.raises(error) as info:
            OnticTable(entries)
        assert type(info.value) is error
        assert str(info.value) == message


#: Probabilities with small denominators and denominators up to 10**6.
PROBABILITY = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=12),
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
)


@st.composite
def exact_tables(draw, size):
    """``size`` entries in [0, 1]: as drawn, normalized, or normalized and then
    moved off a total of 1 by a small amount."""
    entries = draw(st.lists(PROBABILITY, min_size=size, max_size=size))
    total = sum(entries, F(0))
    mode = draw(st.sampled_from(("raw", "normalized", "nudged")))
    if mode == "raw" or total == 0:
        return entries
    entries = [v / total for v in entries]
    if mode == "nudged":
        eps = draw(st.fractions(min_value=0, max_value=F(1, 2), max_denominator=10**6).filter(bool))
        if draw(st.booleans()):
            entries[entries.index(min(entries))] += eps  # the smallest entry is at most 1/2
        else:
            largest = entries.index(max(entries))
            entries[largest] -= min(eps, entries[largest])
    return entries


class TestGeneralParamsHash:
    """GeneralParams is a plain frozen dataclass: its hash, equality, repr,
    JSON and pickle are the dataclass's own, and hashing it keeps nothing."""

    @given(rational_prob(), rational_prob(), rational_prob())
    def test_equals_the_hash_of_the_fields(self, x, e_p, e_w):
        assert hash(GeneralParams(x, e_p, e_w)) == hash((x, e_p, e_w))
        real = GeneralParams(float(x), float(e_p), float(e_w))
        assert hash(real) == hash((float(x), float(e_p), float(e_w)))

    def test_exact_and_real_halves_are_equal_and_hash_equal(self):
        exact, real = GeneralParams(F(1, 2), F(1, 2), F(1, 2)), GeneralParams(0.5, 0.5, 0.5)
        assert exact == real
        assert hash(exact) == hash(real)

    def test_replace_hashes_the_new_value(self):
        params = GeneralParams(F(1, 3), F(1, 2), F(1, 4))
        hash(params)
        moved = dataclasses.replace(params, x=F(2, 3))
        assert hash(moved) == hash((F(2, 3), F(1, 2), F(1, 4)))
        assert moved != params

    def test_repr_fields_json_and_pickle_are_unchanged(self):
        params = GeneralParams(F(1, 3), F(1, 2), F(1, 4))
        fresh_pickle = pickle.dumps(params)
        hash(params)
        assert repr(params) == "GeneralParams(x=Fraction(1, 3), e_p=Fraction(1, 2), e_w=Fraction(1, 4))"
        assert [f.name for f in dataclasses.fields(params)] == ["x", "e_p", "e_w"]
        assert to_json(params) == {"x": "1/3", "e_p": "1/2", "e_w": "1/4"}
        assert pickle.dumps(params) == fresh_pickle  # hashing leaves nothing behind to pickle
        again = pickle.loads(fresh_pickle)
        assert again == params
        assert hash(again) == hash(params)


class TestSumToOne:
    @pytest.mark.parametrize("build,size,message", [
        (lambda entries: BinaryDist(*entries), 2, "BinaryDist: entries sum to {}, expected 1"),
        (JointDist, 4, "JointDist: entries sum to {}, expected 1"),
        (OnticTable, 8, "OnticTable: entries sum to {}, expected 1"),
    ], ids=["BinaryDist", "JointDist", "OnticTable"])
    @given(data=st.data())
    def test_accepted_iff_the_entries_sum_to_one(self, build, size, message, data):
        entries = tuple(data.draw(exact_tables(size)))
        total = sum(entries, F(0))
        if total == 1:
            build(entries)
        else:
            with pytest.raises(InvalidDistribution) as info:
                build(entries)
            assert str(info.value) == message.format(total)


def _reference_common_denominator(values):
    """The least common denominator by gcd folding, and each value times it."""
    scale = 1
    for v in values:
        scale = scale * v.denominator // math.gcd(scale, v.denominator)
    scaled = [v * scale for v in values]
    assert all(w.denominator == 1 for w in scaled)
    return scale, [w.numerator for w in scaled]


@st.composite
def shared_denominator_lists(draw):
    """Values over a few denominators, each used by several values: signs,
    integers (denominator 1) and repeats come up often."""
    dens = draw(st.lists(st.sampled_from((1, 2, 3, 4, 6, 7, 12, 999983, 10**6)), min_size=1, max_size=3))
    size = draw(st.integers(min_value=0, max_value=12))
    return [F(draw(st.integers(min_value=-(10**7), max_value=10**7)), draw(st.sampled_from(dens))) for _ in range(size)]


class TestCommonDenominator:
    @given(st.one_of(st.lists(st.fractions(max_denominator=10**6), max_size=12), shared_denominator_lists()))
    def test_numerators_over_the_lcm(self, values):
        scale, numerators = _common_denominator(values)
        assert (scale, numerators) == _reference_common_denominator(values)
        assert type(scale) is int and all(type(n) is int for n in numerators)
        assert [F(n, scale) for n in numerators] == values

    @pytest.mark.parametrize("values,expected", [
        ([F(-3), F(2), F(0)], (1, [-3, 2, 0])),
        ([F(1, 6), F(-1, 6), F(5, 6)], (6, [1, -1, 5])),
        ([F(1, 4), F(-2, 9), F(3)], (36, [9, -8, 108])),
    ], ids=["integers", "repeated", "unrelated"])
    def test_worked_cases(self, values, expected):
        assert _common_denominator(values) == expected == _reference_common_denominator(values)

    def test_nothing_is_over_one(self):
        assert _common_denominator([]) == (1, []) == _reference_common_denominator([])


def _reference_check(values, names, what):
    """The message of the first failing check of an exact distribution, or None:
    each value in [0, 1], in order, then a sum of 1, in Fraction arithmetic."""
    for name, v in zip(names, values):
        if not 0 <= v <= 1:
            return f"{name}: probability {_show(v)} outside [0, 1]"
    total = sum(values, F(0))
    return None if total == 1 else f"{what}: entries sum to {_show(total)}, expected 1"


@st.composite
def exact_distributions(draw):
    """2, 4 or 8 Fractions over equal, unrelated or nested denominators: the
    last value makes the sum 1, then perhaps one value is negated, raised
    past 1, or moved by 1/D for D the lcm of the denominators."""
    size = draw(st.sampled_from((2, 4, 8)))
    kind = draw(st.sampled_from(("equal", "unrelated", "nested")))
    if kind == "equal":
        dens = [draw(st.sampled_from((7, 13, 999983)))] * size
    elif kind == "unrelated":
        dens = draw(st.permutations((2, 3, 5, 7, 11, 13, 17, 19, 999983)))[:size]
    else:
        dens = [6 ** draw(st.integers(min_value=0, max_value=6)) for _ in range(size)]
    values = [F(draw(st.integers(min_value=0, max_value=d // size)), d) for d in dens[:-1]]
    values.append(1 - sum(values, F(0)))
    defect = draw(st.sampled_from(("none", "negative", "above one", "off by 1/D")))
    i = draw(st.integers(min_value=0, max_value=size - 1))
    if defect == "negative":
        values[i] = -values[i] or F(-1, dens[i])
    elif defect == "above one":
        values[i] += 1
    elif defect == "off by 1/D":
        values[i] += draw(st.sampled_from((1, -1))) * F(1, math.lcm(*dens))
    return tuple(values)


class TestCheckDistribution:
    NAMES = tuple(f"T[{i}]" for i in range(8))

    def check(self, values):
        try:
            _check_distribution(values, self.NAMES[: len(values)], "T")
        except InvalidDistribution as error:
            return str(error)
        return None

    @given(exact_distributions())
    @settings(max_examples=300)
    def test_refused_exactly_as_the_reference_refuses(self, values):
        assert self.check(values) == _reference_check(values, self.NAMES, "T")

    @pytest.mark.parametrize("values,expected", [
        ((F(-1, 2), F(3, 2)), "T[0]: probability -1/2 outside [0, 1]"),
        ((F(3, 2), F(-1, 2)), "T[0]: probability 3/2 outside [0, 1]"),
        ((F(1, 4), F(0), F(5, 4), F(-1, 2)), "T[2]: probability 5/4 outside [0, 1]"),
        ((F(1, 8),) * 5 + (F(-1, 8), F(9, 8), F(-5, 8)), "T[5]: probability -1/8 outside [0, 1]"),
    ], ids=["negative-first", "above-one-first", "middle", "eight"])
    def test_the_first_value_out_of_range_is_named(self, values, expected):
        assert sum(values) == 1  # only the range check can fail
        assert self.check(values) == expected == _reference_check(values, self.NAMES, "T")


#: Significant digits for a literal: short ones, powers of 2 and of 5 (which
#: cancel against a negative exponent), and runs about as long as the
#: default limit of 4 300 digits.
_CORES = st.sampled_from(["1", "7", "5", "25", "625", "2", "64", "1024", "10", "123", str(5**6149), str(2**14270)])
_CORES |= st.builds(str.__mul__, st.sampled_from("157"), st.integers(4298, 4301))
_ZEROS = st.sampled_from([0, 1, 2, 4299, 4400]).map("0".__mul__)


@st.composite
def _literals(draw):
    """A literal with leading and trailing zeros, '.', 'e', '/', signs,
    underscores and spaces, and the digit runs whose length the rule bounds:
    p and q, or a decimal's digits."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    if draw(st.booleans()):
        tail = draw(_ZEROS)  # trailing zeros of p, which q shares or not
        p = draw(_ZEROS) + draw(_CORES | st.just("")) + tail
        q = draw(_ZEROS) + draw(_CORES | st.just("0")) + draw(st.just(tail) | _ZEROS)
        text, parts = f"{sign}{p}/{q}", (p, q)
    else:
        digits = draw(_ZEROS) + draw(_CORES) + draw(_ZEROS)
        cut = draw(st.integers(0, len(digits))) if draw(st.booleans()) else len(digits)
        mantissa = digits[:cut] + "." + digits[cut:] if cut < len(digits) or draw(st.booleans()) else digits
        # the value is the core times 10**shift: aim near the limit either way, and most often just
        # past -limit, where the core's factors of 2 or 5 decide whether the denominator fits
        if draw(st.booleans()):
            shift = draw(st.integers(-4306, -4298))
        else:
            shift = draw(st.integers(-3, 3) | st.integers(4290, 4305) | st.integers(-13000, 13000))
        exponent = shift + (len(digits) - cut) - (len(digits) - len(digits.rstrip("0")))
        spelled = draw(st.sampled_from(["", "+"])) if exponent >= 0 else "-"
        spelled += draw(_ZEROS) + str(abs(exponent))
        text = sign + mantissa + (draw(st.sampled_from("eE")) + spelled if exponent or draw(st.booleans()) else "")
        parts = (digits,)
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):  # spoil it, or not: Fraction decides
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from("_ x")) + text[i:]
    if draw(st.booleans()):
        text = text.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"))
    return text, parts


def _reference(text: str, parts: tuple[str, ...]):
    """``Fraction(text)`` with no digit limit, or None where Fraction refuses
    the spelling; then whether the value and the bounded parts fit: p and q
    once their common factors of 10 are divided out, or a decimal's digits
    without their trailing zeros."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        try:
            value = F(text)
        except (ValueError, ZeroDivisionError):
            return None, False
        if len(parts) == 1:
            sizes = [len(str(int(parts[0])).rstrip("0"))]
        else:
            p, q = (int(part or "0") for part in parts)
            common = str(math.gcd(p, q))  # 10**z divides p and q exactly when it divides their gcd
            tens = 10 ** (len(common) - len(common.rstrip("0")))
            sizes = [len(str(p // tens)), len(str(q // tens))]
        fits = max(abs(value.numerator), value.denominator) < 10**limit and max(sizes) <= limit
        return value, fits
    finally:
        sys.set_int_max_str_digits(limit)


class TestRationalLiterals:
    @given(_literals())
    @settings(max_examples=200, deadline=None)
    def test_accepted_exactly_when_fraction_reads_it_and_the_value_fits(self, literal):
        text, parts = literal
        value, fits = _reference(text, parts)
        if value is None:
            with pytest.raises(ValueError, match="^not a rational literal"):
                parse_rational(text)
        elif not fits:
            with pytest.raises(ValueError, match="^rational literal needs more than 4300 digits$"):
                parse_rational(text)
        else:
            assert parse_rational(text) == value

    @pytest.mark.parametrize("text,value", [
        ("100e-4300", F(1, 10**4298)),
        ("1000e-4302", F(1, 10**4299)),
        ("0001e4297", F(10**4297)),
        ("0" * 4400 + "1", F(1)),
        ("1." + "0" * 4400, F(1)),
        ("1/" + "0" * 4400 + "3", F(1, 3)),
        ("5e-4300", F(1, 2 * 10**4299)),
        ("-25e-4301", F(-1, 4 * 10**4299)),
        ("2" + "0" * 4400 + "/1" + "0" * 4400, F(2)),
        ("2" + "0" * 4400 + "/4" + "0" * 4399, F(5)),
        ("0/1" + "0" * 4400, F(0)),
    ], ids=["100e-4300", "1000e-4302", "0001e4297", "leading_zeros", "trailing_zeros", "denominator_zeros",
            "five_cancels", "twenty_five_cancels", "common_tens_cancel", "the_fewer_tens_cancel", "zero_over_tens"])
    def test_the_value_is_counted_not_the_spelling(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", [
        "3" * 4301 + "/" + "3" * 4301,
        "2" * 4301 + "0/1" + "0" * 4400,
        "0/" + "3" * 4301,
    ], ids=["common_threes", "too_long_after_the_tens", "zero_over_threes"])
    def test_a_common_factor_other_than_ten_is_not_cancelled(self, text):
        with pytest.raises(ValueError, match="^rational literal needs more than 4300 digits$"):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["5e-4301", "1" + "0" * 4300, "1/1" + "0" * 4300, "7" * 4301 + "e-1"])
    def test_a_value_one_digit_too_long_is_refused(self, text):
        with pytest.raises(ValueError, match="^rational literal needs more than 4300 digits$"):
            parse_rational(text)

    def test_an_exponent_too_long_to_read_is_refused(self):
        # the exponent's own 4301 digits are counted before it is read as an int
        with pytest.raises(ValueError, match="^rational literal needs more than 4300 digits$"):
            parse_rational("1e" + "9" * 4301)

    def test_a_value_that_prints_parses_back(self):
        limit = sys.get_int_max_str_digits()
        top = 10**limit  # the least integer with one digit too many
        twos = top.bit_length() - 1  # 2**twos < top
        fives = next(j for j in itertools.count(int(limit / math.log10(5)), -1) if 5**j < top)
        for value in (F(top - 1), F(1, top // 10), F(-(top - 1), 2**twos), F(5**fives, top - 3), F(1, 2 * top // 10)):
            assert parse_rational(format_rational(value)) == value
        for value in (F(top), F(1, top), F(1, 2 ** (twos + 1))):
            with pytest.raises(OversizedRational):
                format_rational(value)
        for text in (f"1e{limit}", f"1e-{limit}", f"5e-{limit + 1}"):
            with pytest.raises(ValueError, match="digits"):
                parse_rational(text)

    @pytest.mark.parametrize("text,value", [("1/3", F(1, 3)), ("1", F(1)), ("0", F(0)), ("7/7", F(1))])
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_rational("one third")

    @pytest.mark.parametrize("text", ["0e-5000", "0e5000", "-0.000e-9000", "0E+12345", "\u0660e-5000"])
    def test_a_zero_mantissa_is_zero_whatever_its_exponent(self, text):
        value = parse_rational(text)
        assert value == 0 and type(value) is F

    @pytest.mark.parametrize("text,reason", [
        ("0e-5000x", "not a rational literal"),
        ("0e", "not a rational literal"),
        ("0 e5", "not a rational literal"),
        ("1e-5000", "rational literal needs more than 4300 digits"),
    ])
    def test_other_long_exponents_stay_refused(self, text, reason):
        with pytest.raises(ValueError, match=f"^{reason}"):
            parse_rational(text)

    @pytest.mark.parametrize("longest,refused", [
        ("1e4299", "1e4300"),
        (".1e-4298", ".1e-4299"),
        ("1" * 2150 + "." + "1" * 2150, "1" * 2150 + "." + "1" * 2151),
    ], ids=["exponent", "negative_exponent", "decimal"])
    def test_literals_too_long_to_print_are_refused(self, longest, refused):
        value = parse_rational(longest)
        assert parse_rational(format_rational(value)) == value
        with pytest.raises(ValueError, match="digits"):
            parse_rational(refused)

    @pytest.mark.parametrize("value,text", [(F(1, 3), "1/3"), (F(2), "2"), (F(0), "0"), (-3, "-3")])
    def test_format(self, value, text):
        assert format_rational(value) == text

    @pytest.mark.parametrize("value,reason", [
        (0.1, "floats are inexact; pass Fraction or int entries"),
        (True, "expected Fraction or int, got bool"),
        ("1/3", "expected Fraction or int, got str"),
    ], ids=["float", "bool", "str"])
    def test_format_obeys_the_exact_input_rule(self, value, reason):
        with pytest.raises(TypeError, match=f"^format_rational: {reason}$"):
            format_rational(value)

    def test_results_too_long_to_print_are_a_domain_error(self):
        longest = parse_rational("1/1" + "0" * 4299)  # a 4 300-digit denominator still prints
        assert parse_rational(format_rational(longest)) == longest
        with pytest.raises(OversizedRational, match="more than 4300 digits"):
            format_rational(longest / 10)
        with pytest.raises(OversizedRational):
            to_json({"p": longest * longest})

    @given(rational_prob(max_den=997))
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestToJson:
    def test_dataclass_fields_become_keys_and_fractions_strings(self):
        assert to_json(GeneralParams(F(1, 3), F(1, 2), 1)) == {"x": "1/3", "e_p": "1/2", "e_w": "1"}

    def test_real_mode_values_pass_through(self):
        assert to_json(GeneralParams(0.25, 0.5, 1.0)) == {"x": 0.25, "e_p": 0.5, "e_w": 1.0}

    def test_containers_enums_and_own_forms(self):
        class Kind(enum.Enum):
            A = "Alpha"

        class Own:
            def to_json_dict(self):
                return {"own": "form"}

        value = {"pair": (F(1, 2), [True, None]), "kind": Kind.A, "own": Own(), "n": 3, "s": "text"}
        assert to_json(value) == {
            "pair": ["1/2", [True, None]], "kind": "Alpha", "own": {"own": "form"}, "n": 3, "s": "text",
        }


class _FractionSubclass(Fraction):
    pass


def named_system(matrix, rhs) -> LinearSystem:
    """A system whose rows are named ``row 0``, ``row 1``, ... after its right-hand sides."""
    return LinearSystem(matrix, rhs, tuple(f"row {i}" for i in range(len(rhs))))


#: One x = 1/2 row, so that both 1 and 1/2 are a point, a certificate and a matrix entry.
ONE_ROW = named_system(((F(1),),), (F(1, 2),))

#: A family whose s range is [0, 1/2]: x = 3/4, e_p = 2/3.
HALF_S = solve_family(GeneralParams(F(3, 4), F(2, 3), F(1, 2)))

#: A family whose t range is [0, 1/2]: x = 1/4, e_w = 2/3.
HALF_T = solve_family(GeneralParams(F(1, 4), F(1, 2), F(2, 3)))

#: Each exact entry point, with the value under test in one slot; the other
#: slots are exact, computed from ``F(v)`` where a total must be 1.
EXACT_ENTRY_POINTS = {
    "LinearSystem.matrix": lambda v: named_system(((v,),), (F(1, 2),)),
    "LinearSystem.rhs": lambda v: named_system(((F(1),),), (v,)),
    "residual": lambda v: residual(ONE_ROW, (v,)),
    "verify_certificate": lambda v: verify_certificate(ONE_ROW, (v,)),
    "matrix_rank": lambda v: matrix_rank(((v,),)),
    "OnticTable": lambda v: OnticTable((v, 1 - F(v), 0, 0, 0, 0, 0, 0)),
    "instantiate": lambda v: instantiate(HALF_S, v, 0),
    "instantiate.t": lambda v: instantiate(HALF_T, 0, v),
    "Setting.x": lambda v: Setting("a", v),
    "SettingsFamily.e_p": lambda v: SettingsFamily(v, F(1, 4), (Setting("a", F(1, 3)),)),
    "SettingsFamily.e_w": lambda v: SettingsFamily(F(1, 4), v, (Setting("a", F(1, 3)),)),
    "OutcomeAtom.weight": lambda v: OutcomeAtom(((0, 0),), v),
    # exact mode: no float among the values
    "BinaryDist": lambda v: BinaryDist(v, 1 - F(v)),
    "JointDist": lambda v: JointDist((v, 1 - F(v), 0, 0)),
    "GeneralParams": lambda v: GeneralParams(v, F(1, 2), F(1, 2)),
    "GeneralParams.e_p": lambda v: GeneralParams(F(1, 2), v, F(1, 2)),
    "GeneralParams.e_w": lambda v: GeneralParams(F(1, 2), F(1, 2), v),
    "format_rational": format_rational,
}

#: The dist containers take a float into real mode, so only the others refuse one.
REAL_MODE_CAPABLE = {"BinaryDist", "JointDist", "GeneralParams", "GeneralParams.e_p", "GeneralParams.e_w"}


class TestExactInputRule:
    """Every exact entry point takes a value of type exactly Fraction or int, and nothing else."""

    @pytest.mark.parametrize("entry", EXACT_ENTRY_POINTS)
    @pytest.mark.parametrize("value", [True, "1/2", Decimal("0.5"), np.int64(1), _FractionSubclass(1, 2)],
                             ids=["bool", "str", "Decimal", "numpy.int64", "Fraction-subclass"])
    def test_other_types_are_refused_by_name(self, entry, value):
        with pytest.raises(TypeError, match=f"expected Fraction or int, got {type(value).__name__}$"):
            EXACT_ENTRY_POINTS[entry](value)

    @pytest.mark.parametrize("entry", sorted(set(EXACT_ENTRY_POINTS) - REAL_MODE_CAPABLE))
    def test_floats_are_refused_as_inexact(self, entry):
        with pytest.raises(TypeError, match="floats are inexact; pass Fraction or int entries$"):
            EXACT_ENTRY_POINTS[entry](0.5)

    @pytest.mark.parametrize("build", [
        lambda v: BinaryDist(v, 0.5),
        lambda v: JointDist((v, 0.5, 0.0, 0.0)),
        lambda v: GeneralParams(v, 0.5, 0.5),
    ], ids=["BinaryDist", "JointDist", "GeneralParams"])
    @pytest.mark.parametrize("value", [True, "1/2"], ids=["bool", "str"])
    def test_real_mode_refuses_what_is_not_a_number(self, build, value):
        # a float makes the container real mode, which takes int, Fraction and float
        with pytest.raises(TypeError, match=f"expected int, Fraction, or float, got {type(value).__name__}$"):
            build(value)

    @pytest.mark.parametrize("entry", EXACT_ENTRY_POINTS)
    @pytest.mark.parametrize("value", [1, F(1, 2)], ids=["int", "Fraction"])
    def test_ints_and_fractions_are_taken(self, entry, value):
        if entry in ("instantiate", "instantiate.t") and value == 1:
            # every s and t of a family lies below 1: the rule takes 1, the range check refuses it
            name = "t" if entry == "instantiate.t" else "s"
            with pytest.raises(OutOfRange, match=rf"^{name} = 1 outside \[0, 1/2\]$"):
                EXACT_ENTRY_POINTS[entry](value)
        else:
            EXACT_ENTRY_POINTS[entry](value)

    def test_a_string_is_refused_before_any_number_is_built(self):
        # Fraction("1e-1000000") alone would build a 3.3-million-bit denominator
        tracemalloc.start()
        try:
            with pytest.raises(TypeError, match="got str$"):
                Setting("a", "1e-1000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_taken_values_are_stored_as_fractions(self):
        # a Fraction passes through as the same object
        half = F(1, 2)
        assert named_system(((half, 1),), (0,)).matrix[0][0] is half
        for value in (Setting("a", 1).x, *JointDist((1, 0, 0, 0)).entries, *instantiate(HALF_S, 0, 0).entries):
            assert type(value) is Fraction

    def test_an_all_fraction_tuple_comes_back_as_itself(self):
        row = (F(1, 2), F(0), F(-3, 7))
        assert _as_fraction_row(row, "row") is row
        assert _as_fraction_row(list(row), "row") == row
        converted = _as_fraction_row((F(1, 2), 3, 0), "row")
        assert converted == (F(1, 2), F(3), F(0))
        assert [type(v) for v in converted] == [Fraction] * 3
        with pytest.raises(TypeError, match="^row: floats are inexact; pass Fraction or int entries$"):
            _as_fraction_row(row + (0.5,), "row")
        with pytest.raises(TypeError, match="^row: expected Fraction or int, got bool$"):
            _as_fraction_row(row + (True,), "row")


UNIFORM_JOINT = JointDist((F(1, 4),) * 4)
UNIFORM_TABLE = OnticTable((F(1, 8),) * 8)

#: Each outcome entry point, with the outcome under test in one slot, and
#: the message that refuses it there.
BIT_ENTRY_POINTS = {
    "JointDist.entry": (lambda v: UNIFORM_JOINT.entry(v, 0), "outcomes must be bits, got (a={v}, b=0)"),
    "conditional_a_given_b": (lambda v: conditional_a_given_b(UNIFORM_JOINT, v), "b must be a bit, got {v}"),
    "cell_index": (lambda v: cell_index(0, v, "p"), "outcomes must be bits, got (a=0, b={v})"),
    "OnticTable.mass": (lambda v: UNIFORM_TABLE.mass(v, 1, "w"), "outcomes must be bits, got (a={v}, b=1)"),
    "OutcomeAtom": (lambda v: OutcomeAtom(((0, v),), 1), "assignments must be outcome-pair bits, got ((0, {v}),)"),
}


class TestBitRule:
    """Every outcome entry point takes the int 0 or 1, and refuses a bool or float equal to one."""

    @pytest.mark.parametrize("entry", BIT_ENTRY_POINTS)
    @pytest.mark.parametrize("value", [True, 1.0, False, 0.0])
    def test_bools_and_floats_are_refused(self, entry, value):
        build, message = BIT_ENTRY_POINTS[entry]
        with pytest.raises(ValueError) as info:
            build(value)
        assert str(info.value) == message.format(v=value)

    @pytest.mark.parametrize("entry", BIT_ENTRY_POINTS)
    @pytest.mark.parametrize("value", [0, 1])
    def test_int_bits_are_taken(self, entry, value):
        build, _ = BIT_ENTRY_POINTS[entry]
        build(value)


#: Past the 4 300 digits that str() of an int allows.
C = F(1, 10**5000)
TOO_LONG = "(an exact result needs more than 4300 digits to print)"


class TestNumbersTooLongToPrint:
    """A message shows a number too long to print by the reason, and is still raised as its own class."""

    def test_show(self):
        assert _show(F(-1, 3)) == "-1/3"
        assert _show(F(2)) == "2"
        assert _show(C) == TOO_LONG

    def test_joint_with_a_negative_entry(self):
        with pytest.raises(InvalidDistribution) as info:
            JointDist((-C, 1, 0, C))
        assert str(info.value) == f"JointDist.entries[0]: probability {TOO_LONG} outside [0, 1]"

    def test_joint_whose_sum_is_off(self):
        with pytest.raises(InvalidDistribution) as info:
            JointDist((C, 1, 0, 0))
        assert str(info.value) == f"JointDist: entries sum to {TOO_LONG}, expected 1"
