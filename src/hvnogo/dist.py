"""Binary-outcome probability primitives in exact or floating arithmetic.

Conventions
-----------
Every distribution in this package is over one or two binary outcomes.  A
joint over (a, b) is stored as a flat 4-tuple in alphanumeric order of the
outcome pair::

    index 0: ab = 00      index 2: ab = 10
    index 1: ab = 01      index 3: ab = 11

so ``entries[2*a + b]`` is the probability of detector outcomes (a, b).
This ordering is frozen; every module and file format uses it.  An
outcome is a bit: 0 or 1 of type exactly ``int`` (:func:`_is_bit_pair`),
so a bool, or a float such as 1.0, is refused.

Scalar kinds
------------
Probabilities are either exact rationals (``fractions.Fraction``) or
double-precision floats, never a mix inside one container.  Constructors
promote: if any input value is a float the whole container becomes float
("real mode"); otherwise ints and Fractions are stored as Fractions
("exact mode").  The hidden-variable pipeline works in exact mode, where
all identities hold with zero residual; the quantum pipeline works in real
mode because squared cosines are generically irrational.

Every exact input, here and in the exact layers, obeys one rule
(:func:`_as_fraction_row`): a value of type exactly ``Fraction`` or
``int`` is taken, and anything else (a float, bool, str, Decimal, numpy
integer or subclass) raises ``TypeError``.

All real-mode invariant checks use the single tolerance ``REAL_TOL``.

Any joint can be traded for three independent parameters: the detector-b
marginal ``x = P(b=0)`` and the two conditional a-distributions
``(e_p, 1-e_p) = P(a | b=0)`` and ``(e_w, 1-e_w) = P(a | b=1)``.  In the
delayed-choice reading, b selects the apparatus configuration, e_p is the
particle-statistics weight and e_w the wave-statistics weight.
"""

from __future__ import annotations

import enum
import math
import re
import sys
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import ConditionOnNull, InvalidDistribution, OversizedRational

Scalar = Union[Fraction, float]

#: Single tolerance used by every float-mode invariant check in the package.
REAL_TOL = 1e-12


#: A run of decimal digits, as ``Fraction``'s grammar reads one (``\d``).
_DIGIT_RUN = re.compile(r"\d+")


def parse_rational(text: str) -> Fraction:
    """Parse the rational literal format "p/q", with integer shorthand "p".

    >>> parse_rational("1/3")
    Fraction(1, 3)
    >>> parse_rational("2")
    Fraction(2, 1)

    The grammar is ``Fraction``'s.  A literal is accepted when the
    numerator and the denominator of its value each print within
    ``sys.get_int_max_str_digits()`` digits, so "100e-4300" (1/10^4298),
    "0001e4297" and "0e-5000" (0) are read.  That is decided from the
    significant digits, in time linear in the spelling, before any number
    longer than the limit is built.  So the limit also binds two parts of
    the spelling: p and q in "p/q" without their leading zeros and their
    common trailing zeros (so "2" + "0" * 4400 + "/1" + "0" * 4400 is 2),
    and a decimal's digits without their leading and trailing zeros; a
    literal is refused when either is too long, even where a common factor
    other than a power of ten would shrink the value.
    """
    literal = text.strip()
    try:
        Fraction(_DIGIT_RUN.sub("1", literal))  # the grammar alone: every digit run read as "1"
    except ValueError:
        raise ValueError(f"not a rational literal: {text!r}") from None
    limit = sys.get_int_max_str_digits() or math.inf
    body = literal.lstrip("+-")
    if "/" in body:
        p, q = (_without_leading_zeros(part.strip()) for part in body.split("/"))
        if not q:
            raise ValueError(f"not a rational literal: {text!r}")
        # p/q = (p/10**z)/(q/10**z); a zero p ("") takes any z
        z = _trailing_zeros(q) if not p else min(_trailing_zeros(p), _trailing_zeros(q))
        p, q = p[: len(p) - z], q[: len(q) - z]
        if max(len(p), len(q)) > limit:
            raise _too_long(limit)
        value = Fraction(int(p or "0"), int(q))
    else:
        mantissa, _, exponent = body.lower().partition("e")
        whole, _, decimals = mantissa.partition(".")
        decimals = decimals.replace("_", "")
        digits = _without_leading_zeros(whole + decimals)
        significant = _without_leading_zeros(digits[::-1])[::-1]
        if not significant:
            return Fraction(0)
        exponent_digits = _without_leading_zeros(exponent.lstrip("+-"))
        if len(exponent_digits) > limit:
            raise _too_long(limit)
        shift = int(exponent_digits or "0") * (-1 if exponent.startswith("-") else 1)
        value = _decimal_value(significant, shift + len(digits) - len(significant) - len(decimals), limit)
    return -value if literal.startswith("-") else value


def _without_leading_zeros(digits: str) -> str:
    """A run of decimal digits, ASCII or not, and underscores, without the
    underscores and the leading zeros; "" for zero."""
    digits = digits.replace("_", "")
    return digits[next((i for i, c in enumerate(digits) if int(c)), len(digits)) :]


def _trailing_zeros(digits: str) -> int:
    """How many zeros, ASCII or not, end a run of decimal digits."""
    return len(digits) - len(_without_leading_zeros(digits[::-1]))


def _too_long(limit: int) -> ValueError:
    return ValueError(f"rational literal needs more than {limit} digits")


def _decimal_value(significant: str, shift: int, limit: float) -> Fraction:
    """The decimal digits ``significant``, with no leading or trailing
    zero, times 10**shift.

    Raises ``ValueError`` when the value's numerator or denominator needs
    more than ``limit`` digits, before any number that long is built.  For
    shift = -d the digits' integer m is reduced by hand: g = gcd(m, 10**d)
    is a power of 2 or of 5 (m is no multiple of 10), and the denominator
    10**d / g fits exactly when d < limit or 10**(d - limit) < g.
    """
    if len(significant) > limit:
        raise _too_long(limit)
    m = int(significant)
    if shift >= 0:
        if len(significant) + shift > limit:
            raise _too_long(limit)
        return Fraction(m * 10**shift)
    d = -shift
    if d - limit >= len(significant):  # 10**(d - limit) > m >= g
        raise _too_long(limit)
    twos = min((m & -m).bit_length() - 1, d)
    rest, fives = m >> twos, 0
    while fives < d and rest % 5 == 0:
        rest, fives = rest // 5, fives + 1
    if d >= limit and 10 ** (d - limit) >= 5**fives << twos:
        raise _too_long(limit)
    return Fraction(rest, 5 ** (d - fives) << (d - twos))


def format_rational(value: Fraction) -> str:
    """Inverse of :func:`parse_rational`; integers print without "/1".

    ``value`` obeys the exact-input rule (:func:`_as_fraction_row`), so a
    float, bool or str raises ``TypeError``.

    Raises :class:`OversizedRational` when the numerator or denominator
    has more than ``sys.get_int_max_str_digits()`` digits: a product of
    legal inputs can outgrow what an input may hold.
    """
    value = _as_fraction_row((value,), "format_rational")[0]
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise OversizedRational(f"an exact result needs more than {limit} digits to print") from None


def _show(value: Fraction) -> str:
    """``value`` in a message: its :func:`format_rational` text, or where
    that is too long to print, the :class:`OversizedRational` reason in
    parentheses.  Never raises for an exact value, so every message can be
    built."""
    try:
        return format_rational(value)
    except OversizedRational as exc:
        return f"({exc})"


def to_json(value):
    """The JSON form of a result; the CLI writes its JSON output through it.

    A Fraction becomes its "p/q" string, an enum its value, a value with a
    ``to_json_dict`` method that method's dict, a dataclass an object keyed
    by its field names, a tuple or list a list, and a dict a dict; each
    part is rendered the same way.  Anything else (str, int, float, bool,
    None) is already JSON and is returned as it is.
    """
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, enum.Enum):
        return value.value
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {key: to_json(v) for key, v in value.items()}
    return value


def _as_fraction_row(row, what: str) -> tuple[Fraction, ...]:
    """The exact-input rule: a value of type exactly Fraction passes through
    uncopied (Fractions are immutable), one of type exactly int becomes
    ``Fraction(v)``, and anything else (a float, bool, str, Decimal, numpy
    integer or subclass) raises ``TypeError``.

    When every value is already a Fraction, ``tuple(row)`` itself is
    returned, so a tuple of Fractions comes back as the same object; a
    converted tuple is built only when some value is an int.  No value is
    hashed: a caller that merges duplicates merges them by exact value as
    integers, as :func:`exactlp.enumerate_basic_solutions` merges its
    points' reduced ``(numerator, denominator)`` pairs before it builds any
    Fraction."""
    values = tuple(row)
    all_fractions = True
    for v in values:
        if type(v) is not Fraction:
            if type(v) is not int:
                if isinstance(v, float):
                    raise TypeError(f"{what}: floats are inexact; pass Fraction or int entries")
                raise TypeError(f"{what}: expected Fraction or int, got {type(v).__name__}")
            all_fractions = False
    if all_fractions:
        return values
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def _coerce_homogeneous(values, what: str) -> tuple[Scalar, ...]:
    """Coerce a sequence of numbers to one scalar kind.

    Floats force the whole container to real mode; otherwise everything is
    stored exactly, under :func:`_as_fraction_row`'s rule.  A tuple whose
    values are all of type exactly ``Fraction`` is returned as it is,
    without a scan for floats.
    """
    vals = tuple(values)
    for v in vals:
        if type(v) is not Fraction:
            break
    else:
        return vals
    if not any(isinstance(v, float) for v in vals):
        return _as_fraction_row(vals, what)
    for v in vals:
        if isinstance(v, bool) or not isinstance(v, (int, float, Fraction)):
            raise TypeError(f"{what}: expected int, Fraction, or float, got {type(v).__name__}")
    return tuple(float(v) for v in vals)


def _as_probability(value, what: str) -> Fraction:
    """One exact probability: :func:`_as_fraction_row`'s rule, then 0 <= p <= 1."""
    p = value if type(value) is Fraction else _as_fraction_row((value,), what)[0]
    _check_probability(p, what)
    return p


def _check_probability(p: Scalar, what: str) -> None:
    if type(p) is Fraction:
        if p.numerator < 0 or p.numerator > p.denominator:
            raise InvalidDistribution(f"{what}: probability {_show(p)} outside [0, 1]")
    elif not math.isfinite(p):
        raise InvalidDistribution(f"{what}: probability is not finite")
    elif p < -REAL_TOL or p > 1 + REAL_TOL:
        raise InvalidDistribution(f"{what}: probability {p!r} outside [0, 1] beyond tolerance")


#: The outcome pairs (a, b) in entry order.
_OUTCOME_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _is_bit_pair(pair) -> bool:
    """The bit rule: ``pair`` is an outcome pair (a, b) whose a and b are
    each 0 or 1 of type exactly int, so ``(True, 0)`` and ``(1.0, 0)`` are not."""
    return pair in _OUTCOME_PAIRS and type(pair[0]) is type(pair[1]) is int


def _common_denominator(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """Exact ``values`` n_i/d_i over one denominator, in integers.

    Returns D, the lcm of the d_i, and each value's numerator over D,
    ``n_i * (D // d_i)``.  An empty ``values`` gives ``(1, [])``.  Each
    value's pair (n_i, d_i) is read once, by ``as_integer_ratio()``, and
    the lcm and the quotients ``D // d`` are taken once per distinct
    denominator, so repeated denominators cost nothing more.
    """
    pairs = [v.as_integer_ratio() for v in values]
    dens = {d for _, d in pairs}
    scale = math.lcm(*dens)
    factors = {d: scale // d for d in dens}
    return scale, [n * factors[d] for n, d in pairs]


def _check_distribution(values: tuple[Scalar, ...], names: tuple[str, ...], what: str) -> None:
    """The one validation pass over a distribution's coerced ``values``:
    one value per name of ``names``, each a probability, and a sum of 1.
    Exact values are decided in integers, in one in-order scan that reads
    each value's pair (n, d) once: a value is out of [0, 1] when
    ``n < 0 or n > d``, and the first such value is named.  The sum is one
    running numerator and denominator, as :func:`exactlp.residual` sums a
    row; a value whose denominator divides the running one does not grow
    it, and the sum is 1 when the two are equal.  A message is built only
    for the check that fails."""
    if len(values) != len(names):
        raise InvalidDistribution(f"{what} needs {len(names)} entries, got {len(values)}")
    if type(values[0]) is Fraction:
        num, den = 0, 1
        for name, p in zip(names, values):
            n, d = p.as_integer_ratio()
            if n < 0 or n > d:
                _check_probability(p, name)
            if d == den:
                num += n
            elif den % d:
                num, den = num * d + n * den, den * d
            else:
                num += n * (den // d)
        if num != den:
            raise InvalidDistribution(f"{what}: entries sum to {_show(sum(values))}, expected 1")
        return
    for name, p in zip(names, values):
        _check_probability(p, name)
    total = sum(values)
    if abs(total - 1.0) > REAL_TOL:
        raise InvalidDistribution(f"{what}: entries sum to {total!r}, expected 1 within {REAL_TOL}")


#: Each value's name in :class:`BinaryDist`'s messages.
_BINARY_NAMES = ("BinaryDist.p0", "BinaryDist.p1")


@dataclass(frozen=True)
class BinaryDist:
    """Probability distribution over one binary outcome."""

    p0: Scalar
    p1: Scalar

    def __post_init__(self):
        values = _coerce_homogeneous((self.p0, self.p1), "BinaryDist")
        object.__setattr__(self, "p0", values[0])
        object.__setattr__(self, "p1", values[1])
        _check_distribution(values, _BINARY_NAMES, "BinaryDist")

    def as_tuple(self) -> tuple[Scalar, Scalar]:
        return (self.p0, self.p1)


#: Each entry's name in :class:`JointDist`'s messages.
_JOINT_NAMES = tuple(f"JointDist.entries[{i}]" for i in range(4))


@dataclass(frozen=True)
class JointDist:
    """Joint distribution over detector outcomes (a, b), order 00, 01, 10, 11.

    Every construction checks, in this order: the entry types
    (:func:`_coerce_homogeneous`), then the count of 4, each entry's range
    and the sum, in one pass (:func:`_check_distribution`) that builds a
    message only for the check that fails.
    """

    entries: tuple[Scalar, Scalar, Scalar, Scalar]

    def __post_init__(self):
        entries = _coerce_homogeneous(self.entries, "JointDist")
        object.__setattr__(self, "entries", entries)
        _check_distribution(entries, _JOINT_NAMES, "JointDist")

    def entry(self, a: int, b: int) -> Scalar:
        """Probability of the outcome pair (a, b)."""
        if not _is_bit_pair((a, b)):
            raise ValueError(f"outcomes must be bits, got (a={a}, b={b})")
        return self.entries[2 * a + b]


@dataclass(frozen=True)
class GeneralParams:
    """The three-parameter representation (x, e_p, e_w) of a joint.

    x is the probability of b=0; e_p and e_w are the probabilities of a=0
    conditional on b=0 and b=1 respectively.
    """

    x: Scalar
    e_p: Scalar
    e_w: Scalar

    def __post_init__(self):
        values = _coerce_homogeneous((self.x, self.e_p, self.e_w), "GeneralParams")
        for name, value in zip(("x", "e_p", "e_w"), values):
            object.__setattr__(self, name, value)
            _check_probability(value, f"GeneralParams.{name}")


def joint_from_params(params: GeneralParams) -> JointDist:
    """Reconstruct the joint from (x, e_p, e_w): :func:`_joints_at` at the one x.

    Returns (x*e_p, (1-x)*e_w, x*(1-e_p), (1-x)*(1-e_w)): the b-marginal is
    (x, 1-x) and the conditional a-distributions are (e_p, 1-e_p) at b=0 and
    (e_w, 1-e_w) at b=1.
    """
    return _joints_at((params.x,), params.e_p, params.e_w)[0]


def _joints_at(xs: Sequence[Scalar], e_p: Scalar, e_w: Scalar) -> tuple[JointDist, ...]:
    """The package's one joint formula: the joint of each b-marginal x in
    ``xs``, in order, all sharing the conditionals (e_p, e_w).

    The joint is (x*e_p, (1-x)*e_w, x*(1-e_p), (1-x)*(1-e_w)), checked by
    :class:`JointDist` as every joint is.  In exact mode no Fraction
    operator runs: with x = a/b, e_p = n_p/d_p and e_w = n_w/d_w, each
    entry is one ``Fraction(n, d)`` of integer products, a*n_p/(b*d_p),
    (b-a)*n_w/(b*d_w), a*(d_p-n_p)/(b*d_p) and (b-a)*(d_w-n_w)/(b*d_w).
    In real mode 1-e_p and 1-e_w are formed once per call and 1-x once
    per x, and each entry is one float product.  The values must already
    be probabilities of one kind, as a :class:`GeneralParams` or a
    :class:`feasibility.SettingsFamily` holds them.
    """
    joints = []
    if type(e_p) is Fraction:
        n_p, d_p = e_p.as_integer_ratio()
        n_w, d_w = e_w.as_integer_ratio()
        m_p, m_w = d_p - n_p, d_w - n_w
        for x in xs:
            a, b = x.as_integer_ratio()
            c, bd_p, bd_w = b - a, b * d_p, b * d_w
            joints.append(JointDist((
                Fraction(a * n_p, bd_p), Fraction(c * n_w, bd_w), Fraction(a * m_p, bd_p), Fraction(c * m_w, bd_w),
            )))
        return tuple(joints)
    q_p, q_w = 1.0 - e_p, 1.0 - e_w
    for x in xs:
        y = 1.0 - x
        joints.append(JointDist((x * e_p, y * e_w, x * q_p, y * q_w)))
    return tuple(joints)


def marginal_b(joint: JointDist) -> BinaryDist:
    """Marginal distribution of the b outcome: (e00+e10, e01+e11)."""
    e00, e01, e10, e11 = joint.entries
    return BinaryDist(e00 + e10, e01 + e11)


def conditional_a_given_b(joint: JointDist, b: int) -> BinaryDist:
    """Conditional distribution of a given the b outcome (Bayes' rule).

    Raises :class:`ConditionOnNull` when the b-marginal is zero.
    """
    if not _is_bit_pair((0, b)):
        raise ValueError(f"b must be a bit, got {b}")
    top = joint.entry(0, b)
    bottom = joint.entry(1, b)
    norm = top + bottom
    if norm <= 0:
        raise ConditionOnNull(f"marginal probability of b={b} is zero")
    return BinaryDist(top / norm, bottom / norm)
