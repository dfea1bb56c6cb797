"""Desk-scale counting experiments against exact predictions.

Sampling is multinomial over the four-cell joint: the closed-form
statistics already fix the per-shot distribution, so no amplitude-level
path simulation is needed (the Born-rule agreement tests cover that
layer).

Randomness contract
-------------------
Shot ``i`` of seed ``s`` consumes the ``i``-th 64-bit output word ``w`` of
the Philox 4x64 counter-based generator keyed by ``s``, read as the uniform
u = (w >> 11) * 2^-53 in [0, 1) (the standard 53-bit rule).  Every count
is therefore a pure function of (distribution, shot range, seed), identical
on every platform, and disjoint shot ranges can be sampled in parallel and
merged: the result equals the sequential run bit for bit.

Cells are counted by threshold, not per shot: with normalized breakpoints
c_0 <= c_1 <= c_2, a draw counts ``below_j = #{u < c_j}`` for each j, and
the four cells hold ``below_0``, ``below_1 - below_0``,
``below_2 - below_1`` and ``n - below_2``.  A uniform equal to a
breakpoint lands in the upper cell, exactly where
``searchsorted(breakpoints, u, side="right")`` puts it.  No uniform is
ever formed: since (w >> 11) is an integer, u < c holds exactly when the
raw word satisfies w < ceil(c * 2^53) * 2^11, so each breakpoint becomes
one integer limit and the words are counted against it, 2^18 shots at a
time.

A sweep over phase values reuses one seed, giving point ``j`` the shot
range ``[j*shots, (j+1)*shots)``; it keys one generator and reads those
ranges from it in grid order.

:func:`compare` bounds its false-alarm rate with the Chernoff bound
rather than a normal approximation, so the bound holds even for cells
that expect far less than one count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .dist import JointDist
from .errors import EmptySample
from .quantum import quantum_joint

#: compare() fails when any cell's n*KL(c/n || q) exceeds this.  By the
#: Chernoff bound each of the eight one-sided cell tails passes it with
#: probability at most exp(-threshold), so a correct sample fails with
#: probability at most 5.7e-7, the two-sided 5-sigma normal tail.
NKL_THRESHOLD = math.log(8 / 5.7e-7)

#: The samplers draw at most this many shots at a time, so their memory
#: does not grow with the shot count; one chunk of words is 2 MiB, small
#: enough for the three comparisons to run in cache.
_CHUNK_SHOTS = 1 << 18


@dataclass(frozen=True)
class Counts4:
    """Detector coincidence counts, one per outcome pair (order 00, 01, 10, 11)."""

    n00: int
    n01: int
    n10: int
    n11: int

    def __post_init__(self):
        for name in ("n00", "n01", "n10", "n11"):
            _check_nonnegative(name, getattr(self, name))

    @property
    def total(self) -> int:
        return self.n00 + self.n01 + self.n10 + self.n11

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n00, self.n01, self.n10, self.n11)

    def frequencies(self) -> tuple[float, float, float, float]:
        n = self.total
        if n == 0:
            raise EmptySample("no events recorded")
        return tuple(c / n for c in self.as_tuple())


@dataclass(frozen=True)
class SweepRow:
    """One phase point of a fringe sweep.

    Conditional frequencies are None when the conditioning outcome never
    fired (an empty CSV field).
    """

    phi: float
    counts: Counts4
    f_a0_given_b1: Optional[float]
    f_a0_given_b0: Optional[float]


@dataclass(frozen=True)
class StatReport:
    """Agreement between counts and an exact joint."""

    tv: float
    nkl_max: float
    passed: bool


def _check_nonnegative(name: str, value) -> None:
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


def sample_events(dist: JointDist, n: int, seed: int, first_shot: int = 0) -> Counts4:
    """Draw ``n`` multinomial shots from a four-cell joint.

    ``first_shot`` selects the start of the shot range, letting callers
    split a run across workers; the default covers shots [0, n).  Cells
    with probability zero or below (down to ``-REAL_TOL``) never receive
    counts.

    One Philox generator reads the shots' raw words, at most
    ``_CHUNK_SHOTS`` at a time, and counts those below each breakpoint's
    integer limit ceil(c * 2^53) * 2^11; no uniform and no per-shot cell
    index is built.  The counts equal those of binning every shot's uniform
    with ``searchsorted(..., side="right")``.
    """
    for name, value in (("sample count", n), ("seed", seed), ("first_shot", first_shot)):
        _check_nonnegative(name, value)
    from numpy.random import Philox

    bit_gen = Philox(key=seed)
    # Philox advances in blocks of four words: enter the block holding
    # first_shot and discard the words before it.
    bit_gen.advance(first_shot // 4)
    bit_gen.random_raw(first_shot % 4)
    return _count_next(bit_gen, dist, n)


def _count_next(bit_gen, dist: JointDist, n: int) -> Counts4:
    """Bin the next ``n`` raw words of ``bit_gen`` into the cells of ``dist``."""
    import numpy as np

    # JointDist admits entries down to -REAL_TOL; threshold differences are
    # cell counts only for nondecreasing breakpoints, so such rounding
    # residue counts as zero.
    probs = np.maximum(np.array([float(e) for e in dist.entries], dtype=np.float64), 0.0)
    cumulative = np.cumsum(probs)
    cumulative /= cumulative[3]  # exact 1.0 endpoint; zero-probability cells stay zero width
    limits = [math.ceil(float(c) * 2.0**53) << 11 for c in cumulative[:3]]
    below = [0, 0, 0]
    remaining = n
    while remaining:
        m = min(remaining, _CHUNK_SHOTS)
        words = bit_gen.random_raw(m)
        for j, limit in enumerate(limits):
            # A breakpoint of 1.0 gives 2^64, past np.uint64: every word is below it.
            below[j] += int(np.count_nonzero(words < np.uint64(limit))) if limit < 1 << 64 else m
        remaining -= m
    return Counts4(below[0], below[1] - below[0], below[2] - below[1], n - below[2])


def _binary_kl(f: float, q: float) -> float:
    """KL divergence of Bernoulli(f) from Bernoulli(q), in nats; infinite
    when f puts mass where q puts none."""
    kl = 0.0
    for fi, qi in ((f, q), (1.0 - f, 1.0 - q)):
        if fi > 0.0:
            kl += fi * math.log(fi / qi) if qi > 0.0 else math.inf
    return kl


def compare(counts: Counts4, exact: JointDist) -> StatReport:
    """Total-variation distance and the largest cell divergence n*KL(c/n || q).

    A draw passes when no cell's n*KL exceeds :data:`NKL_THRESHOLD`, which
    caps the false-alarm rate for any shot count, even in cells that
    expect far less than one count (Chernoff 1952).  A cell with exact
    probability zero that collected counts diverges, an immediate failure.
    The cost is some power at large counts: there n*KL is about z^2/2, so
    the threshold sits near a standardized deviation of 5.7.  Raises
    :class:`EmptySample` when there are no events to compare, through
    :meth:`Counts4.frequencies`.
    """
    f = counts.frequencies()
    n = counts.total
    q = [float(e) for e in exact.entries]
    tv = 0.5 * sum(abs(fi - qi) for fi, qi in zip(f, q))
    nkl_max = max(n * _binary_kl(fi, qi) for fi, qi in zip(f, q))
    return StatReport(tv=tv, nkl_max=nkl_max, passed=nkl_max <= NKL_THRESHOLD)


def fringe_sweep(
    alpha: float, phi_grid: Sequence[float], shots_per_point: int, seed: int
) -> list[SweepRow]:
    """Sample the quantum joint across a phase grid and report the
    conditional detector-a frequencies.

    Conditioned on b=1 the frequency of a=0 tracks the interference fringe
    cos^2(phi/2); conditioned on b=0 it stays flat at 1/2.  Point ``j``
    gets the counts of ``sample_events(..., shots_per_point, seed,
    first_shot=j * shots_per_point)``, read from one generator keyed once.
    """
    if type(shots_per_point) is not int or shots_per_point <= 0:
        raise ValueError(f"shots_per_point must be a positive integer, got {shots_per_point!r}")
    _check_nonnegative("seed", seed)
    from numpy.random import Philox

    bit_gen = Philox(key=seed)
    rows = []
    for phi in phi_grid:
        counts = _count_next(bit_gen, quantum_joint(alpha, float(phi)), shots_per_point)
        b1 = counts.n01 + counts.n11
        b0 = counts.n00 + counts.n10
        rows.append(
            SweepRow(
                phi=float(phi),
                counts=counts,
                f_a0_given_b1=(counts.n01 / b1) if b1 > 0 else None,
                f_a0_given_b0=(counts.n00 / b0) if b0 > 0 else None,
            )
        )
    return rows


SWEEP_CSV_HEADER = "phi_radians,n00,n01,n10,n11,f_a0_given_b1,f_a0_given_b0"


def sweep_to_csv(rows: Sequence[SweepRow]) -> str:
    """Render sweep rows as CSV with a mandatory header; absent conditional
    frequencies become empty fields."""
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        f1 = "" if row.f_a0_given_b1 is None else repr(row.f_a0_given_b1)
        f0 = "" if row.f_a0_given_b0 is None else repr(row.f_a0_given_b0)
        c = row.counts
        lines.append(f"{row.phi!r},{c.n00},{c.n01},{c.n10},{c.n11},{f1},{f0}")
    return "\n".join(lines) + "\n"
