"""Desk-scale counting experiments against exact predictions.

Sampling is multinomial over the four-cell joint: the closed-form
statistics already fix the per-shot distribution, so no amplitude-level
path simulation is needed (the Born-rule agreement tests cover that
layer).

Randomness contract
-------------------
Shot ``i`` of seed ``s`` consumes the ``i``-th 64-bit output word of the
Philox 4x64 counter-based generator keyed by ``s``, converted to a uniform
in [0, 1) by the standard 53-bit rule.  Every count is therefore a pure
function of (distribution, shot range, seed), identical on every platform,
and disjoint shot ranges can be sampled in parallel and merged: the result
equals the sequential run bit for bit.

Cells are counted by threshold, not per shot: with normalized breakpoints
c_0 <= c_1 <= c_2, a draw counts ``below_j = #{u < c_j}`` for each j, and
the four cells hold ``below_0``, ``below_1 - below_0``,
``below_2 - below_1`` and ``n - below_2``.  A uniform equal to a
breakpoint lands in the upper cell, exactly where
``searchsorted(breakpoints, u, side="right")`` puts it.

A sweep over phase values reuses one seed, giving point ``j`` the shot
range ``[j*shots, (j+1)*shots)``.

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

#: sample_events draws at most this many shots at a time, so its memory
#: does not grow with the shot count.
_CHUNK_SHOTS = 1 << 20


@dataclass(frozen=True)
class Counts4:
    """Detector coincidence counts, one per outcome pair (order 00, 01, 10, 11)."""

    n00: int
    n01: int
    n10: int
    n11: int

    def __post_init__(self):
        for name in ("n00", "n01", "n10", "n11"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")

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


def _uniforms(seed: int, lo: int, hi: int) -> np.ndarray:
    """Philox output words [lo, hi) of the given seed, as uniforms in [0, 1).

    Philox advances in blocks of four words, so the block before ``lo`` is
    entered and the leftover words are discarded.
    """
    from numpy.random import Generator, Philox

    bit_gen = Philox(key=seed)
    bit_gen.advance(lo // 4)
    skip = lo % 4
    return Generator(bit_gen).random(skip + (hi - lo))[skip:]


def sample_events(dist: JointDist, n: int, seed: int, first_shot: int = 0) -> Counts4:
    """Draw ``n`` multinomial shots from a four-cell joint.

    ``first_shot`` selects the start of the shot range, letting callers
    split a run across workers; the default covers shots [0, n).  Cells
    with probability zero or below (down to ``-REAL_TOL``) never receive
    counts.

    Each chunk of at most ``_CHUNK_SHOTS`` uniforms is compared against the
    three normalized breakpoints, and only the number below each is kept;
    no per-shot cell index is built.  The counts equal those of binning
    every shot with ``searchsorted(..., side="right")``.
    """
    for name, value in (("sample count", n), ("seed", seed), ("first_shot", first_shot)):
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    import numpy as np

    # JointDist admits entries down to -REAL_TOL; threshold differences are
    # cell counts only for nondecreasing breakpoints, so such rounding
    # residue counts as zero.
    probs = np.maximum(np.array([float(e) for e in dist.entries], dtype=np.float64), 0.0)
    cumulative = np.cumsum(probs)
    cumulative /= cumulative[3]  # exact 1.0 endpoint; zero-probability cells stay zero width
    breakpoints = cumulative[:3]
    below = [0, 0, 0]
    lo, hi = first_shot, first_shot + n
    while lo < hi:
        stop = min(hi, (lo // _CHUNK_SHOTS + 1) * _CHUNK_SHOTS)
        u = _uniforms(seed, lo, stop)
        for j, c in enumerate(breakpoints):
            below[j] += int(np.count_nonzero(u < c))
        lo = stop
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
    :class:`EmptySample` when there are no events to compare.
    """
    n = counts.total
    if n == 0:
        raise EmptySample("cannot compare an empty sample")
    q = [float(e) for e in exact.entries]
    f = counts.frequencies()
    tv = 0.5 * sum(abs(fi - qi) for fi, qi in zip(f, q))
    nkl_max = max(n * _binary_kl(fi, qi) for fi, qi in zip(f, q))
    return StatReport(tv=tv, nkl_max=nkl_max, passed=nkl_max <= NKL_THRESHOLD)


def fringe_sweep(
    alpha: float, phi_grid: Sequence[float], shots_per_point: int, seed: int
) -> list[SweepRow]:
    """Sample the quantum joint across a phase grid and report the
    conditional detector-a frequencies.

    Conditioned on b=1 the frequency of a=0 tracks the interference fringe
    cos^2(phi/2); conditioned on b=0 it stays flat at 1/2.
    """
    if not isinstance(shots_per_point, int) or shots_per_point <= 0:
        raise ValueError(f"shots_per_point must be a positive integer, got {shots_per_point!r}")
    rows = []
    for j, phi in enumerate(phi_grid):
        dist = quantum_joint(alpha, float(phi))
        counts = sample_events(dist, shots_per_point, seed, first_shot=j * shots_per_point)
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
