"""Counter-based sampling: reproducibility, conservation, statistics."""

import math
import re
import tracemalloc
from fractions import Fraction
from http import HTTPStatus

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from hvnogo import (
    Counts4,
    EmptySample,
    GeneralParams,
    JointDist,
    compare,
    fringe_sweep,
    joint_from_params,
    quantum_joint,
    quantum_params,
    sample_events,
    sweep_to_csv,
    wave_statistics,
)
from hvnogo.montecarlo import _CHUNK_SHOTS, NKL_THRESHOLD, SWEEP_CSV_HEADER

F = Fraction
FIXED = quantum_joint(math.pi / 3, math.pi / 4)


def _uniforms(seed: int, lo: int, hi: int) -> np.ndarray:
    """Shots [lo, hi) of the given seed as uniforms in [0, 1), by the float
    definition of the randomness contract: numpy's ``Generator.random`` on
    the Philox stream keyed by the seed.  The sampler never forms these; it
    counts raw words against integer limits, and this is its reference.
    """
    bit_gen = Philox(key=seed)
    bit_gen.advance(lo // 4)
    skip = lo % 4
    return Generator(bit_gen).random(skip + (hi - lo))[skip:]


def _binned(dist: JointDist, n: int, seed: int, first_shot: int) -> tuple[int, int, int, int]:
    """Per-shot reference: bin every uniform with searchsorted(side="right")."""
    probs = np.maximum([float(e) for e in dist.entries], 0.0)
    cumulative = np.cumsum(probs)
    breakpoints = cumulative[:3] / cumulative[3]
    cells = np.searchsorted(breakpoints, _uniforms(seed, first_shot, first_shot + n), side="right")
    return tuple(int(c) for c in np.bincount(cells, minlength=4))


@st.composite
def _joints(draw):
    """Joints with random zero cells, in exact or float mode; zero trailing
    cells put breakpoints at exactly 1.0."""
    weights = draw(st.lists(st.integers(0, 7), min_size=4, max_size=4).filter(any))
    total = sum(weights)
    if draw(st.booleans()):
        return JointDist(tuple(F(w, total) for w in weights))
    return JointDist(tuple(w / total for w in weights))


def _near_chunk_multiples(max_multiple: int):
    """Integers within a few shots of a multiple of _CHUNK_SHOTS."""
    return st.builds(
        lambda k, d: max(0, k * _CHUNK_SHOTS + d),
        st.integers(0, max_multiple),
        st.integers(-3, 3),
    )


class TestSampleEvents:
    def test_zero_shots(self):
        assert sample_events(FIXED, 0, 7).as_tuple() == (0, 0, 0, 0)

    def test_degenerate_distribution(self):
        counts = sample_events(JointDist((1.0, 0.0, 0.0, 0.0)), 1000, 7)
        assert counts.as_tuple() == (1000, 0, 0, 0)

    def test_zero_probability_cells_stay_empty(self):
        counts = sample_events(JointDist((0.5, 0.0, 0.5, 0.0)), 50_000, 11)
        assert counts.n01 == 0 and counts.n11 == 0
        assert counts.total == 50_000

    def test_negative_rounding_residue_gets_no_counts(self):
        # JointDist admits entries down to -REAL_TOL.  Shot 0 of seed 9 sits
        # just below the first breakpoint, in the sliver where an unclamped
        # cumulative would decrease.
        u0 = float(_uniforms(9, 0, 1)[0])
        p0 = u0 + 5e-14
        p2 = (1.0 - p0) / 2
        residue = JointDist((p0, -1e-13, p2, 1.0 - p0 - p2 + 1e-13))
        clamped = JointDist((p0, 0.0, p2, 1.0 - p0 - p2 + 1e-13))
        counts = sample_events(residue, 10_000, 9)
        assert counts.n01 == 0
        assert counts == sample_events(clamped, 10_000, 9)

    def test_reproducible(self):
        a = sample_events(FIXED, 10_000, 42)
        b = sample_events(FIXED, 10_000, 42)
        assert a == b

    def test_seed_changes_the_stream(self):
        assert sample_events(FIXED, 10_000, 42) != sample_events(FIXED, 10_000, 43)

    def test_partitioned_ranges_merge_to_the_sequential_run(self):
        n = 10_001
        whole = sample_events(FIXED, n, 42)
        for cut in (1, 4, 5, 2_500, 9_999):
            head = sample_events(FIXED, cut, 42)
            tail = sample_events(FIXED, n - cut, 42, first_shot=cut)
            merged = tuple(h + t for h, t in zip(head.as_tuple(), tail.as_tuple()))
            assert merged == whole.as_tuple(), f"cut at {cut}"

    def test_draw_across_chunk_boundaries_matches_the_uniforms(self):
        lo, hi = _CHUNK_SHOTS - 1, 2 * _CHUNK_SHOTS + 3
        assert sample_events(FIXED, hi - lo, 42, first_shot=lo).as_tuple() == _binned(FIXED, hi - lo, 42, lo)

    @given(
        _joints(),
        st.one_of(st.integers(0, 9), _near_chunk_multiples(2)),
        st.integers(0, 2**128 - 1),
        st.one_of(_near_chunk_multiples(3), _near_chunk_multiples(2**40)),
    )
    @settings(max_examples=40, deadline=None)
    def test_counts_equal_binning_every_uniform(self, dist, n, seed, first_shot):
        assert sample_events(dist, n, seed, first_shot=first_shot).as_tuple() == _binned(dist, n, seed, first_shot)

    def test_a_uniform_on_a_breakpoint_lands_in_the_upper_cell(self):
        # Each shot's uniform equals the first normalized breakpoint exactly;
        # searchsorted(side="right") puts it in cell 01, and so must the
        # sampler.  Shot 0 of seed 9 is a word with nonzero low 11 bits; shot
        # 804 of seed 1 is a word whose low 11 bits are zero, so it equals
        # its breakpoint's integer limit itself.
        for seed, shot, word_is_limit in ((9, 0, False), (1, 804, True)):
            u = float(_uniforms(seed, shot, shot + 1)[0])
            word = int(Philox(key=seed).random_raw(shot + 1)[shot])
            assert (word % 2**11 == 0) == word_is_limit
            tie = JointDist((u, 1.0 - u, 0.0, 0.0))
            cumulative = np.cumsum([float(e) for e in tie.entries])
            assert cumulative[0] / cumulative[3] == u
            assert np.searchsorted(cumulative[:3] / cumulative[3], u, side="right") == 1
            assert sample_events(tie, 1, seed, first_shot=shot) == Counts4(0, 1, 0, 0)

    def test_breakpoints_are_normalized_by_the_float_total(self):
        # Entries may sum to 1 within REAL_TOL.  Here they sum to 1 - 4e-13,
        # and shot 0 of seed 9 lies between p0 and p0 / total: only the
        # normalized breakpoint puts it in cell 00.
        u0 = float(_uniforms(9, 0, 1)[0])
        p0 = u0 * (1 - 2e-13)
        short = JointDist((p0, 0.0, 1 - 4e-13 - p0, 0.0))
        total = sum(float(e) for e in short.entries)
        assert p0 * total < p0 < u0 < p0 / total
        assert sample_events(short, 1, 9) == Counts4(1, 0, 0, 0)

    @pytest.mark.parametrize(
        ("dist", "n", "seed", "first_shot", "expected"),
        [
            (FIXED, 2_121_849, 17, (1 << 20) - 12_345, Counts4(265371, 1358674, 264490, 233314)),
            (JointDist((0.0, 0.7, 0.3, 0.0)), 200_000, 23, 5, Counts4(0, 140070, 59930, 0)),
            (JointDist((0.5, 0.0, 0.5, 0.0)), 200_000, 23, 5, Counts4(100034, 0, 99966, 0)),
            (FIXED, 10**7, 3, 0, Counts4(1250775, 6403319, 1247982, 1097924)),
        ],
        ids=["unaligned-across-nine-chunk-multiples", "zero-outer-cells", "zero-inner-cell", "ten-million"],
    )
    def test_pinned_counts(self, dist, n, seed, first_shot, expected):
        # Literal counts written by the searchsorted + bincount sampler; the
        # randomness contract makes them a pure function of these arguments.
        assert sample_events(dist, n, seed, first_shot=first_shot) == expected

    def test_memory_does_not_grow_with_the_shot_count(self):
        tracemalloc.start()
        try:
            counts = sample_events(FIXED, 10**7, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.total == 10**7
        # One 2^18-shot chunk of words is 2 MiB, and the next is drawn while
        # the last is still held; no uniforms and no per-shot index array.
        assert peak < 6 * 2**20

    @given(st.integers(min_value=0, max_value=3000), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_conservation(self, n, seed):
        assert sample_events(FIXED, n, seed).total == n

    def test_exact_mode_joint_accepted(self):
        counts = sample_events(joint_from_params(GeneralParams(F(1, 3), F(1, 2), F(1, 4))), 1000, 5)
        assert counts.total == 1000

    def test_million_shot_concentration(self):
        counts = sample_events(FIXED, 1_000_000, 802)
        report = compare(counts, FIXED)
        assert report.tv < 0.005
        assert report.passed

    def test_invalid_arguments(self):
        for n, seed, first_shot, message in [
            (-1, 0, 0, "sample count must be a nonnegative integer, got -1"),
            (10, -2, 0, "seed must be a nonnegative integer, got -2"),
            (10, 0, -3, "first_shot must be a nonnegative integer, got -3"),
            (1.5, 0, 0, "sample count must be a nonnegative integer, got 1.5"),
            (True, 0, 0, "sample count must be a nonnegative integer, got True"),
            (10, True, 0, "seed must be a nonnegative integer, got True"),
            (10, 0, False, "first_shot must be a nonnegative integer, got False"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                sample_events(FIXED, n, seed, first_shot=first_shot)


class TestCounts4:
    @pytest.mark.parametrize("bad", [-1, 1.0, True, None, HTTPStatus.OK])
    def test_each_count_is_a_nonnegative_int(self, bad):
        for cell in range(4):
            values = [0, 0, 0, 0]
            values[cell] = bad
            with pytest.raises(ValueError, match=f"^n{cell // 2}{cell % 2} must be a nonnegative integer"):
                Counts4(*values)


class TestCompare:
    def test_exactly_proportional_counts(self):
        report = compare(Counts4(250, 250, 250, 250), JointDist((0.25,) * 4))
        assert report.tv == 0.0
        assert report.nkl_max == 0.0
        assert report.passed

    def test_gross_mismatch_fails(self):
        report = compare(Counts4(1000, 0, 0, 0), JointDist((0.25,) * 4))
        assert not report.passed
        assert report.nkl_max > NKL_THRESHOLD

    def test_a_draw_exactly_at_the_threshold_passes(self):
        # One count in a cell of probability q gives n*KL = ln(1/q); at
        # q = 5.7e-7/8 that is NKL_THRESHOLD itself, and only larger fails.
        q = 5.7e-7 / 8
        report = compare(Counts4(1, 0, 0, 0), JointDist((q, 1 - q, 0.0, 0.0)))
        assert report.nkl_max == NKL_THRESHOLD
        assert report.passed

    def test_counts_in_a_null_cell_fail(self):
        report = compare(Counts4(999, 1, 0, 0), JointDist((1.0, 0.0, 0.0, 0.0)))
        assert not report.passed
        assert report.nkl_max == math.inf

    def test_null_cells_without_counts_are_fine(self):
        report = compare(Counts4(1000, 0, 0, 0), JointDist((1.0, 0.0, 0.0, 0.0)))
        assert report.passed

    @pytest.mark.parametrize("seed", [42, 80])
    def test_a_few_counts_in_a_near_empty_cell_pass(self, seed):
        # three counts where 0.25 are expected: z = 5.5, yet a correct draw
        exact = quantum_joint(math.pi / 4, 0.01)
        counts = sample_events(exact, 20_000, seed)
        assert counts.n11 == 3 and 20_000 * exact.entries[3] < 0.26
        assert compare(counts, exact).passed

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            compare(Counts4(0, 0, 0, 0), FIXED)

    def test_false_failure_rate_below_two_percent(self):
        failures = sum(
            not compare(sample_events(FIXED, 100_000, seed), FIXED).passed for seed in range(100)
        )
        assert failures < 2

    def test_model_agnostic_sampling(self):
        alpha, phi = math.pi / 3, math.pi / 4
        via_params = joint_from_params(quantum_params(alpha, phi))
        direct = quantum_joint(alpha, phi)
        assert compare(sample_events(via_params, 200_000, 9), direct).passed
        assert compare(sample_events(direct, 200_000, 9), via_params).passed


class TestFringeSweep:
    def test_pure_wave_has_no_b0_events(self):
        rows = fringe_sweep(math.pi / 2, [0.6, 1.9], 20_000, 3)
        for row in rows:
            assert row.f_a0_given_b0 is None
            assert row.f_a0_given_b1 is not None

    def test_pure_particle_has_no_b1_events(self):
        rows = fringe_sweep(0.0, [0.6, 1.9], 20_000, 3)
        for row in rows:
            assert row.f_a0_given_b1 is None
            assert abs(row.f_a0_given_b0 - 0.5) < 0.02

    def test_balanced_sweep_tracks_the_fringe(self):
        grid = [2 * math.pi * i / 16 for i in range(17)]
        rows = fringe_sweep(math.pi / 4, grid, 100_000, 801)
        assert len(rows) == 17
        for row in rows:
            assert abs(row.f_a0_given_b1 - wave_statistics(row.phi).p0) < 0.02
            assert abs(row.f_a0_given_b0 - 0.5) < 0.02

    def test_shots_must_be_positive(self):
        with pytest.raises(ValueError):
            fringe_sweep(0.5, [0.0], 0, 1)

    @pytest.mark.parametrize("shots", [1, 3, 5, 7, 1000])
    def test_points_equal_their_shot_ranges(self, shots):
        # Shot counts off Philox's four-word block: one stream read in grid
        # order must give each point the counts of its own shot range.
        alpha, seed = 0.7, 2**100 + 5
        grid = [2 * math.pi * j / 49 for j in range(50)]
        rows = fringe_sweep(alpha, grid, shots, seed)
        for j, row in enumerate(rows):
            expected = sample_events(quantum_joint(alpha, grid[j]), shots, seed, first_shot=j * shots)
            assert row.counts == expected, f"point {j}"

    def test_one_generator_per_sweep(self, monkeypatch):
        keys = []

        def counted(*args, **kwargs):
            keys.append(kwargs.get("key"))
            return Philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        fringe_sweep(0.7, [0.0, 1.0, 2.0, 3.0], 10, 9)
        assert keys == [9]

    @pytest.mark.parametrize("seed", [-1, True])
    def test_seed_must_be_a_nonnegative_int(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be a nonnegative integer, got {seed!r}$"):
            fringe_sweep(0.5, [0.0], 10, seed)

    @pytest.mark.parametrize("shots", [True, 1.0])
    def test_shots_must_be_an_int(self, shots):
        with pytest.raises(ValueError, match=f"^shots_per_point must be a positive integer, got {shots!r}$"):
            fringe_sweep(0.5, [0.0], shots, 1)


class TestCsv:
    def test_header_and_empty_fields(self):
        rows = fringe_sweep(0.0, [0.0, 1.0], 100, 5)
        text = sweep_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 3
        # pure particle: the b=1 conditional column is empty
        assert lines[1].split(",")[5] == ""

    def test_deterministic_bytes(self):
        rows = fringe_sweep(0.7, [0.0, 0.5, 1.0], 1000, 12)
        again = fringe_sweep(0.7, [0.0, 0.5, 1.0], 1000, 12)
        assert sweep_to_csv(rows) == sweep_to_csv(again)
