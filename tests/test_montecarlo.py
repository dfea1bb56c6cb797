"""Counter-based sampling: reproducibility, conservation, statistics."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from hvnogo.montecarlo import _CHUNK_SHOTS, NKL_THRESHOLD, SWEEP_CSV_HEADER, _uniforms

F = Fraction
FIXED = quantum_joint(math.pi / 3, math.pi / 4)


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
        cumulative = np.cumsum([float(e) for e in FIXED.entries])
        cells = np.searchsorted(cumulative[:3] / cumulative[3], _uniforms(42, lo, hi), side="right")
        direct = tuple(int(c) for c in np.bincount(cells, minlength=4))
        assert sample_events(FIXED, hi - lo, 42, first_shot=lo).as_tuple() == direct

    def test_a_uniform_on_a_breakpoint_lands_in_the_upper_cell(self):
        # Shot 0 of seed 9 equals the first normalized breakpoint exactly;
        # searchsorted(side="right") puts it in cell 01, and so must the sampler.
        u0 = float(_uniforms(9, 0, 1)[0])
        tie = JointDist((u0, 1.0 - u0, 0.0, 0.0))
        cumulative = np.cumsum([float(e) for e in tie.entries])
        assert cumulative[0] / cumulative[3] == u0
        assert np.searchsorted(cumulative[:3] / cumulative[3], u0, side="right") == 1
        assert sample_events(tie, 1, 9) == Counts4(0, 1, 0, 0)

    @pytest.mark.parametrize(
        ("dist", "n", "seed", "first_shot", "expected"),
        [
            (FIXED, 2_121_849, 17, _CHUNK_SHOTS - 12_345, Counts4(265371, 1358674, 264490, 233314)),
            (JointDist((0.0, 0.7, 0.3, 0.0)), 200_000, 23, 5, Counts4(0, 140070, 59930, 0)),
            (JointDist((0.5, 0.0, 0.5, 0.0)), 200_000, 23, 5, Counts4(100034, 0, 99966, 0)),
            (FIXED, 10**7, 3, 0, Counts4(1250775, 6403319, 1247982, 1097924)),
        ],
        ids=["unaligned-across-two-chunk-boundaries", "zero-outer-cells", "zero-inner-cell", "ten-million"],
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
        # One 2^20-shot chunk of uniforms is 8 MiB; no per-shot index array.
        assert peak < 20 * 2**20

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
        with pytest.raises(ValueError):
            sample_events(FIXED, -1, 0)
        with pytest.raises(ValueError):
            sample_events(FIXED, 10, -2)


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
