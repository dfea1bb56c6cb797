"""Quantum predictions: amplitudes against closed forms."""

import cmath
import math

import pytest

from hvnogo import (
    REAL_TOL,
    StateVector4,
    conditional_a_given_b,
    joint_from_params,
    joint_state,
    marginal_b,
    particle_statistics,
    quantum_joint,
    quantum_params,
    wave_statistics,
)

GRID_9 = [i * math.pi / 8.0 for i in range(9)]


def assert_close(got, want, tol=REAL_TOL):
    assert abs(got - want) <= tol, f"{got!r} != {want!r} within {tol}"


class TestWaveParticle:
    def test_fringe_maximum(self):
        d = wave_statistics(0.0)
        assert d.as_tuple() == (1.0, 0.0)

    def test_antifringe(self):
        d = wave_statistics(math.pi)
        assert_close(d.p0, 0.0)
        assert_close(d.p1, 1.0)

    def test_half_fringe(self):
        assert_close(wave_statistics(math.pi / 2).p0, 0.5)

    def test_particle_is_uniform(self):
        assert particle_statistics().as_tuple() == (0.5, 0.5)

    def test_particle_meets_wave_at_half_fringe(self):
        wave = wave_statistics(math.pi / 2)
        flat = particle_statistics()
        diff = abs(wave.p0 - flat.p0) + abs(wave.p1 - flat.p1)
        assert diff <= REAL_TOL

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValueError):
            wave_statistics(math.inf)


class TestJointState:
    def test_pure_particle_branch(self):
        for phi in (0.0, 0.9, 2.4):
            amps = joint_state(0.0, phi).amplitudes
            inv_sqrt2 = 1 / math.sqrt(2)
            assert abs(amps[0] - inv_sqrt2) <= REAL_TOL
            assert amps[1] == 0
            assert abs(amps[2] - cmath.exp(1j * phi) * inv_sqrt2) <= REAL_TOL
            assert amps[3] == 0

    def test_pure_wave_branch_at_zero_phase(self):
        amps = joint_state(math.pi / 2, 0.0).amplitudes
        assert abs(amps[0]) <= REAL_TOL
        assert abs(amps[1] - 1.0) <= REAL_TOL
        assert abs(amps[2]) <= REAL_TOL
        assert abs(amps[3]) <= REAL_TOL

    def test_normalized_on_grid(self):
        for alpha in GRID_9:
            for phi in GRID_9:
                norm = sum(abs(z) ** 2 for z in joint_state(alpha, phi).amplitudes)
                assert_close(norm, 1.0)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            StateVector4((1.0, 1.0, 0.0, 0.0))

    def test_wrong_amplitude_count_rejected(self):
        with pytest.raises(ValueError, match="^StateVector4 needs 4 amplitudes, got 3$"):
            StateVector4((1.0, 0.0, 0.0))


class TestQuantumJoint:
    def test_pure_particle(self):
        assert quantum_joint(0.0, 1.3).entries == (0.5, 0.0, 0.5, 0.0)

    def test_pure_wave_at_half_fringe(self):
        joint = quantum_joint(math.pi / 2, math.pi / 2)
        for got, want in zip(joint.entries, (0.0, 0.5, 0.0, 0.5)):
            assert_close(got, want)

    def test_balanced_mixture_at_zero_phase(self):
        joint = quantum_joint(math.pi / 4, 0.0)
        for got, want in zip(joint.entries, (0.25, 0.5, 0.25, 0.0)):
            assert_close(got, want)
        assert_close(sum(joint.entries), 1.0)

    def test_born_rule_consistency_on_grid(self):
        for alpha in GRID_9:
            for phi in GRID_9:
                born = joint_state(alpha, phi).probabilities()
                closed = quantum_joint(alpha, phi)
                for p, q in zip(born.entries, closed.entries):
                    assert_close(p, q)

    def test_global_phase_irrelevance(self):
        base = joint_state(0.8, 1.7)
        for theta in (0.3, 1.0, 2.5):
            rotated = StateVector4(tuple(cmath.exp(1j * theta) * z for z in base.amplitudes))
            for p, q in zip(rotated.probabilities().entries, quantum_joint(0.8, 1.7).entries):
                assert_close(p, q)


class TestQuantumParams:
    def test_worked_example(self):
        params = quantum_params(math.pi / 3, math.pi / 4)
        assert_close(params.x, 0.25)
        assert params.e_p == 0.5
        assert_close(params.e_w, math.cos(math.pi / 8) ** 2)
        assert_close(params.e_w, 0.8535533905932737)

    def test_ancilla_boundaries(self):
        assert quantum_params(0.0, 1.0).x == 1.0
        assert_close(quantum_params(math.pi / 2, 1.0).x, 0.0)

    def test_factorization_on_grid(self):
        for alpha in GRID_9:
            for phi in GRID_9:
                direct = quantum_joint(alpha, phi)
                via = joint_from_params(quantum_params(alpha, phi))
                for p, q in zip(direct.entries, via.entries):
                    assert_close(p, q)

    def test_conditional_fringe(self):
        for alpha in GRID_9:
            for phi in GRID_9:
                joint = quantum_joint(alpha, phi)
                marg = marginal_b(joint)
                if marg.p1 > 1e-9:
                    cond = conditional_a_given_b(joint, 1)
                    wave = wave_statistics(phi)
                    assert_close(cond.p0, wave.p0)
                    assert_close(cond.p1, wave.p1)
                if marg.p0 > 1e-9:
                    cond = conditional_a_given_b(joint, 0)
                    assert_close(cond.p0, 0.5)

    def test_tv_between_quantum_routes_is_negligible(self):
        direct = quantum_joint(1.1, 0.6)
        via = joint_from_params(quantum_params(1.1, 0.6))
        assert max(abs(p - q) for p, q in zip(direct.entries, via.entries)) <= REAL_TOL
