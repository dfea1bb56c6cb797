"""Quantum predictions for the delayed-choice interferometer.

A photon crosses a Mach-Zehnder interferometer whose output beam splitter
is controlled by an ancilla qubit prepared as cos(alpha)|0> + sin(alpha)|1>.
Ancilla outcome b=0 leaves the interferometer open (particle statistics,
flat in the phase), b=1 closes it (wave statistics, an interference fringe
in the phase shift phi).  Both beam splitters are balanced and lossless.

Everything here is real-mode (floats): the amplitudes are built explicitly
and the closed-form counting statistics must match their squared moduli
within ``REAL_TOL``.

Sign convention: detector outcome a=0 is the port whose wave-statistics
probability is cos^2(phi/2); this fixes the relative phase of the closed
branch once and for all.
"""

from __future__ import annotations

import cmath
import math

from .dist import REAL_TOL, BinaryDist, GeneralParams, JointDist, _record


def _require_finite_angle(value: float, name: str) -> float:
    """Angles are plain radians; any finite value is allowed."""
    angle = float(value)
    if not math.isfinite(angle):
        raise ValueError(f"{name} must be a finite angle in radians, got {value!r}")
    return angle


@_record
class StateVector4:
    """Photon (x) ancilla state in the computational basis, order 00, 01, 10, 11.

    Index (a, b) pairs the photon output port a with the ancilla readout b.
    """

    amplitudes: tuple[complex, complex, complex, complex]

    def __post_init__(self):
        amps = tuple(complex(z) for z in self.amplitudes)
        if len(amps) != 4:
            raise ValueError(f"StateVector4 needs 4 amplitudes, got {len(amps)}")
        object.__setattr__(self, "amplitudes", amps)
        norm_sq = sum(abs(z) ** 2 for z in amps)
        if abs(norm_sq - 1.0) > REAL_TOL:
            raise ValueError(f"state not normalized: |psi|^2 = {norm_sq!r}")

    def probabilities(self) -> JointDist:
        """Squared moduli of the amplitudes (Born rule)."""
        return JointDist(tuple(abs(z) ** 2 for z in self.amplitudes))


def wave_statistics(phi: float) -> BinaryDist:
    """Detector-a statistics with the interferometer closed: an interference
    fringe (cos^2(phi/2), sin^2(phi/2))."""
    phi = _require_finite_angle(phi, "phi")
    c = math.cos(phi / 2.0) ** 2
    return BinaryDist(c, 1.0 - c)


def particle_statistics() -> BinaryDist:
    """Detector-a statistics with the interferometer open: flat (1/2, 1/2),
    independent of any phase."""
    return BinaryDist(0.5, 0.5)


def joint_state(alpha: float, phi: float) -> StateVector4:
    """The photon-ancilla state just before both measurements.

    cos(alpha) |particle>|0> + sin(alpha) |wave>|1>, where the open-branch
    photon state is (|0> + e^{i phi}|1>)/sqrt(2) and the closed-branch state
    is e^{i phi/2} (cos(phi/2)|0> - i sin(phi/2)|1>).
    """
    alpha = _require_finite_angle(alpha, "alpha")
    phi = _require_finite_angle(phi, "phi")
    ca, sa = math.cos(alpha), math.sin(alpha)
    half = phi / 2.0
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    phase_half = cmath.exp(0.5j * phi)
    particle_amp = (inv_sqrt2, cmath.exp(1j * phi) * inv_sqrt2)
    wave_amp = (phase_half * math.cos(half), phase_half * (-1j) * math.sin(half))
    return StateVector4(
        (
            ca * particle_amp[0],
            sa * wave_amp[0],
            ca * particle_amp[1],
            sa * wave_amp[1],
        )
    )


def quantum_joint(alpha: float, phi: float) -> JointDist:
    """Closed-form counting statistics of the delayed-choice experiment.

    (cos^2(alpha)/2, sin^2(alpha) cos^2(phi/2),
     cos^2(alpha)/2, sin^2(alpha) sin^2(phi/2)),
    equal to the squared amplitudes of :func:`joint_state` within REAL_TOL.
    """
    alpha = _require_finite_angle(alpha, "alpha")
    phi = _require_finite_angle(phi, "phi")
    ca2 = math.cos(alpha) ** 2
    sa2 = 1.0 - ca2
    cw2 = math.cos(phi / 2.0) ** 2
    return JointDist((0.5 * ca2, sa2 * cw2, 0.5 * ca2, sa2 * (1.0 - cw2)))


def quantum_params(alpha: float, phi: float) -> GeneralParams:
    """The three-parameter form of the quantum prediction:
    x = cos^2(alpha), e_p = 1/2, e_w = cos^2(phi/2)."""
    alpha = _require_finite_angle(alpha, "alpha")
    phi = _require_finite_angle(phi, "phi")
    return GeneralParams(math.cos(alpha) ** 2, 0.5, math.cos(phi / 2.0) ** 2)
