#!/usr/bin/env python3
"""Monte Carlo counting statistics: fringe vs flat, from one seed.

Samples the delayed-choice joint across a phase grid and prints the two
conditional detector frequencies next to their exact values.  Conditioned
on the ancilla reading 1 the frequency traces the interference fringe
cos^2(phi/2); conditioned on 0 it stays flat at 1/2.  Everything is a pure
function of the seed and replays identically.
"""

import math

from hvnogo import compare, fringe_sweep, quantum_joint, sample_events, wave_statistics
from hvnogo.montecarlo import NKL_THRESHOLD

ALPHA = math.pi / 4
GRID = [2 * math.pi * i / 16 for i in range(17)]
SHOTS = 100_000
SEED = 801

rows = fringe_sweep(ALPHA, GRID, SHOTS, SEED)

print(f"alpha = pi/4, {SHOTS} shots per point, seed {SEED}")
print(f"{'phi':>8}  {'f(a=0|b=1)':>11}  {'cos^2(phi/2)':>12}  {'f(a=0|b=0)':>11}  {'flat':>5}")
worst_wave = worst_flat = 0.0
for row in rows:
    exact = wave_statistics(row.phi).p0
    worst_wave = max(worst_wave, abs(row.f_a0_given_b1 - exact))
    worst_flat = max(worst_flat, abs(row.f_a0_given_b0 - 0.5))
    print(f"{row.phi:8.4f}  {row.f_a0_given_b1:11.5f}  {exact:12.5f}  {row.f_a0_given_b0:11.5f}  {0.5:5.2f}")
print(f"\nworst fringe deviation: {worst_wave:.5f}   worst flat deviation: {worst_flat:.5f}")

print("\nsingle-point deep sample at (alpha, phi) = (pi/3, pi/4):")
exact = quantum_joint(math.pi / 3, math.pi / 4)
counts = sample_events(exact, 1_000_000, seed=802)
report = compare(counts, exact)
print(f"counts = {counts.as_tuple()}")
print(f"TV(empirical, exact) = {report.tv:.6f}, largest cell n*KL(c/n || q) = {report.nkl_max:.3f}")
print(f"Chernoff acceptance (n*KL <= {NKL_THRESHOLD:.2f}): {'PASS' if report.passed else 'FAIL'}")

print("\nreplay check: the same seed reproduces the same counts")
again = sample_events(exact, 1_000_000, seed=802)
print(f"identical: {counts == again}")
