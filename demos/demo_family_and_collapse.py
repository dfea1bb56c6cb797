#!/usr/bin/env python3
"""The hidden-variable constraint system and its duality collapse.

For one setting (x, e_p, e_w) the adequacy + objectivity constraints on
the eight masses p(a, b, lam) leave a two-parameter family.  Walking the
family shows the dilemma: every member with cross-branch mass detaches the
detector statistics from the label (wave/particle objectivity collapses),
and the single member that avoids this correlates the label perfectly with
the apparatus outcome instead.
"""

from fractions import Fraction as F

from hvnogo import (
    GeneralParams,
    classify,
    conditional_given,
    constraint_system,
    enumerate_basic_solutions,
    instantiate,
    lambda_marginal,
    residual,
    solve_family,
    special_solution,
)

params = GeneralParams(F(1, 3), F(1, 2), F(1, 4))
print(f"setting: x = {params.x}, e_p = {params.e_p}, e_w = {params.e_w}")

system = constraint_system(params)
print(f"\nconstraint system: {system.num_rows} equations over {system.num_vars} cell masses")
for label, b in zip(system.labels, system.rhs):
    print(f"  {label}: rhs = {b}")

family = solve_family(params)
print(f"\nsolution family: s = p(0,0,w) in {family.s_range}, t = p(0,1,p) in {family.t_range}")

cells = ("00p", "01p", "10p", "11p", "00w", "01w", "10w", "11w")
for s, t in ((F(0), F(0)), (F(1, 12), F(1, 12)), (F(1, 6), F(1, 6))):
    member = instantiate(family, s, t)
    verdict = classify(member, params)
    print(f"\nmember at (s, t) = ({s}, {t}): {verdict.kind.value}")
    print("  " + "  ".join(f"{k}={v}" for k, v in zip(cells, member.entries)))
    print(f"  residual against the system: {residual(system, member.entries)}")
    if s > 0:
        print(f"  p(a | b=0, lam=w) = {conditional_given(member, 0, 'w').as_tuple()}  <- equals (e_p, 1-e_p):")
        print("     at b=0 both labels show particle statistics; the label has become irrelevant")

special = special_solution(params)
print("\nthe special member instead ties the label to the apparatus outcome:")
print(f"  p(b=0, lam=w) = {special.branch_mass(0, 'w')}, p(b=1, lam=p) = {special.branch_mass(1, 'p')}")
print(f"  label marginal p(lam) = {lambda_marginal(special).as_tuple()}  <- equals (x, 1-x)")
print("  this identity is what the no-go argument runs on: change x, and p(lam) must follow")

print("\nbrute-force cross-check: every basic feasible point is a corner of the family")
for point in enumerate_basic_solutions(system):
    s, t = point[4], point[1]
    print(f"  vertex with (s, t) = ({s}, {t}) -> {classify(instantiate(family, s, t), params).kind.value}")
