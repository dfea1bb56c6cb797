#!/usr/bin/env python3
"""The no-go result: determinism + independence + objectivity is infeasible.

Two settings with different apparatus marginals x are enough.  One shared
table (independence) of outcome-pinned atoms (determinism) obeying the
label-revelation constraints (objectivity) would have to give the b=0
marginal two different values at once.  check_triple writes the Farkas
certificate down in closed form, with no solver: +-1 on the four
adequacy rows of each of the two settings, so y.A = 0 and
y.b = 2 (2/3 - 1/3) > 0.  The certificate is exact and machine-checkable,
and the exact simplex, run on the full system as an independent oracle,
agrees that no table exists.
"""

from fractions import Fraction as F

from hvnogo import (
    Setting,
    SettingsFamily,
    check_triple,
    lp_feasible,
    residual,
    triple_system,
    verify_certificate,
)

family = SettingsFamily(
    e_p=F(1, 2),
    e_w=F(1, 4),
    settings=(Setting("alpha1", F(1, 3)), Setting("alpha2", F(2, 3))),
)
print("family: e_p = 1/2, e_w = 1/4, settings x = {1/3, 2/3}")

system = triple_system(family)
print(f"stacked system: {system.num_rows} equations over one shared 8-cell table")

report = check_triple(family)
print(f"\nfeasible: {report.feasible}")
print(f"narrative: {report.narrative}")
print(f"certificate y = {report.certificate}")
print(f"independent audit (y.A <= 0 and y.b > 0, exact): {verify_certificate(system, report.certificate)}")
print(f"oracle: the exact simplex on the full system finds a table: {lp_feasible(system).feasible}")

print("\ncontrol run: identical settings stay feasible")
constant = SettingsFamily(F(1, 2), F(1, 4), (Setting("a", F(1, 3)), Setting("b", F(1, 3))))
control = check_triple(constant)
print(f"feasible: {control.feasible}")
print(f"witness table: {control.witness.entries}")
print(f"witness residual: {residual(triple_system(constant), control.witness.entries)}")

print("\nthe raw LP engine on a toy contradiction, for comparison:")
from hvnogo import LinearSystem

toy = LinearSystem(((F(1),), (F(1),)), (F(1, 3), F(2, 3)), ("w = 1/3", "w = 2/3"))
toy_report = lp_feasible(toy)
print(f"w = 1/3 and w = 2/3 simultaneously: feasible = {toy_report.feasible}, y = {toy_report.certificate}")
