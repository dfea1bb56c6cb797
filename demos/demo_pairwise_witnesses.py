#!/usr/bin/env python3
"""Every pair of the three assumptions is compatible: explicit witnesses.

Dropping any single assumption from {determinism, independence,
objectivity} leaves a satisfiable pair, and the package constructs a
concrete model for each case.  validate_witness audits the two retained
assumptions in exact arithmetic and also reports on the dropped one, which
honest witnesses are expected to violate.
"""

from fractions import Fraction as F

from hvnogo import (
    Setting,
    SettingsFamily,
    lambda_marginal,
    model_drop_determinism,
    model_drop_independence,
    model_drop_objectivity,
    validate_witness,
)

family = SettingsFamily(F(1, 2), F(1, 4), (Setting("alpha1", F(1, 3)), Setting("alpha2", F(2, 3))))
print("family: e_p = 1/2, e_w = 1/4, settings x = {1/3, 2/3}\n")


def report(model):
    audit = validate_witness(model, family)
    print(f"--- {model.mode.value} ---")
    for check in audit.checks:
        tag = "retained" if check.retained else "dropped "
        mark = "ok " if check.passed else "VIOLATED"
        print(f"  [{tag}] {check.name:<12} {mark}  {check.detail}")
    print(f"  overall (adequacy + retained pair): {'PASS' if audit.overall_pass else 'FAIL'}\n")
    return audit


ind = model_drop_independence(family)
report(ind)
for label, table in sorted(ind.payload.tables.items()):
    print(f"  {label}: label marginal p(lam) = {lambda_marginal(table).as_tuple()}")
print("  the hidden-state distribution follows the setting; that is the dropped independence\n")

obj = model_drop_objectivity(family)
report(obj)
print(f"  {len(obj.payload.atoms)} atoms, one per interval between the settings' merged cumulative breakpoints")
some = obj.payload.atoms[1]
print(f"  e.g. atom {some.assignments} carries weight {some.weight} (the length of its interval)\n")

det = model_drop_determinism(family)
report(det)
atom = det.payload.atoms[0]
resp = atom.responses["alpha1"]
print(f"  atom {atom.name} (label {atom.label}, weight {atom.weight}) under alpha1:")
print(f"    p(b=0) = {resp.b0}, p(a=0|b=0) = {resp.a0_given_b0}, p(a=0|b=1) = {resp.a0_given_b1}")
print("  stochastic responses reproduce every joint while both labels keep their revelation property")
