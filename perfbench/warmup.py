"""Set-up probe: a fresh interpreter imports hvnogo and makes one warm-up
call into each layer a workload uses, then prints where hvnogo came from.

Run by ``run.py`` as ``python perfbench/warmup.py <workload>`` with
``PYTHONPATH`` set to the tree under test; its wall time is ``setup_s``.
Lazily deferred imports therefore land here and cannot hide.
"""

import contextlib
import io
import sys
from fractions import Fraction as F


def main(workload: str) -> None:
    import hvnogo

    params = hvnogo.GeneralParams(F(1, 3), F(1, 2), F(1, 4))
    family = hvnogo.SettingsFamily(F(1, 2), F(1, 4), (hvnogo.Setting("a1", F(1, 3)), hvnogo.Setting("a2", F(2, 3))))
    if workload in ("exact", "cli"):
        system = hvnogo.constraint_system(params)
        hvnogo.matrix_rank(system.matrix)
        hvnogo.classify(hvnogo.instantiate(hvnogo.solve_family(params), 0, 0), params)
        hvnogo.enumerate_basic_solutions(system)
        report = hvnogo.check_triple(family)
        hvnogo.verify_certificate(hvnogo.triple_system(family), report.certificate)
    if workload in ("witness", "cli"):
        for build in (hvnogo.model_drop_independence, hvnogo.model_drop_objectivity, hvnogo.model_drop_determinism):
            hvnogo.validate_witness(build(family), family)
    if workload in ("montecarlo", "cli"):
        joint = hvnogo.quantum_joint(0.7, 1.1)
        hvnogo.compare(hvnogo.sample_events(joint, 1000, 1), joint)
        hvnogo.fringe_sweep(0.7, [0.0, 1.0], 100, 1)
    if workload == "cli":
        from hvnogo import cli

        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["quantum", "--alpha", "pi/4", "--phi", "0"])
    print(hvnogo.__file__)


if __name__ == "__main__":
    main(sys.argv[1])
