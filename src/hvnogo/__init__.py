"""hvnogo: exact tools for the delayed-choice no-go theorem.

The package computes delayed-choice quantum statistics, solves the
hidden-variable constraint system into its two-parameter family, proves
that determinism, setting-independence, and wave-particle objectivity
cannot hold together (with machine-checkable Farkas certificates), and
constructs explicit witness models showing every pair of those assumptions
is compatible.  A Monte Carlo layer reproduces the counting statistics at
desk scale.

Exact claims are computed over ``fractions.Fraction`` and compared to
literal zero; only the quantum and sampling layers use floats, with the
single tolerance ``REAL_TOL``.
"""

import importlib

#: Each export, by the module that defines it.  The package imports none
#: of them up front: ``__getattr__`` loads a name's module on first use, so
#: ``import hvnogo`` stays cheap and each CLI subcommand pays only for the
#: layers it runs.
_EXPORTS = {
    "dist": (
        "REAL_TOL",
        "BinaryDist",
        "GeneralParams",
        "JointDist",
        "conditional_a_given_b",
        "format_rational",
        "joint_from_params",
        "marginal_b",
        "parse_rational",
        "to_json",
    ),
    "errors": (
        "BoundaryParams",
        "ConditionOnNull",
        "DimensionMismatch",
        "EmptySample",
        "HvnogoError",
        "InvalidDistribution",
        "MalformedInput",
        "MalformedModel",
        "NotASolution",
        "OutOfRange",
        "OversizedRational",
    ),
    "exactlp": (
        "FeasibilityReport",
        "LinearSystem",
        "enumerate_basic_solutions",
        "lp_feasible",
        "matrix_rank",
        "residual",
        "verify_certificate",
    ),
    "family": (
        "CollapseKind",
        "LambdaLabel",
        "OnticTable",
        "SolutionFamily",
        "classify",
        "conditional_given",
        "constraint_system",
        "instantiate",
        "lambda_marginal",
        "solve_family",
        "special_solution",
    ),
    "feasibility": (
        "Setting",
        "SettingsFamily",
        "WitnessMode",
        "WitnessModel",
        "WitnessReport",
        "check_triple",
        "model_drop_determinism",
        "model_drop_independence",
        "model_drop_objectivity",
        "triple_system",
        "validate_witness",
    ),
    "montecarlo": (
        "Counts4",
        "StatReport",
        "SweepRow",
        "compare",
        "fringe_sweep",
        "sample_events",
        "sweep_to_csv",
    ),
    "quantum": (
        "StateVector4",
        "joint_state",
        "particle_statistics",
        "quantum_joint",
        "quantum_params",
        "wave_statistics",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module that defines ``name`` and keep the value here (PEP 562)."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
