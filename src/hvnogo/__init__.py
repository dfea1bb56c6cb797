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

from .dist import (
    REAL_TOL,
    BinaryDist,
    GeneralParams,
    JointDist,
    conditional_a_given_b,
    format_rational,
    joint_from_params,
    marginal_b,
    parse_rational,
    to_json,
    tv_distance,
)
from .errors import (
    BoundaryParams,
    ConditionOnNull,
    DimensionMismatch,
    EmptySample,
    HvnogoError,
    InvalidDistribution,
    MalformedInput,
    MalformedModel,
    NotASolution,
    OutOfRange,
    OversizedRational,
)
from .exactlp import (
    FeasibilityReport,
    LinearSystem,
    brute_force_feasible,
    enumerate_basic_solutions,
    lp_feasible,
    matrix_rank,
    residual,
    verify_certificate,
)
from .family import (
    CollapseKind,
    LambdaLabel,
    OnticTable,
    SolutionFamily,
    classify,
    conditional_given,
    constraint_system,
    instantiate,
    lambda_marginal,
    solve_family,
    special_solution,
)
from .feasibility import (
    Setting,
    SettingsFamily,
    WitnessMode,
    WitnessModel,
    WitnessReport,
    check_triple,
    model_drop_determinism,
    model_drop_independence,
    model_drop_objectivity,
    triple_system,
    validate_witness,
)
from .montecarlo import (
    Counts4,
    StatReport,
    SweepRow,
    compare,
    fringe_sweep,
    sample_events,
    sweep_to_csv,
)
from .quantum import (
    StateVector4,
    joint_state,
    particle_statistics,
    quantum_joint,
    quantum_params,
    wave_statistics,
)

__version__ = "0.1.0"
