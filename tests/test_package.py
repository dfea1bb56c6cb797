"""The package namespace: every export, resolved from its defining module on first use."""

import importlib
import re
import sys

import pytest
from checkout import ROOT

import hvnogo

#: Every name ``hvnogo`` exports, by the module that defines it.
EXPORTS = {
    "dist": [
        "REAL_TOL", "BinaryDist", "GeneralParams", "JointDist", "conditional_a_given_b", "format_rational",
        "joint_from_params", "marginal_b", "parse_rational", "to_json",
    ],
    "errors": [
        "BoundaryParams", "ConditionOnNull", "DimensionMismatch", "EmptySample", "HvnogoError",
        "InvalidDistribution", "MalformedInput", "MalformedModel", "NotASolution", "OutOfRange",
        "OversizedRational",
    ],
    "exactlp": [
        "FeasibilityReport", "LinearSystem", "enumerate_basic_solutions", "lp_feasible", "matrix_rank", "residual",
        "verify_certificate",
    ],
    "family": [
        "CollapseKind", "LambdaLabel", "OnticTable", "SolutionFamily", "classify", "conditional_given",
        "constraint_system", "instantiate", "lambda_marginal", "solve_family", "special_solution",
    ],
    "feasibility": [
        "Setting", "SettingsFamily", "WitnessMode", "WitnessModel", "WitnessReport", "check_triple",
        "model_drop_determinism", "model_drop_independence", "model_drop_objectivity", "triple_system",
        "validate_witness",
    ],
    "montecarlo": ["Counts4", "StatReport", "SweepRow", "compare", "fringe_sweep", "sample_events", "sweep_to_csv"],
    "quantum": [
        "StateVector4", "joint_state", "particle_statistics", "quantum_joint", "quantum_params", "wave_statistics",
    ],
}


def test_all_lists_every_export():
    assert hvnogo.__all__ == [name for names in EXPORTS.values() for name in names]
    assert len(hvnogo.__all__) == 63


def test_every_export_is_used():
    # a use is a whole-word occurrence outside the name's own module-level def, class or assignment
    sources = [p for p in (ROOT / "src" / "hvnogo").glob("*.py") if p.name != "__init__.py"]
    sources += [p for folder in ("demos", "perfbench") for p in sorted((ROOT / folder).rglob("*")) if p.is_file()]
    sources.append(ROOT / "README.md")
    lines = [line for path in sources for line in path.read_text(encoding="utf-8").splitlines()]
    unused = []
    for name in hvnogo.__all__:
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"(?:(?:async )?def |class ){name}\b|{name}\s*(?::[^=]*)?=(?!=)")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert unused == []


@pytest.mark.parametrize("home", list(EXPORTS))
def test_each_export_is_its_home_modules_object(home):
    module = importlib.import_module(f"hvnogo.{home}")
    for name in EXPORTS[home]:
        assert getattr(hvnogo, name) is getattr(module, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from hvnogo import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(hvnogo.__all__)


def test_dir_lists_every_export():
    assert set(hvnogo.__all__) <= set(dir(hvnogo))
    assert "__version__" in dir(hvnogo)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'hvnogo' has no attribute 'no_such_name'$"):
        hvnogo.no_such_name


def test_submodules_still_import_from_the_package():
    from hvnogo import dist

    assert dist is sys.modules["hvnogo.dist"]
