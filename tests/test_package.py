"""The package namespace: every export, resolved from its defining module on
first use, and every record class, immutable and compared by its fields."""

import functools
import importlib
import pickle
import pkgutil
import re
import sys
from fractions import Fraction

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


def _records():
    """Every record class in the package, found by the marker that
    ``dist._record`` leaves on it, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(hvnogo.__path__):
        module = importlib.import_module(f"hvnogo.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__ and "_record_fields" in vars(value):
                found[value.__qualname__] = value
    return found


RECORDS = _records()


def _samples():
    """Per record class, the arguments of two records that differ in some field."""
    from hvnogo.family import CollapseKind
    from hvnogo.feasibility import AssumptionCheck, OutcomeAtom, OutcomeAtomModel, WitnessMode

    F = Fraction
    params = hvnogo.GeneralParams(F(1, 3), F(1, 2), F(1, 4))
    table, other_table = hvnogo.OnticTable((F(1, 8),) * 8), hvnogo.OnticTable((F(1, 2),) + (F(0),) * 6 + (F(1, 2),))
    setting = hvnogo.Setting("a", F(1, 3))
    atom = OutcomeAtom(((0, 1),), F(1))
    check = AssumptionCheck("adequacy", True, True, "ok")
    counts = hvnogo.Counts4(1, 2, 3, 4)
    return {
        "BinaryDist": ((F(1, 3), F(2, 3)), (F(1, 2), F(1, 2))),
        "JointDist": (((F(1, 4),) * 4,), ((F(1, 2), F(0), F(0), F(1, 2)),)),
        "GeneralParams": ((F(1, 3), F(1, 2), F(1, 4)), (F(1, 3), F(1, 2), F(3, 4))),
        "OnticTable": ((table.entries,), (other_table.entries,)),
        "Classification": ((CollapseKind.SPECIAL, False), (CollapseKind.SPECIAL, True)),
        "SolutionFamily": ((params, (F(0), F(1, 6)), (F(0), F(1, 6))), (params, (F(0), F(1, 6)), (F(0), F(1, 8)))),
        "Counts4": ((1, 2, 3, 4), (1, 2, 3, 5)),
        "SweepRow": ((0.5, counts, 0.25, None), (0.5, counts, 0.25, 0.75)),
        "StatReport": ((0.01, 0.5, True), (0.01, 0.5, False)),
        "LinearSystem": ((((F(1), F(1)),), (F(1),), ("sum",)), (((F(1), F(1)),), (F(1),), ("total",))),
        "FeasibilityReport": ((True, (F(1), F(0)), None, "feasible"), (False, None, (F(-1),), "infeasible")),
        "Setting": (("a", F(1, 3)), ("a", F(2, 3))),
        "SettingsFamily": ((F(1, 2), F(1, 4), (setting,)), (F(1, 2), F(1, 4), (setting, hvnogo.Setting("b", F(2, 3))))),
        "PerSettingTables": (({"a": table},), ({"a": other_table},)),
        "OutcomeAtom": ((((0, 1),), F(1)), (((0, 1), (1, 0)), F(1))),
        "OutcomeAtomModel": ((("a",), (atom,)), (("b",), (atom,))),
        "WitnessModel": (
            (WitnessMode.DROP_OBJECTIVITY, OutcomeAtomModel(("a",), (atom,))),
            (WitnessMode.DROP_OBJECTIVITY, OutcomeAtomModel(("b",), (atom,))),
        ),
        "AssumptionCheck": (("adequacy", True, True, "ok"), ("adequacy", False, True, "ok")),
        "WitnessReport": ((WitnessMode.DROP_INDEPENDENCE, (check,)), (WitnessMode.DROP_INDEPENDENCE, ())),
        "StateVector4": (((1, 0, 0, 0),), ((0, 1, 0, 0),)),
        "CriterionResult": ((1, "one", True, "ok", 0.5), (1, "one", True, "ok", 0.25)),
    }


SAMPLES = _samples()


def _values(record):
    return tuple(getattr(record, name) for name in type(record)._record_fields)


def test_every_record_is_found_and_has_samples():
    assert len(RECORDS) == 21
    assert sorted(RECORDS) == sorted(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
class TestRecord:
    """README's "all values are immutable", and what each record class
    keeps of a frozen value: equality, hash, repr and pickle by its fields,
    and the constructor's signature."""

    def test_assignment_and_deletion_raise(self, name):
        record = RECORDS[name](*SAMPLES[name][0])
        before = _values(record)
        for field in type(record)._record_fields:
            with pytest.raises(AttributeError, match=f"^cannot assign to {name}.{field}: records are immutable$"):
                setattr(record, field, None)
            with pytest.raises(AttributeError, match=f"^cannot delete {name}.{field}: records are immutable$"):
                delattr(record, field)
        with pytest.raises(AttributeError):
            record.not_a_field = 1
        assert _values(record) == before and "not_a_field" not in vars(record)

    def test_equality_and_hash_follow_the_fields(self, name):
        cls = RECORDS[name]
        args, other_args = SAMPLES[name]
        record, twin, other = cls(*args), cls(**dict(zip(cls._record_fields, args))), cls(*other_args)
        assert record == twin and not record != twin
        assert record != other and _values(record) != _values(other)
        assert record.__eq__(_values(record)) is NotImplemented
        assert record != _values(record)
        try:
            expected = hash(_values(record))
        except TypeError:  # a dict field, as in PerSettingTables
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(twin) == expected

    def test_repr_names_each_field(self, name):
        record = RECORDS[name](*SAMPLES[name][0])
        shown = ", ".join(f"{field}={value!r}" for field, value in zip(type(record)._record_fields, _values(record)))
        assert repr(record) == f"{name}({shown})"

    def test_pickle_round_trips(self, name):
        record = RECORDS[name](*SAMPLES[name][0])
        again = pickle.loads(pickle.dumps(record))
        assert type(again) is type(record)
        assert again == record and repr(again) == repr(record)
        with pytest.raises(AttributeError):
            setattr(again, type(record)._record_fields[0], None)

    def test_missing_argument_message(self, name):
        cls = RECORDS[name]
        args = SAMPLES[name][0]
        missing = cls._record_fields[-1]
        message = f"^{name}.__init__\\(\\) missing 1 required positional argument: '{missing}'$"
        with pytest.raises(TypeError, match=message):
            cls(*args[:-1])

    def test_cached_values_stay_outside_the_fields(self, name):
        cls = RECORDS[name]
        record, fresh = cls(*SAMPLES[name][0]), cls(*SAMPLES[name][0])
        cached = [attr for attr, value in vars(cls).items() if isinstance(value, functools.cached_property)]
        for attr in cached:
            getattr(record, attr)
            assert attr in vars(record) and attr not in vars(fresh)
        assert record == fresh and repr(record) == repr(fresh)
        if name != "PerSettingTables":  # its dict field makes it unhashable
            assert hash(record) == hash(fresh)
