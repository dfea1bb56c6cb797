"""Acceptance gate: every criterion at its stated tolerance, one line each.

Criteria 1-8 run in-process through :mod:`hvnogo.acceptance` (the same code
``hvnogo selftest`` executes); criterion 9 drives the CLI itself.
"""

import ast
import builtins
import functools
import math
from fractions import Fraction
from pathlib import Path

import pytest

from checkout import run_python
from hvnogo import LinearSystem, OnticTable, acceptance, exactlp, montecarlo, quantum_joint
from hvnogo.cli import main
from records import replaced

SELFTEST_GOLDEN = Path(__file__).parent / "golden" / "selftest.out"


def _line(result):
    """The criterion's line as ``hvnogo selftest`` prints it."""
    status = "PASS" if result.passed else "FAIL"
    return f"criterion {result.index} [{status}] {result.name}: {result.detail}"


def _run(criterion):
    result = criterion()
    print(_line(result))
    return result


def _assert_ok(result):
    assert result.passed, result.detail
    limit = acceptance.RUNTIME_LIMITS.get(result.index)
    if limit is not None:
        assert result.elapsed < limit, f"criterion {result.index} took {result.elapsed:.2f}s, limit {limit}s"


def test_criterion_1_born_rule_agreement():
    _assert_ok(_run(acceptance.criterion_1))


def test_criterion_2_parameter_reduction():
    _assert_ok(_run(acceptance.criterion_2))


def test_criterion_3_two_parameter_family():
    _assert_ok(_run(acceptance.criterion_3))


def test_criterion_4_duality_collapse():
    _assert_ok(_run(acceptance.criterion_4))


def test_criterion_5_special_solution_identity():
    _assert_ok(_run(acceptance.criterion_5))


def test_criterion_6_triple_infeasibility():
    _assert_ok(_run(acceptance.criterion_6))


def test_criterion_7_pairwise_compatibility():
    _assert_ok(_run(acceptance.criterion_7))


def test_criterion_8_monte_carlo_phenomenology():
    _assert_ok(_run(acceptance.criterion_8))


@pytest.mark.slow
def test_criterion_9_selftest_is_deterministic_and_green():
    first = run_python("-m", "hvnogo.cli", "selftest", capture_output=True, text=False)
    second = run_python("-m", "hvnogo.cli", "selftest", capture_output=True, text=False)
    assert first.returncode == 0, first.stdout.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout, "selftest output must be byte-identical between runs"
    assert first.stdout == SELFTEST_GOLDEN.read_bytes(), "selftest output differs from tests/golden/selftest.out"
    text = first.stdout.decode()
    print("criterion 9 [PASS] CLI selftest: exit 0 and byte-identical reruns")
    for i in range(1, 9):
        assert f"criterion {i} [PASS]" in text


F = Fraction


def _labels_swapped(table):
    """The table with its p and w halves exchanged."""
    return OnticTable(table.entries[4:] + table.entries[:4])


def _mass_moved(table):
    """The table with cell 00p's mass moved to cell 10p."""
    e = table.entries
    return OnticTable((F(0), e[1], e[2] + e[0]) + e[3:])


def _first_sign_flipped(y):
    i = next(i for i, v in enumerate(y) if v)
    return y[:i] + (-y[i],) + y[i + 1:]


def _first_joint_rows(system):
    """The first four rows of a triple system: its first joint's adequacy rows."""
    return LinearSystem(system.matrix[:4], system.rhs[:4], system.labels[:4])


def _with_contradiction(system):
    """``system`` plus the row 0 = 1, which no point satisfies."""
    return LinearSystem(
        system.matrix + ((F(0),) * system.num_vars,), system.rhs + (F(1),), system.labels + ("0 = 1",)
    )


def _first_weight_zeroed(build):
    @functools.wraps(build)
    def built(family):
        model = build(family)
        atoms = (replaced(model.payload.atoms[0], weight=F(0)),) + model.payload.atoms[1:]
        return replaced(model, payload=replaced(model.payload, atoms=atoms))

    return built


def _first_table_dropped(build):
    @functools.wraps(build)
    def built(family):
        model = build(family)
        tables = dict(model.payload.tables)
        del tables[family.settings[0].label]
        return replaced(model, payload=replaced(model.payload, tables=tables))

    return built


def _report_changed(check, **changes):
    """A ``check_triple`` whose every report takes ``changes``, each a function of the report."""
    return lambda family: replaced(
        report := check(family), **{name: change(report) for name, change in changes.items()}
    )


def _rows_changed(sweep, **changes):
    """A sweep whose every row takes ``changes``, each a function of the row."""
    return lambda *args, **kwargs: [
        replaced(row, **{name: change(row) for name, change in changes.items()})
        for row in sweep(*args, **kwargs)
    ]


#: id -> (criterion, the name in ``acceptance`` that is replaced, its fault made from the real one, detail)
PLANTED = {
    "rank_five": (
        3, "matrix_rank", lambda real: lambda rows: 5,
        "trial 0: rank != 6 for GeneralParams(x=Fraction(7, 12), e_p=Fraction(3, 4), e_w=Fraction(10, 11))",
    ),
    "member_off_in_one_cell": (
        3, "instantiate", lambda real: lambda family, s, t: _mass_moved(real(family, s, t)),
        "trial 0: nonzero residual at (s,t) grid point",
    ),
    "vertex_beyond_the_s_range": (
        3, "enumerate_basic_solutions", lambda real: lambda system: ((F(0),) * 4 + (F(1),) + (F(0),) * 3,),
        "trial 0: enumerated vertex outside the (s, t) ranges",
    ),
    "vertex_off_the_family": (
        3, "enumerate_basic_solutions", lambda real: lambda system: ((F(0),) * 8,),
        "trial 0: enumerated vertex not reproduced by the closed form",
    ),
    "conditional_b_swapped": (
        4, "conditional_given", lambda real: lambda table, b, lam: real(table, 1 - b, lam),
        "trial 0: p(a|b=0,lam=w) differs from (e_p, 1-e_p)",
    ),
    "conditional_b_swapped_under_p": (
        4, "conditional_given", lambda real: lambda table, b, lam: real(table, 1 - b if lam == "p" else b, lam),
        "trial 0: p(a|b=1,lam=p) differs from (e_w, 1-e_w)",
    ),
    "special_labels_swapped": (
        5, "special_solution", lambda real: lambda params: _labels_swapped(real(params)),
        "trial 0: label marginal (Fraction(7, 8), Fraction(1, 8)) != (x, 1-x)"
        " for GeneralParams(x=Fraction(1, 8), e_p=Fraction(6, 7), e_w=Fraction(1, 7))",
    ),
    "distinct_x_called_feasible": (
        6, "check_triple", lambda real: _report_changed(real, feasible=lambda r: True),
        "trial 0: distinct-x family reported feasible",
    ),
    "certificate_sign_flipped": (
        6, "check_triple", lambda real: _report_changed(real, certificate=lambda r: _first_sign_flipped(r.certificate)),
        "trial 0: certificate rejected by the verifier",
    ),
    "simplex_reads_the_first_joint_only": (
        6, "lp_feasible", lambda real: lambda system: real(_first_joint_rows(system)),
        "trial 0: the simplex finds a table for the full system",
    ),
    "constant_x_called_infeasible": (
        6, "check_triple", lambda real: _report_changed(real, feasible=lambda r: False),
        "constant-x trial 0: reported infeasible",
    ),
    "witness_off_in_one_cell": (
        6, "check_triple", lambda real: _report_changed(real, witness=lambda r: r.witness and _mass_moved(r.witness)),
        "constant-x trial 0: witness has nonzero residual",
    ),
    "simplex_with_a_contradiction": (
        6, "lp_feasible", lambda real: lambda system: real(_with_contradiction(system)),
        "constant-x trial 0: the simplex finds no table",
    ),
    "drop_objectivity_weight_zeroed": (
        7, "model_drop_objectivity", _first_weight_zeroed,
        "trial 0: model_drop_objectivity failed ['adequacy', 'independence']",
    ),
    "sweep_never_conditions_on_b1": (
        8, "fringe_sweep", lambda real: _rows_changed(real, f_a0_given_b1=lambda row: None),
        "phi = 0.0: a conditioning outcome never fired",
    ),
    "sweep_b1_frequencies_shifted": (
        8, "fringe_sweep", lambda real: _rows_changed(real, f_a0_given_b1=lambda row: row.f_a0_given_b1 + 0.05),
        "sweep deviations too large: wave 0.054262334633479625, flat 0.004414326039518746",
    ),
    "shots_of_another_joint": (
        8, "sample_events", lambda real: lambda joint, n, seed: real(quantum_joint(math.pi / 4, math.pi / 4), n, seed),
        "million-shot TV distance 0.2502789999999999 not below 0.005",
    ),
}

#: id -> (module, the name in it that is replaced, its fault made from the real one, the criterion's whole line).
#: ``acceptance`` keeps the real ``verify_certificate`` it imported, so only the simplex meets the fault.
RAISED = {
    "drop_independence_table_dropped": (
        acceptance, "model_drop_independence", _first_table_dropped,
        "criterion 7 [FAIL] pairwise compatibility witnesses: MalformedModel: per-setting tables keyed by "
        "['alpha2', 'alpha3'], family has ['alpha1', 'alpha2', 'alpha3']",
    ),
    "simplex_certificate_rejected": (
        exactlp, "verify_certificate", lambda real: lambda system, y: False,
        "criterion 6 [FAIL] triple infeasibility theorem: "
        "AssertionError: simplex produced an invalid Farkas certificate; this is a bug",
    ),
}


class TestEachCriterionCanFail:
    """A fault planted in the layer a criterion guards makes that criterion
    fail at its first trial, with the detail that names the fault."""

    @pytest.mark.parametrize("plant", list(PLANTED))
    def test_planted_fault_fails_its_criterion(self, monkeypatch, plant):
        index, name, fault, detail = PLANTED[plant]
        monkeypatch.setattr(acceptance, name, fault(getattr(acceptance, name)))
        result = getattr(acceptance, f"criterion_{index}")()
        assert (result.index, result.passed, result.detail) == (index, False, detail)

    def test_a_draw_above_the_nkl_threshold_fails(self, monkeypatch):
        # the million-shot draw's n*KL is 3.01; a threshold of 3 is planted where compare and the detail read it
        for module in (montecarlo, acceptance):
            monkeypatch.setattr(module, "NKL_THRESHOLD", 3.0)
        result = acceptance.criterion_8()
        assert (result.passed, result.detail) == (False, "million-shot n*KL 3.0143200855067875 above 3.0")

    @pytest.mark.parametrize("plant", list(RAISED))
    def test_a_layer_error_is_the_criterion_failure(self, monkeypatch, plant):
        module, name, fault, line = RAISED[plant]
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
        index = int(line.split()[1])
        assert _line(getattr(acceptance, f"criterion_{index}")()) == line

    def test_selftest_with_a_failing_layer_prints_every_line_and_exits_4(self, monkeypatch, capsys):
        module, name, fault, line = RAISED["drop_independence_table_dropped"]
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
        assert main(["selftest"]) == 4
        captured = capsys.readouterr()
        expected = SELFTEST_GOLDEN.read_text(encoding="utf-8").splitlines()
        expected[6], expected[8] = line, "7/8 acceptance criteria passed"
        assert (captured.out.splitlines(), captured.err) == (expected, "")


class TestAnnotations:
    def test_every_annotation_names_a_module_level_name(self):
        # names imported under TYPE_CHECKING count, as they do for a type checker
        tree = ast.parse(Path(acceptance.__file__).read_text(encoding="utf-8"))
        bound = set(dir(builtins))
        for node in tree.body + [n for top in tree.body if isinstance(top, ast.If) for n in top.body]:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound |= {(alias.asname or alias.name).partition(".")[0] for alias in node.names}
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        annotations = [
            a
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            for a in [node.returns, *(arg.annotation for arg in ast.walk(node.args) if isinstance(arg, ast.arg))]
            if a is not None
        ] + [node.annotation for node in ast.walk(tree) if isinstance(node, ast.AnnAssign)]
        used = {n.id for a in annotations for n in ast.walk(a) if isinstance(n, ast.Name)}
        assert "Generator" in used
        assert used <= bound, sorted(used - bound)
