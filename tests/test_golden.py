"""Golden CLI output: fixed invocations whose stdout and exit status are checked in.

Each case runs ``hvnogo.cli.main(argv)`` in-process and compares the
captured stdout byte for byte with ``tests/golden/<name>.out`` and the exit
status with ``tests/golden/exit_status.json``.  The goldens lock the CLI's
observable behaviour so that refactors of the layers below it can be shown
to change nothing.  ``tests/golden/check_triple.out`` likewise pins
``check_triple``'s full report, exact certificate included, for seeded
families with up to 512 settings.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hvnogo import Setting, SettingsFamily, check_triple
from hvnogo.cli import main

GOLDEN = Path(__file__).parent / "golden"

FAMILIES = {
    "k2": {
        "e_p": "1/2",
        "e_w": "1/4",
        "settings": [{"label": "alpha1", "x": "1/3"}, {"label": "alpha2", "x": "2/3"}],
    },
    "constant": {
        "e_p": "1/2",
        "e_w": "1/4",
        "settings": [{"label": "alpha1", "x": "1/3"}, {"label": "alpha2", "x": "1/3"}],
    },
    "k4": {
        "e_p": "3/5",
        "e_w": "2/7",
        "settings": [
            {"label": "open", "x": "0"},
            {"label": "fifth", "x": "1/5"},
            {"label": "four_ninths", "x": "4/9"},
            {"label": "closed", "x": "1"},
        ],
    },
}

#: name -> (argv, family key for --input or None)
CASES = {
    "family_ranges": (["family", "--x", "1/3", "--ep", "1/2", "--ew", "1/4"], None),
    "family_member": (
        ["family", "--x", "1/3", "--ep", "1/2", "--ew", "1/4", "--s", "1/12", "--t", "1/12"],
        None,
    ),
    "feasibility_k2": (["feasibility"], "k2"),
    "feasibility_constant": (["feasibility"], "constant"),
    "feasibility_k4": (["feasibility"], "k4"),
    "demo_independence_k2": (["demo", "--drop", "independence"], "k2"),
    "demo_objectivity_k2": (["demo", "--drop", "objectivity"], "k2"),
    "demo_determinism_k2": (["demo", "--drop", "determinism"], "k2"),
    "demo_independence_k4": (["demo", "--drop", "independence"], "k4"),
    "demo_objectivity_k4": (["demo", "--drop", "objectivity"], "k4"),
    "demo_determinism_k4": (["demo", "--drop", "determinism"], "k4"),
    "sweep_seed9": (
        [
            "sweep", "--alpha", "pi/4", "--phi-start", "0", "--phi-end", "2*pi/1",
            "--steps", "5", "--shots", "2000", "--seed", "9",
        ],
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, capsys):
    argv, family = CASES[name]
    if family is not None:
        path = tmp_path / f"{family}.json"
        path.write_text(json.dumps(FAMILIES[family]), encoding="utf-8")
        argv = argv + ["--input", str(path)]
    status = main(argv)
    out = capsys.readouterr().out
    expected_status = json.loads((GOLDEN / "exit_status.json").read_text(encoding="utf-8"))[name]
    assert status == expected_status
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def test_every_golden_file_has_a_case():
    # selftest.out is checked by tests/test_acceptance.py's criterion 9 test,
    # check_triple.out by test_check_triple_reports_match_golden below.
    names = {p.stem for p in GOLDEN.glob("*.out")} - {"selftest", "check_triple"}
    statuses = json.loads((GOLDEN / "exit_status.json").read_text(encoding="utf-8"))
    assert names == set(CASES) == set(statuses)


#: (k, large denominators, distinct x) for each family in check_triple.out.
TRIPLE_FAMILIES = (
    (1, False, False),
    (2, False, True), (3, False, True), (5, False, True), (8, False, True),
    (16, False, True), (32, False, True), (64, False, True), (128, False, True),
    (2, True, True), (4, True, True), (8, True, True), (16, True, True),
    (32, True, True), (64, True, True), (128, True, True),
    (4, False, False), (16, True, False), (32, False, False), (64, True, False),
    (256, False, True), (512, True, True),
)


def _triple_fraction(rng: random.Random, large: bool) -> Fraction:
    den = rng.randint(10**5, 10**6) if large else rng.randint(2, 12)
    return Fraction(rng.randint(1, den - 1), den)


def triple_family(index: int) -> SettingsFamily:
    """The seeded family behind entry ``index`` of check_triple.out."""
    k, large, distinct = TRIPLE_FAMILIES[index]
    rng = random.Random(f"check_triple/{index}")
    e_p = _triple_fraction(rng, large)
    e_w = _triple_fraction(rng, large)
    while e_w == e_p:
        e_w = _triple_fraction(rng, large)
    xs = [_triple_fraction(rng, large) for _ in range(k)]
    if distinct:
        while xs[1] == xs[0]:
            xs[1] = _triple_fraction(rng, large)
    else:
        xs = [xs[0]] * k
    return SettingsFamily(e_p, e_w, tuple(Setting(f"s{i}", x) for i, x in enumerate(xs)))


def render_triple_reports() -> str:
    """check_triple's verdict, exact evidence and narrative for every family."""
    out = []
    for index in range(len(TRIPLE_FAMILIES)):
        family = triple_family(index)
        report = check_triple(family)
        evidence = report.witness.entries if report.feasible else report.certificate
        out += [
            f"family {index}: k = {len(family.settings)}, e_p = {family.e_p}, e_w = {family.e_w}",
            "x: " + " ".join(str(s.x) for s in family.settings),
            f"feasible: {report.feasible}",
            ("witness: " if report.feasible else "certificate: ") + " ".join(str(v) for v in evidence),
            f"narrative: {report.narrative}",
            "",
        ]
    return "\n".join(out)


def test_check_triple_reports_match_golden():
    assert render_triple_reports() == (GOLDEN / "check_triple.out").read_text(encoding="utf-8")
