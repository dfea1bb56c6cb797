"""Golden CLI output: fixed invocations whose stdout and exit status are checked in.

Each case runs ``hvnogo.cli.main(argv)`` in-process and compares the
captured stdout byte for byte with ``tests/golden/<name>.out`` and the exit
status with ``tests/golden/exit_status.json``.  The goldens lock the CLI's
observable behaviour so that refactors of the layers below it can be shown
to change nothing.
"""

import json
from pathlib import Path

import pytest

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
    # selftest.out is checked by tests/test_acceptance.py's criterion 9 test.
    names = {p.stem for p in GOLDEN.glob("*.out")} - {"selftest"}
    statuses = json.loads((GOLDEN / "exit_status.json").read_text(encoding="utf-8"))
    assert names == set(CASES) == set(statuses)
