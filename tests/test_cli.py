"""CLI contract: schemas, exit statuses, byte-level determinism."""

import contextlib
import io
import json
import math
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from checkout import run_python
from hvnogo import MalformedInput, Setting, SettingsFamily, cli, montecarlo, to_json
from hvnogo.cli import main

FAMILY_JSON = {
    "e_p": "1/2",
    "e_w": "1/4",
    "settings": [{"label": "alpha1", "x": "1/3"}, {"label": "alpha2", "x": "2/3"}],
}
CONSTANT_JSON = {
    "e_p": "1/2",
    "e_w": "1/4",
    "settings": [{"label": "alpha1", "x": "1/3"}, {"label": "alpha2", "x": "1/3"}],
}


SWEEP_ARGV = ("sweep", "--alpha", "0", "--phi-start", "0", "--phi-end", "1", "--seed", "1")


def run_cli(*args):
    return run_python("-m", "hvnogo.cli", *args, capture_output=True, text=True)


@pytest.fixture()
def family_file(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(FAMILY_JSON), encoding="utf-8")
    return str(path)


@pytest.fixture()
def constant_file(tmp_path):
    path = tmp_path / "constant.json"
    path.write_text(json.dumps(CONSTANT_JSON), encoding="utf-8")
    return str(path)


class TestQuantum:
    def test_pure_particle_joint(self):
        result = run_cli("quantum", "--alpha", "0", "--phi", "pi/2")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["joint"] == {"00": 0.5, "01": 0.0, "10": 0.5, "11": 0.0}
        assert payload["params"]["x"] == 1.0
        assert set(payload["amplitudes"]) == {"00", "01", "10", "11"}

    def test_pi_token_forms(self):
        for token in ("pi", "pi/4", "3*pi/4", "0.25"):
            result = run_cli("quantum", "--alpha", token, "--phi", "0")
            assert result.returncode == 0, token
        # negative values need the = form so argparse does not read a flag
        result = run_cli("quantum", "--alpha=-pi/2", "--phi", "0")
        assert result.returncode == 0

    @pytest.mark.parametrize("token,radians", [
        ("pi", math.pi), ("pi/4", math.pi / 4), ("3*pi/4", 3 * math.pi / 4), ("-pi/2", -math.pi / 2), ("0.25", 0.25),
    ])
    def test_pi_token_values(self, token, radians):
        assert cli.parse_angle(token) == radians

    def test_byte_identical_reruns(self):
        a = run_cli("quantum", "--alpha", "pi/3", "--phi", "pi/4")
        b = run_cli("quantum", "--alpha", "pi/3", "--phi", "pi/4")
        assert a.stdout == b.stdout


class TestFamily:
    def test_special_member(self):
        result = run_cli("family", "--x", "1/3", "--ep", "1/2", "--ew", "1/4", "--s", "0", "--t", "0")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["classification"]["kind"] == "Special"
        assert payload["lambda_marginal"] == {"p": "1/3", "w": "2/3"}
        assert payload["s_range"] == ["0", "1/6"]
        assert payload["instance"]["00p"] == "1/6"

    def test_ranges_only_without_member(self):
        payload = json.loads(run_cli("family", "--x", "1/3", "--ep", "1/2", "--ew", "1/4").stdout)
        assert "instance" not in payload
        assert payload["t_range"] == ["0", "1/6"]

    def test_s_without_t_is_a_usage_error(self):
        result = run_cli("family", "--x", "1/3", "--ep", "1/2", "--ew", "1/4", "--s", "0")
        assert result.returncode == 1
        assert result.stdout == ""

    def test_boundary_x_is_reported_on_stderr(self):
        result = run_cli("family", "--x", "1", "--ep", "1/2", "--ew", "1/4")
        assert result.returncode == 1
        # 1 is a probability, so the parser takes it and solve_family refuses it
        assert result.stderr == (
            "error: parameter 'x' is at the boundary; the family is only two-dimensional for interior parameters\n"
        )
        assert result.stdout == ""

    def test_out_of_range_member(self):
        result = run_cli("family", "--x", "1/3", "--ep", "1/2", "--ew", "1/4", "--s", "1/5", "--t", "0")
        assert result.returncode == 1
        assert result.stdout == ""


class TestFeasibility:
    def test_infeasible_exit_three_with_certificate(self, family_file):
        result = run_cli("feasibility", "--input", family_file)
        assert result.returncode == 3
        payload = json.loads(result.stdout)
        assert payload["feasible"] is False
        assert payload["certificate"]
        assert "1/3" in payload["narrative"] and "2/3" in payload["narrative"]

    def test_feasible_exit_zero_with_witness(self, constant_file):
        result = run_cli("feasibility", "--input", constant_file)
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["feasible"] is True
        assert set(payload["witness"]) == {"00p", "01p", "10p", "11p", "00w", "01w", "10w", "11w"}

    def test_malformed_json_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        result = run_cli("feasibility", "--input", str(bad))
        assert result.returncode == 2
        assert result.stdout == ""

    def test_missing_field_exit_two(self, tmp_path):
        bad = tmp_path / "nofield.json"
        bad.write_text(json.dumps({"e_w": "1/4", "settings": []}), encoding="utf-8")
        result = run_cli("feasibility", "--input", str(bad))
        assert result.returncode == 2
        assert "e_p" in result.stderr

    def test_missing_file_exit_two(self):
        result = run_cli("feasibility", "--input", "/nonexistent/family.json")
        assert result.returncode == 2

    @pytest.mark.parametrize("command,content,fragment", [
        (["feasibility"], json.dumps({**FAMILY_JSON, "settings": [{"label": "a", "x": "5/3"}]}), "settings[0]"),
        (["demo", "--drop", "objectivity"], json.dumps({**FAMILY_JSON, "settings": [{"label": "a", "x": "5/3"}]}),
         "settings[0]"),
        (["feasibility"], b"\xff\xfe{}", "utf-8"),
        (["feasibility"], json.dumps({**FAMILY_JSON, "settings": [{"label": "a", "x": "1e-5000"}]}), "settings[0].x"),
        (["feasibility"], '{"e_p": "1/2", "e_w": "1/4", "settings": [{"label": "a", "x": 0}, '
         '{"label": "b", "x": ' + "1" * 5000 + "}]}", "settings[1].x: rational literal needs more than 4300 digits"),
        (["feasibility"], "[" * 100_000 + "]" * 100_000, "not valid JSON"),
        (["feasibility"], json.dumps({**FAMILY_JSON, "settings": [{"label": {"a": 1}, "x": "1/3"}]}),
         "settings[0].label"),
        (["feasibility"], '{"e_p": "1/2", "e_w": "1/4", "settings": [{"label": 0.5, "x": "1/3"}]}',
         "settings[0].label"),
        (["feasibility"], '{"e_p": "1/2", "e_w": "1/4", "settings": [{"label": "a", "x": NaN}]}', "settings[0].x"),
        (["feasibility"], '{"e_p": "1/2", "e_w": "1/4", "settings": [{"label": "a", "x": Infinity}]}',
         "settings[0].x"),
        (["feasibility"], None, "cannot read input file"),
    ], ids=[
        "x_out_of_range", "demo_x_out_of_range", "not_utf8", "x_too_long_to_print", "int_too_long", "deep_nesting",
        "label_not_a_string", "label_a_number", "x_nan", "x_infinity", "nul_byte_in_path",
    ])
    def test_rejected_with_one_error_line(self, tmp_path, capsys, command, content, fragment):
        # In-process, because no subprocess argv can carry a NUL byte.
        if content is None:
            path = tmp_path / "fam\x00ily.json"
        else:
            path = tmp_path / "family.json"
            path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        assert main([*command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and fragment in lines[0]

    @pytest.mark.parametrize("command", [["feasibility"], ["demo", "--drop", "objectivity"]], ids=["feasibility", "demo"])
    @pytest.mark.parametrize("content,message", [
        ("[]", "input file '@FILE@' must hold a JSON object"),
        ('{"e_w": "1/4", "settings": [{"label": "a", "x": "1/3"}]}', "settings family is missing field 'e_p'"),
        ('{"e_p": "1/2", "settings": [{"label": "a", "x": "1/3"}]}', "settings family is missing field 'e_w'"),
        ('{"e_p": "1/2", "e_w": "1/4"}', "settings family is missing field 'settings'"),
        ('{"e_p": "1/2", "e_w": "1/4", "settings": []}', "field 'settings' must be a nonempty list"),
        ('{"e_p": "1/2", "e_w": "1/4", "settings": {"label": "a", "x": "1/3"}}',
         "field 'settings' must be a nonempty list"),
        ('{"e_p": "1/2", "e_w": "1/4", "settings": [{"x": "1/3"}]}', "settings[0] needs fields 'label' and 'x'"),
        ('{"e_p": "1/2", "e_w": "1/4", "settings": [{"label": "a"}]}', "settings[0] needs fields 'label' and 'x'"),
        ('{"e_p": "1/2", "e_w": "1/4", "settings": [["a", "1/3"]]}', "settings[0] needs fields 'label' and 'x'"),
        ('{"e_p": "1/2", "e_w": "1/4", "settings": [{"label": "a", "x": "1/3"}, {"label": "a", "x": "2/3"}]}',
         "field 'settings': setting labels must be unique, got ['a', 'a']"),
        ('{"e_p": "1/2", "e_w": "1/4", "settings": [{"label": NaN, "x": "1/3"}]}',
         "settings[0].label: expected a string, got number"),
        ('{"e_p": Infinity, "e_w": "1/4", "settings": [{"label": "a", "x": "1/3"}]}',
         "field 'e_p': not a rational literal: 'inf'"),
        ('{"e_p": "1/2", "e_w": -Infinity, "settings": [{"label": "a", "x": "1/3"}]}',
         "field 'e_w': not a rational literal: '-inf'"),
        ('{"e_p": "1/2", "e_w": "1/4", "settings": [{"label": "a", "x": NaN}]}',
         "settings[0].x: not a rational literal: 'nan'"),
        ('{"e_p": "3/2", "e_w": "1/4", "settings": [{"label": "a", "x": "1/3"}]}',
         "field 'e_p': probability '3/2' outside [0, 1]"),
        ('{"e_p": "1/2", "e_w": -0.5, "settings": [{"label": "a", "x": "1/3"}]}',
         "field 'e_w': probability '-0.5' outside [0, 1]"),
        ('{"e_p": "1/2", "e_w": "1/4", "settings": [{"label": "a", "x": "5/3"}]}',
         "settings[0].x: probability '5/3' outside [0, 1]"),
    ], ids=[
        "top_level_array", "no_e_p", "no_e_w", "no_settings", "empty_settings", "settings_an_object",
        "item_without_label", "item_without_x", "item_an_array", "duplicate_labels", "label_nan", "e_p_infinity",
        "e_w_minus_infinity", "x_nan", "e_p_out_of_range", "e_w_number_out_of_range", "x_out_of_range",
    ])
    def test_refusal_is_its_whole_error_line(self, tmp_path, capsys, command, content, message):
        path = tmp_path / "family.json"
        path.write_text(content, encoding="utf-8")
        assert main([*command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: " + message.replace("@FILE@", str(path)) + "\n"

    @pytest.mark.parametrize("literal", ["5/3", "-1/3", "1.5"])
    def test_flag_and_file_give_one_range_reason(self, tmp_path, capsys, literal):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({**FAMILY_JSON, "settings": [{"label": "a", "x": literal}]}), encoding="utf-8")
        assert main(["feasibility", "--input", str(path)]) == 2
        from_file = capsys.readouterr().err
        assert main(["family", f"--x={literal}", "--ep", "1/2", "--ew", "1/4"]) == 1
        from_flag = capsys.readouterr().err
        reason = f"probability {literal!r} outside [0, 1]\n"
        assert from_file == "error: settings[0].x: " + reason
        assert from_flag == "error: argument --x: " + reason

    def test_json_numbers_are_read_as_their_literal(self, tmp_path, capsys):
        # Read as floats, 1e-400 would underflow to the boundary value 0 and
        # 0.30000000000000001 would round to 3/10.
        path = tmp_path / "family.json"
        path.write_text(
            '{"e_p": 0.5, "e_w": "1/4", "settings": [{"label": "tiny", "x": 1e-400}, '
            '{"label": "long", "x": 0.30000000000000001}, {"label": "half", "x": 0.5}]}',
            encoding="utf-8",
        )
        family = cli._load_family(str(path))
        assert family.e_p == Fraction(1, 2)
        xs = [Fraction(1, 10**400), Fraction(30000000000000001, 10**17), Fraction(1, 2)]
        assert [s.x for s in family.settings] == xs
        assert main(["feasibility", "--input", str(path)]) == 3
        narrative = json.loads(capsys.readouterr().out)["narrative"]
        assert f"setting 'tiny' demands x = 1/{10**400}" in narrative

    def test_a_zero_with_a_long_exponent_is_read_as_zero(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(
            '{"e_p": "1/2", "e_w": 0E+12345, "settings": [{"label": "a", "x": 0e-5000}, {"label": "b", "x": 1}]}',
            encoding="utf-8",
        )
        family = cli._load_family(str(path))
        assert (family.e_w, [s.x for s in family.settings]) == (0, [0, 1])

    @pytest.mark.parametrize("field,value,message", [
        ("label", "1.5", "settings[0].label: expected a string, got number"),
        ("label", "3", "settings[0].label: expected a string, got number"),
        ("label", "true", "settings[0].label: expected a string, got boolean"),
        ("label", "null", "settings[0].label: expected a string, got null"),
        ("label", "[1]", "settings[0].label: expected a string, got array"),
        ("label", "{}", "settings[0].label: expected a string, got object"),
        ("e_p", "true", "field 'e_p': expected a rational string or number, got boolean"),
        ("e_w", "null", "field 'e_w': expected a rational string or number, got null"),
        ("x", "[1]", "settings[0].x: expected a rational string or number, got array"),
        ("x", "{}", "settings[0].x: expected a rational string or number, got object"),
    ], ids=[
        "label_decimal", "label_integer", "label_true", "label_null", "label_array", "label_object", "e_p_true",
        "e_w_null", "x_array", "x_object",
    ])
    def test_errors_name_the_json_type(self, tmp_path, capsys, field, value, message):
        fields = {"e_p": '"1/2"', "e_w": '"1/4"', "label": '"a"', "x": '"1/3"', field: value}
        path = tmp_path / "family.json"
        path.write_text(
            '{{"e_p": {e_p}, "e_w": {e_w}, "settings": [{{"label": {label}, "x": {x}}}]}}'.format(**fields),
            encoding="utf-8",
        )
        assert main(["feasibility", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_round_trip(self, tmp_path):
        family = SettingsFamily(Fraction(1, 2), Fraction(1, 4),
                                (Setting("alpha1", Fraction(1, 3)), Setting("alpha2", Fraction(2, 3))))
        data = to_json(family)
        assert data == FAMILY_JSON
        path = tmp_path / "family.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert cli._load_family(str(path)) == family

    @pytest.mark.parametrize("mutate,fragment", [
        (lambda d: d.pop("e_p"), "e_p"),
        (lambda d: d.update(e_w="w"), "e_w"),
        (lambda d: d.update(settings=[]), "settings"),
        (lambda d: d.update(settings=[{"label": "a"}]), "settings[0]"),
        (lambda d: d.update(settings=[{"label": "a", "x": "x"}]), "settings[0].x"),
        (lambda d: d.update(settings=[{"label": "a", "x": "5/3"}]), "settings[0].x:"),
        (lambda d: d.update(settings=[{"label": None, "x": "1/3"}]), "settings[0].label"),
    ])
    def test_malformed_inputs_name_the_field(self, tmp_path, mutate, fragment):
        data = json.loads(json.dumps(FAMILY_JSON))
        mutate(data)
        path = tmp_path / "family.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(MalformedInput) as info:
            cli._load_family(str(path))
        assert fragment in str(info.value)

    def test_duplicate_labels_rejected(self, tmp_path):
        data = {"e_p": "1/2", "e_w": "1/4", "settings": [{"label": "a", "x": "1/3"}, {"label": "a", "x": "2/3"}]}
        path = tmp_path / "family.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(MalformedInput):
            cli._load_family(str(path))


#: A legal probability whose denominator has 2 501 digits: the square of
#: its denominator cannot be printed under the default 4 300-digit limit.
_LONG = "1/1" + "0" * 2500


class TestOversizedResults:
    """A product of legal inputs too long to print is a one-line domain error, exit 1."""

    LONG_FAMILY = {"e_p": _LONG, "e_w": "1/3", "settings": [{"label": "a", "x": _LONG}, {"label": "b", "x": "1/2"}]}

    @pytest.mark.parametrize("argv", [
        ["demo", "--drop", "independence", "--input", "@FILE@"],
        ["demo", "--drop", "objectivity", "--input", "@FILE@"],
        ["family", "--x", _LONG, "--ep", _LONG, "--ew", "1/3"],
    ], ids=["demo_independence", "demo_objectivity", "family"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output_file"])
    def test_reported_in_one_line(self, tmp_path, capsys, argv, to_file):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(self.LONG_FAMILY), encoding="utf-8")
        output = tmp_path / "out.json"
        argv = [str(path) if token == "@FILE@" else token for token in argv]
        assert main([*argv, *(["--output", str(output)] if to_file else [])]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: an exact result needs more than {sys.get_int_max_str_digits()} digits to print\n"
        assert not output.exists()


class TestDemo:
    @pytest.mark.parametrize("drop", ["independence", "objectivity", "determinism"])
    def test_witnesses_validate(self, drop, family_file):
        result = run_cli("demo", "--drop", drop, "--input", family_file)
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["validation"]["overall_pass"] is True
        names = {c["name"]: c for c in payload["validation"]["checks"]}
        dropped = {"independence": "independence", "objectivity": "objectivity", "determinism": "determinism"}[drop]
        assert names[dropped]["retained"] is False


class TestSweep:
    def test_csv_shape_and_determinism(self):
        args = (
            "sweep", "--alpha", "pi/4", "--phi-start", "0", "--phi-end", "2*pi/1",
            "--steps", "5", "--shots", "2000", "--seed", "9",
        )
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        lines = a.stdout.strip().split("\n")
        assert lines[0] == "phi_radians,n00,n01,n10,n11,f_a0_given_b1,f_a0_given_b0"
        assert len(lines) == 6
        counts = [int(v) for v in lines[1].split(",")[1:5]]
        assert sum(counts) == 2000

    def test_output_flag_writes_the_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        result = run_cli(
            "sweep", "--alpha", "0", "--phi-start", "0", "--phi-end", "1", "--steps", "1",
            "--shots", "100", "--seed", "1", "--output", str(out),
        )
        assert result.returncode == 0
        assert result.stdout == ""
        assert out.read_text(encoding="utf-8").startswith("phi_radians,")

    def test_unwritable_output_is_a_one_line_error(self, tmp_path):
        out = tmp_path / "missing" / "dir" / "sweep.csv"
        result = run_cli(
            "sweep", "--alpha", "0", "--phi-start", "0", "--phi-end", "1", "--steps", "1",
            "--shots", "100", "--seed", "1", "--output", str(out),
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    def test_output_name_with_a_nul_byte_is_a_one_line_error(self, capsys):
        argv = ["sweep", "--alpha", "0", "--phi-start", "0", "--phi-end", "1", "--steps", "1", "--shots", "10",
                "--seed", "1", "--output", "out\x00.csv"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write output file") and captured.err.count("\n") == 1


class TestUsageErrors:
    def test_bad_angle(self):
        result = run_cli("quantum", "--alpha", "three", "--phi", "0")
        assert result.returncode == 1
        assert "--alpha" in result.stderr
        assert "expected radians or a pi token" in result.stderr
        assert result.stdout == ""

    def test_bad_probability(self):
        result = run_cli("family", "--x", "5/3", "--ep", "1/2", "--ew", "1/4")
        assert result.returncode == 1

    @pytest.mark.parametrize("argv,reason", [
        (("family", "--x", "5/3", "--ep", "1/2", "--ew", "1/4"), "argument --x: probability '5/3' outside [0, 1]"),
        (("family", "--x", "1/2", "--ep=-1/3", "--ew", "1/4"), "argument --ep: probability '-1/3' outside [0, 1]"),
        (SWEEP_ARGV + ("--steps", "0", "--shots", "1"), "argument --steps: expected a positive integer, got '0'"),
        (SWEEP_ARGV + ("--steps", "1", "--shots", "0"), "argument --shots: expected a positive integer, got '0'"),
        (("quantum", "--alpha", "pi/0", "--phi", "0"), "argument --alpha: zero denominator in angle 'pi/0'"),
    ], ids=["probability_above_one", "probability_below_zero", "zero_steps", "zero_shots", "angle_over_zero"])
    def test_flag_value_refused_with_its_reason(self, capsys, argv, reason):
        assert main(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {reason}\n"

    def test_unknown_subcommand(self):
        result = run_cli("frobnicate")
        assert result.returncode == 1

    def test_missing_required_flag(self):
        result = run_cli("quantum", "--alpha", "0")
        assert result.returncode == 1

    @pytest.mark.parametrize("args", [
        ("quantum", "--alpha", "9" * 400 + "*pi", "--phi", "0"),
        (
            "sweep", "--alpha", "0", "--phi-start=-1e308", "--phi-end", "1e308",
            "--steps", "3", "--shots", "10", "--seed", "1",
        ),
        (
            "sweep", "--alpha", "0", "--phi-start", "0", "--phi-end", "1",
            "--steps", "2", "--shots", "10", "--seed", str(2**128),
        ),
        ("family", "--x", "1/2", "--ep", "1/2", "--ew", "1/2", "--s", "1e-5000", "--t", "0"),
        ("family", "--x", "1e-5000", "--ep", "1/2", "--ew", "1/2"),
        (
            "sweep", "--alpha", "0", "--phi-start", "0", "--phi-end", "1",
            "--steps", "100001", "--shots", "1", "--seed", "1",
        ),
        (
            "sweep", "--alpha", "0", "--phi-start", "0", "--phi-end", "1",
            "--steps", "100000", "--shots", "10001", "--seed", "1",
        ),
    ], ids=[
        "infinite_pi_angle", "non_finite_sweep_grid", "seed_beyond_philox_key", "s_too_long_to_print",
        "x_too_long_to_print", "sweep_steps_above_limit", "sweep_shots_in_all_above_limit",
    ])
    def test_rejected_with_one_error_line(self, args):
        result = run_cli(*args)
        assert result.returncode == 1
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_seed_error_states_the_bound(self):
        result = run_cli(
            "sweep", "--alpha", "0", "--phi-start", "0", "--phi-end", "1",
            "--steps", "2", "--shots", "10", "--seed", str(2**128),
        )
        assert result.returncode == 1
        assert "2**128" in result.stderr

    def test_largest_sweep_is_accepted(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(montecarlo, "fringe_sweep", lambda alpha, grid, shots, seed: calls.append((len(grid), shots)) or [])
        argv = ["sweep", "--alpha", "0", "--phi-start", "0", "--phi-end", "1", "--seed", "1"]
        assert main([*argv, "--steps", "100000", "--shots", "10000"]) == 0
        assert main([*argv, "--steps", "100000", "--shots", "10001"]) == 1
        assert main([*argv, "--steps", "100001", "--shots", "1"]) == 1
        assert calls == [(100000, 10000)]
        assert capsys.readouterr().err.splitlines() == [
            "error: --steps times --shots must be at most 1000000000, got 100000 * 10001",
            "error: --steps must be at most 100000, got 100001",
        ]

    def test_seed_zero_is_accepted(self, capsys):
        argv = ["sweep", "--alpha", "0", "--phi-start", "0", "--phi-end", "1", "--steps", "2", "--shots", "10"]
        assert main([*argv, "--seed", "0"]) == 0
        assert capsys.readouterr().out.count("\n") == 3  # header and two grid points

    def test_largest_seed_is_accepted(self):
        result = run_cli(
            "sweep", "--alpha", "0", "--phi-start", "0", "--phi-end", "1",
            "--steps", "2", "--shots", "10", "--seed", str(2**128 - 1),
        )
        assert result.returncode == 0


class TestImportFootprint:
    """Each subcommand loads exactly the hvnogo modules it runs, and numpy
    only if it samples, checked in a fresh interpreter by module name, not
    by time.  No case loads ``dataclasses``, and none that leaves numpy out
    loads ``inspect`` (numpy imports it); both count only when they were not
    in ``sys.modules`` before ``hvnogo`` was imported, since a host's
    ``.pth`` files may load modules at start-up."""

    SCRIPT = textwrap.dedent("""
        import contextlib, io, json, sys
        before = set(sys.modules)
        import hvnogo
        argv = json.loads(sys.argv[1])
        if argv == "exports":
            for name in hvnogo.__all__:
                getattr(hvnogo, name)
        elif argv == "acceptance":
            import hvnogo.acceptance
        elif argv is not None:
            from hvnogo.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                status = main(argv)
            assert status == int(sys.argv[2]), status
        modules = sorted(name for name in sys.modules if name.partition(".")[0] == "hvnogo")
        slow = sorted({"dataclasses", "inspect"}.difference(before).intersection(sys.modules))
        print(json.dumps([modules, "numpy" in sys.modules, slow]))
    """)
    CLI = ("cli", "dist", "errors")
    EXACT = ("exactlp", "family", "feasibility")
    #: case -> (argv, exit status, hvnogo modules, whether numpy is loaded)
    CASES = {
        "quantum": (["quantum", "--alpha", "pi/3", "--phi", "pi/4"], 0, CLI + ("quantum",), False),
        "family": (["family", "--x", "1/3", "--ep", "1/2", "--ew", "1/4", "--s", "0", "--t", "0"], 0,
                   CLI + ("exactlp", "family"), False),
        "feasibility": (["feasibility", "--input", "@FAMILY@"], 3, CLI + EXACT, False),
        "demo-determinism": (["demo", "--drop", "determinism", "--input", "@FAMILY@"], 0, CLI + EXACT, False),
        "demo-independence": (["demo", "--drop", "independence", "--input", "@FAMILY@"], 0, CLI + EXACT, False),
        "demo-objectivity": (["demo", "--drop", "objectivity", "--input", "@FAMILY@"], 0, CLI + EXACT, False),
        "sweep": (list(SWEEP_ARGV) + ["--steps", "2", "--shots", "10"], 0, CLI + ("montecarlo", "quantum"), True),
        "selftest": (["selftest"], 0, CLI + EXACT + ("acceptance", "montecarlo", "quantum"), True),
        "import": (None, 0, (), False),
        "exports": ("exports", 0, ("dist", "errors", "montecarlo", "quantum") + EXACT, False),
        "acceptance": ("acceptance", 0, ("acceptance", "dist", "errors", "montecarlo", "quantum") + EXACT, False),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_loaded_modules(self, case, family_file):
        argv, status, modules, loads_numpy = self.CASES[case]
        if loads_numpy:
            pytest.importorskip("numpy", exc_type=ImportError)
        if isinstance(argv, list):
            argv = [family_file if arg == "@FAMILY@" else arg for arg in argv]
        result = run_python("-c", self.SCRIPT, json.dumps(argv), str(status), capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        loaded, numpy_loaded, slow = json.loads(result.stdout)
        assert loaded == sorted(["hvnogo", *(f"hvnogo.{m}" for m in modules)])
        assert numpy_loaded is loads_numpy
        assert set(slow) <= ({"inspect"} if loads_numpy else set()), slow


class TestWithoutNumpy:
    """The sampling commands stop before any work, with one error line, when
    numpy is missing; ``TestImportFootprint`` shows the others never import it."""

    SCRIPT = textwrap.dedent("""
        import contextlib, io, json, sys
        sys.modules["numpy"] = None  # every import of numpy now raises ImportError
        from hvnogo.cli import main

        results = []
        for argv in json.loads(sys.argv[1]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                results.append([main(argv), out.getvalue(), err.getvalue()])
        print(json.dumps(results))
    """)

    def test_sweep_and_selftest_refuse_in_one_line(self, tmp_path):
        output = tmp_path / "out.txt"
        sweep = ["sweep", "--alpha", "pi/4", "--phi-start", "0", "--phi-end", "1", "--steps", "2", "--shots", "10", "--seed", "1"]
        argvs = [argv + extra for argv in (sweep, ["selftest"]) for extra in ([], ["--output", str(output)])]
        result = run_python("-c", self.SCRIPT, json.dumps(argvs), capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        for argv, run in zip(argvs, json.loads(result.stdout), strict=True):
            assert run == [1, "", f"error: hvnogo {argv[0]} needs numpy\n"], argv
        assert not output.exists()


#: flag -> (values that parse, values that are rejected or fail later).
#: None parses as an integer above 200, since a mutation that shifts the
#: tokens may make any of them the value of --steps or --shots.
_ANGLES = (("0", "pi", "pi/4", "3*pi/4", "0.7854", "1e308"), ("-pi/2", "9" * 400 + "*pi", "pi/0", "three"))
_RATIONALS = (("1/2", "1/3", "1/4", "1/12", "2/3", "0.25"), ("0", "1", "5/3", "-1/2", "1e-5000", "1/0"))
_VALUES = {
    "--alpha": _ANGLES,
    "--phi": _ANGLES,
    "--phi-start": _ANGLES,
    "--phi-end": _ANGLES,
    "--x": (_RATIONALS[0] + (_LONG,), _RATIONALS[1]),
    "--ep": (_RATIONALS[0] + (_LONG,), _RATIONALS[1]),
    "--ew": _RATIONALS,
    "--s": _RATIONALS,
    "--t": _RATIONALS,
    "--steps": (("1", "2", "5"), ("0", "-1")),
    "--shots": (("1", "10", "200"), ("0",)),
    "--seed": (("0", "9", "200"), ("-1",)),
    "--drop": (("independence", "objectivity", "determinism"), ("honesty",)),
    # paths under the test's directory, written "@DIR@/<name>"; "@DIR@" is the directory itself
    "--input": (("@DIR@/family.json", "@DIR@/constant.json", "@DIR@/random.json"), ("@DIR@/missing.json", "@DIR@")),
    "--output": (("@DIR@/out.csv",), ("@DIR@/missing/out.csv", "@DIR@")),
}
_VALUES["-o"] = _VALUES["--output"]
_FLAGS = {
    "quantum": ("--alpha", "--phi"),
    "family": ("--x", "--ep", "--ew"),
    "feasibility": ("--input",),
    "demo": ("--drop", "--input"),
    "sweep": ("--alpha", "--phi-start", "--phi-end", "--steps", "--shots", "--seed"),
}


def _small_or_not_an_int(text):
    try:
        return int(text) <= 200
    except ValueError:
        return True


# A random token never starts with "-", so it cannot act as a flag (nor,
# by argparse's prefix matching, as --output); it is neither an absolute
# path nor holds "..", so as a file name it stays in the test's working
# directory; and it never asks for more than 200 sweep steps or shots.
# Line breaks are drawn on purpose, since an error line must not split on
# one, and so is a NUL byte, which no file name may hold.
_TOKENS = (st.text(max_size=12) | st.sampled_from(["a\nb", "\n", "pi\r", "a\x00b"])).filter(
    lambda t: not t.startswith(("-", "/")) and ".." not in t and _small_or_not_an_int(t)
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_FAMILY_JSON = st.fixed_dictionaries({
    "e_p": st.sampled_from(_RATIONALS[0]) | _JSON,
    "e_w": st.sampled_from(_RATIONALS[0]) | _JSON,
    "settings": st.lists(
        st.fixed_dictionaries({"label": st.text(max_size=4) | _JSON, "x": st.sampled_from(sum(_RATIONALS, ())) | _JSON}),
        max_size=3,
    ) | _JSON,
})
#: Family texts that ``json.dumps`` never writes: a zero with a long
#: exponent, a 5 000-digit integer x, a number label and a boolean x.
_RAW_FAMILIES = [
    b'{"e_p": "1/2", "e_w": 0e-5000, "settings": [{"label": "a", "x": 0E+5000}]}',
    b'{"e_p": "1/2", "e_w": "1/4", "settings": [{"label": "a", "x": ' + b"7" * 5000 + b"}]}",
    b'{"e_p": "1/2", "e_w": "1/4", "settings": [{"label": 1.5, "x": "1/3"}]}',
    b'{"e_p": "1/2", "e_w": "1/4", "settings": [{"label": "a", "x": true}]}',
    # spellings whose value prints within the digit limit, though the spelling is longer
    *(b'{"e_p": "1/2", "e_w": "1/4", "settings": [{"label": "a", "x": ' + x + b"}]}" for x in (
        b"100e-4300", b"1000e-4302", b'"0001e4297"', b'"' + b"0" * 4400 + b'1"', b"1." + b"0" * 4400,
        b'"1/' + b"0" * 4400 + b'3"',
    )),
]
_BAD = sorted({value for _, bad in _VALUES.values() for value in bad})
_STRAYS = st.sampled_from([*_VALUES, "--help", "-h", *_BAD]) | _TOKENS


@st.composite
def _argv(draw):
    """A valid invocation, then up to three mutations: a token replaced by
    a rejected value or a random token, a token dropped, or a stray flag,
    --help, value or token inserted."""
    command = draw(st.sampled_from(list(_FLAGS)))
    flags = list(_FLAGS[command])
    if command == "family" and draw(st.booleans()):
        flags += ["--s", "--t"]  # the member to instantiate: both or neither
    if draw(st.booleans()):
        flags.append(draw(st.sampled_from(["--output", "-o"])))
    argv = [command]
    for flag in flags:
        value = draw(st.sampled_from(_VALUES[flag][0]))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv) - 1))
        mutation = draw(st.sampled_from(["replace", "drop", "insert"]))
        if mutation == "replace":
            argv[i] = draw(st.sampled_from(_BAD) | _TOKENS)
        elif mutation == "drop":
            del argv[i]
        else:
            argv.insert(i, draw(_STRAYS))
        if not argv:
            break
    return argv


class TestTotality:
    """Every argv ends in an exit status 0-4; an error is one line on stderr."""

    @given(
        argv=_argv(),
        content=st.binary(max_size=40)
        | _FAMILY_JSON.map(lambda d: json.dumps(d).encode())
        | st.sampled_from(_RAW_FAMILIES),
    )
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_argv_exits_zero_to_four(self, tmp_path, monkeypatch, argv, content):
        monkeypatch.chdir(tmp_path)  # a mutated file flag may take a relative name
        (tmp_path / "family.json").write_text(json.dumps(FAMILY_JSON), encoding="utf-8")
        (tmp_path / "constant.json").write_text(json.dumps(CONSTANT_JSON), encoding="utf-8")
        (tmp_path / "random.json").write_bytes(content)
        out = tmp_path / "out.csv"
        out.unlink(missing_ok=True)
        argv = [token.replace("@DIR@", str(tmp_path)) for token in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                status = main(argv)
            except SystemExit as exc:  # --help
                status = exc.code
        assert status in (0, 1, 2, 3, 4), argv
        err = stderr.getvalue()
        if status in (1, 2):
            assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, (argv, err)
            assert not out.exists(), argv
        else:
            assert err == "", (argv, err)
