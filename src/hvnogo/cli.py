"""Command-line entry point exposing every pipeline.

Subcommands::

    quantum      closed-form amplitudes, joint, and (x, e_p, e_w) parameters
    family       solution-family ranges, optional member, classification
    feasibility  triple check on a settings-family JSON file, with certificate
    demo         pairwise witness model for a dropped assumption, validated
    sweep        Monte Carlo fringe sweep as CSV
    selftest     run the acceptance criteria and print one line per criterion

Exit status: 0 success (including a feasible triple check), 1 usage or
parameter errors, an unwritable output file, or no numpy for sweep or
selftest (the other subcommands never import it), 2 malformed input file
(unreadable, undecodable, or a field missing, unparsable or out of
range), 3 infeasible triple check (the expected scientific result, not
an error), 4 failed selftest or failed witness validation.

Angles accept plain radians ("0.7854") or the tokens "pi", "pi/4",
"3*pi/4" with an optional leading minus (negative values need the
"--flag=value" form); an angle or sweep grid point that is not finite is a
usage error.  The sweep's --seed is a Philox key, 0 <= seed < 2**128.  The
sweep takes at most 10**5 --steps (about 3 s on one CPU at one shot each)
and at most 10**9 shots in all, --steps times --shots (about 10 s); more
is a usage error.
Rationals use the "p/q" literal format with integer shorthand; one too
long to print back ("1e-5000") is refused.  In a settings-family file a
rational may also be a JSON number, read exactly as written: 1e-400 is
1/10**400, not a float rounded to 0.  Output is deterministic:
repeating an invocation (same flags, same --seed) reproduces it byte for
byte, and nothing is written on failure.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import io
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Optional

# Each handler imports the layers it runs, so a subcommand compiles only those.
from .dist import GeneralParams, parse_rational, to_json
from .errors import HvnogoError, MalformedInput, malformed_input

if TYPE_CHECKING:
    from .feasibility import SettingsFamily

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MALFORMED_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_FAILED_CHECK = 4

#: Sweep limits: grid points, and shots summed over the grid.
MAX_SWEEP_STEPS = 10**5
MAX_SWEEP_SHOTS = 10**9

_PI_FORM = re.compile(r"^\s*([+-]?)(?:(\d+)\s*\*\s*)?pi(?:\s*/\s*(\d+))?\s*$", re.IGNORECASE)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this CLI reserves 2 for
    malformed input files, so usage problems are rerouted to exit 1."""

    def error(self, message):
        raise _UsageError(message)

    def parse_args(self, args=None, namespace=None):
        args, extra = self.parse_known_args(args, namespace)
        if extra:  # quoted, so an argument holding a line break keeps the error on one line
            self.error(f"unrecognized arguments: {' '.join(map(repr, extra))}")
        return args


def _reason_shown(parse):
    """Re-raise a type function's ``ValueError`` as ``ArgumentTypeError``, whose reason argparse prints."""

    @functools.wraps(parse)
    def checked(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return checked


@_reason_shown
def parse_angle(text: str) -> float:
    """Radians from a decimal literal or a pi token ("pi", "pi/4", "3*pi/4")."""
    m = _PI_FORM.match(text)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0:
            raise ValueError(f"zero denominator in angle {text!r}")
        value = sign * num * math.pi / den
    else:
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"expected radians or a pi token, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"angle must be finite, got {text!r}")
    return value


def _probability(text: str) -> Fraction:
    """Exact rational restricted to [0, 1]; the one range check of the
    CLI's probabilities, flags and family-file fields alike."""
    value = parse_rational(text)
    if value < 0 or value > 1:
        raise ValueError(f"probability {text!r} outside [0, 1]")
    return value


parse_probability = _reason_shown(_probability)


@_reason_shown
def _seed(text: str) -> int:
    """A Philox key: an integer in [0, 2**128)."""
    value = int(text)
    if not 0 <= value < 2**128:
        raise ValueError(f"seed must satisfy 0 <= seed < 2**128, got {text!r}")
    return value


@_reason_shown
def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise ValueError(f"expected a positive integer, got {text!r}")
    return value


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


#: The JSON name of each type ``json.loads`` yields with :func:`_load_family`'s
#: hooks; a float is only ever NaN, Infinity or -Infinity.
_JSON_TYPES = {
    type(None): "null", bool: "boolean", decimal.Decimal: "number", float: "number",
    str: "string", list: "array", dict: "object",
}


def _read_probability(value) -> Fraction:
    """A family file's probability field, a string or number read as its
    literal by :func:`_probability`; null, a boolean, an array or an
    object raises ``ValueError`` naming that JSON type."""
    kind = _JSON_TYPES[type(value)]
    if kind not in ("number", "string"):
        raise ValueError(f"expected a rational string or number, got {kind}")
    return _probability(str(value))


def _load_family(path: str) -> SettingsFamily:
    """The settings family in the JSON file at ``path``; the one reader of
    family files.  Raises :class:`MalformedInput` naming the file, or the
    field that is missing, of the wrong type, or out of range."""
    from .feasibility import Setting, SettingsFamily

    try:
        raw = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise MalformedInput(f"cannot read input file {path!r}: {exc}") from exc
    try:
        # Decoded as Path.read_text would, universal newlines included.  A
        # JSON number, integer or not, is kept as its literal (a Decimal): it
        # is never rounded to a float, and its digits are counted by
        # parse_rational's rule, not by int's.
        text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
        data = json.loads(text, parse_float=decimal.Decimal, parse_int=decimal.Decimal)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise MalformedInput(f"input file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedInput(f"input file {path!r} must hold a JSON object")
    for key in ("e_p", "e_w", "settings"):
        if key not in data:
            raise MalformedInput(f"settings family is missing field {key!r}")
    with malformed_input("field 'e_p'"):
        e_p = _read_probability(data["e_p"])
    with malformed_input("field 'e_w'"):
        e_w = _read_probability(data["e_w"])
    items = data["settings"]
    if not isinstance(items, list) or not items:
        raise MalformedInput("field 'settings' must be a nonempty list")
    settings = []
    for i, item in enumerate(items):
        if not isinstance(item, dict) or "label" not in item or "x" not in item:
            raise MalformedInput(f"settings[{i}] needs fields 'label' and 'x'")
        if not isinstance(item["label"], str):
            raise MalformedInput(f"settings[{i}].label: expected a string, got {_JSON_TYPES[type(item['label'])]}")
        with malformed_input(f"settings[{i}].x"):
            x = _read_probability(item["x"])
        settings.append(Setting(item["label"], x))
    with malformed_input("field 'settings'"):
        return SettingsFamily(e_p, e_w, tuple(settings))


def _cmd_quantum(args) -> tuple[int, str]:
    from .quantum import joint_state, quantum_joint, quantum_params

    state = joint_state(args.alpha, args.phi)
    joint = quantum_joint(args.alpha, args.phi)
    params = quantum_params(args.alpha, args.phi)
    payload = {
        "alpha": args.alpha,
        "phi": args.phi,
        "amplitudes": {
            key: [z.real, z.imag] for key, z in zip(("00", "01", "10", "11"), state.amplitudes)
        },
        "joint": {key: v for key, v in zip(("00", "01", "10", "11"), joint.entries)},
        "params": to_json(params),
    }
    return EXIT_OK, _dump_json(payload)


def _cmd_family(args) -> tuple[int, str]:
    from .family import classify, instantiate, lambda_marginal, solve_family

    if (args.s is None) != (args.t is None):
        raise _UsageError("--s and --t must be given together")
    family = solve_family(GeneralParams(args.x, args.ep, args.ew))
    payload = to_json(family)
    if args.s is not None:
        table = instantiate(family, args.s, args.t)
        marginal = lambda_marginal(table)
        payload |= to_json({
            "instance": table,
            "classification": classify(table, family.params),
            "lambda_marginal": {"p": marginal.p0, "w": marginal.p1},
        })
    return EXIT_OK, _dump_json(payload)


def _cmd_feasibility(args) -> tuple[int, str]:
    from .feasibility import check_triple

    family = _load_family(args.input)
    report = check_triple(family)
    status = EXIT_OK if report.feasible else EXIT_INFEASIBLE
    return status, _dump_json(to_json(report))


def _cmd_demo(args) -> tuple[int, str]:
    from .feasibility import model_drop_determinism, model_drop_independence, model_drop_objectivity, validate_witness

    builders = {
        "independence": model_drop_independence,
        "objectivity": model_drop_objectivity,
        "determinism": model_drop_determinism,
    }
    family = _load_family(args.input)
    model = builders[args.drop](family)
    report = validate_witness(model, family)
    payload = {
        "model": to_json(model),
        "validation": {**to_json(report), "overall_pass": report.overall_pass},
    }
    status = EXIT_OK if report.overall_pass else EXIT_FAILED_CHECK
    return status, _dump_json(payload)


def _require_numpy(command: str) -> None:
    """Refuse ``command`` up front, before any work, when numpy cannot be imported."""
    try:
        import numpy
    except ImportError:
        raise _UsageError(f"hvnogo {command} needs numpy") from None


def _cmd_sweep(args) -> tuple[int, str]:
    _require_numpy("sweep")
    if args.steps > MAX_SWEEP_STEPS:
        raise _UsageError(f"--steps must be at most {MAX_SWEEP_STEPS}, got {args.steps}")
    if args.steps * args.shots > MAX_SWEEP_SHOTS:
        raise _UsageError(
            f"--steps times --shots must be at most {MAX_SWEEP_SHOTS}, got {args.steps} * {args.shots}"
        )
    if args.steps == 1:
        grid = [args.phi_start]
    else:
        span = args.phi_end - args.phi_start
        grid = [args.phi_start + i * span / (args.steps - 1) for i in range(args.steps)]
    if not all(math.isfinite(phi) for phi in grid):
        raise _UsageError(f"phase range {args.phi_start!r} to {args.phi_end!r} is too wide: its grid is not finite")
    from .montecarlo import fringe_sweep, sweep_to_csv

    rows = fringe_sweep(args.alpha, grid, args.shots, args.seed)
    return EXIT_OK, sweep_to_csv(rows)


def _cmd_selftest(args) -> tuple[int, str]:
    _require_numpy("selftest")
    from . import acceptance

    results = acceptance.run_all()
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"criterion {r.index} [{status}] {r.name}: {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} acceptance criteria passed")
    text = "\n".join(lines) + "\n"
    return (EXIT_OK if n_pass == len(results) else EXIT_FAILED_CHECK), text


def build_parser() -> _Parser:
    parser = _Parser(prog="hvnogo", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    common = _Parser(add_help=False)
    common.add_argument("--output", "-o", default=None, help="write output to this file instead of stdout")

    p = sub.add_parser("quantum", parents=[common], help="closed-form quantum prediction for one (alpha, phi)")
    p.add_argument("--alpha", type=parse_angle, required=True, help="ancilla bias angle (radians or pi token)")
    p.add_argument("--phi", type=parse_angle, required=True, help="interferometer phase (radians or pi token)")
    p.set_defaults(handler=_cmd_quantum)

    p = sub.add_parser("family", parents=[common], help="solve the constraint system for interior (x, e_p, e_w)")
    p.add_argument("--x", type=parse_probability, required=True, help="apparatus marginal P(b=0), rational")
    p.add_argument("--ep", type=parse_probability, required=True, help="P(a=0 | b=0), rational")
    p.add_argument("--ew", type=parse_probability, required=True, help="P(a=0 | b=1), rational")
    p.add_argument("--s", type=parse_probability, default=None, help="cross mass p(0,0,w) of the member to instantiate")
    p.add_argument("--t", type=parse_probability, default=None, help="cross mass p(0,1,p) of the member to instantiate")
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("feasibility", parents=[common], help="triple check for a settings-family JSON file")
    p.add_argument("--input", required=True, help="settings-family JSON file")
    p.set_defaults(handler=_cmd_feasibility)

    p = sub.add_parser("demo", parents=[common], help="construct and validate a pairwise witness model")
    p.add_argument("--drop", choices=("determinism", "independence", "objectivity"), required=True, help="assumption to abandon")
    p.add_argument("--input", required=True, help="settings-family JSON file")
    p.set_defaults(handler=_cmd_demo)

    p = sub.add_parser("sweep", parents=[common], help="Monte Carlo fringe sweep, CSV output")
    p.add_argument("--alpha", type=parse_angle, required=True)
    p.add_argument("--phi-start", type=parse_angle, required=True)
    p.add_argument("--phi-end", type=parse_angle, required=True)
    p.add_argument("--steps", type=_positive_int, required=True)
    p.add_argument("--shots", type=_positive_int, required=True)
    p.add_argument("--seed", type=_seed, required=True, help="Philox key, an integer with 0 <= seed < 2**128")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("selftest", parents=[common], help="run the acceptance criteria")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        status, text = args.handler(args)
    except (_UsageError, HvnogoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED_INPUT if isinstance(exc, MalformedInput) else EXIT_USAGE
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            print(f"error: cannot write output file {args.output!r}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
