"""Seeded workloads and the evidence that checks every job.

Each workload hands out rounds of jobs: ``round(i)`` is a pure function of
the workload seed and ``i``, so a run can replay any round exactly.  A job
is a ``run`` callable, which makes the hvnogo calls the job consists of and
is what the benchmark times, and a ``check`` callable, which inspects what
``run`` returned with the benchmark's own exact arithmetic and returns a
problem description, or None when the evidence holds.  Checks are
semantic (verdicts, residuals, certificates, reproducibility), never
golden bytes, so output format changes do not read as failures.

hvnogo is reached through module attributes at call time
(``exactlp.lp_feasible(...)``) so that the traced run sees every call.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

from hvnogo import dist, exactlp, feasibility, montecarlo, quantum
from hvnogo import family as fam


@dataclass(frozen=True)
class Job:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


# ---------------------------------------------------------------------------
# Independent exact evidence (no hvnogo code)
# ---------------------------------------------------------------------------

#: Cell order of an ontic table: index 4*lam + 2*a + b, lam p=0, w=1.
_P, _W = 0, 4
_CELL_KEYS = tuple(f"{a}{b}{lam}" for lam in "pw" for a in (0, 1) for b in (0, 1))


def _joint(x: Fraction, e_p: Fraction, e_w: Fraction) -> tuple[Fraction, ...]:
    """Observed (a, b) joint in the order 00, 01, 10, 11."""
    return (x * e_p, (1 - x) * e_w, x * (1 - e_p), (1 - x) * (1 - e_w))


def _table_problem(entries, x, e_p, e_w) -> Optional[str]:
    """Why an eight-cell table is not a nonnegative solution of adequacy
    plus objectivity for (x, e_p, e_w), or None."""
    if len(entries) != 8 or any(v < 0 for v in entries):
        return "table has a negative cell or the wrong size"
    joint = _joint(x, e_p, e_w)
    for ab in range(4):
        if entries[_P + ab] + entries[_W + ab] != joint[ab]:
            return f"adequacy fails at ab={ab:02b}"
    if entries[_P + 0] * (1 - e_p) != entries[_P + 2] * e_p:
        return "p-statistics objectivity fails"
    if entries[_W + 1] * (1 - e_w) != entries[_W + 3] * e_w:
        return "w-statistics objectivity fails"
    return None


def _farkas_problem(y, xs, e_p, e_w) -> Optional[str]:
    """Why y is not a Farkas certificate for the stacked triple system, or None.

    Rows are four adequacy rows per setting (ab = 00, 01, 10, 11), then the
    p- and w-objectivity rows; columns are the eight table cells.
    """
    k = len(xs)
    if y is None or len(y) != 4 * k + 2:
        return "certificate missing or of the wrong length"
    y_p, y_w = y[4 * k], y[4 * k + 1]
    column = [sum(y[4 * i + ab] for i in range(k)) for ab in range(4)]
    y_a = column + column  # each adequacy row covers both labels of its cell
    y_a[_P + 0] += y_p * (1 - e_p)
    y_a[_P + 2] -= y_p * e_p
    y_a[_W + 1] += y_w * (1 - e_w)
    y_a[_W + 3] -= y_w * e_w
    if any(v > 0 for v in y_a):
        return "y^T A has a positive entry"
    y_b = sum(y[4 * i + ab] * j for i, x in enumerate(xs) for ab, j in enumerate(_joint(x, e_p, e_w)))
    if y_b <= 0:
        return "y^T b is not positive"
    return None


def _fraction(rng: random.Random, large: bool) -> Fraction:
    """Interior rational: denominator 2..12 (small) or 10^5..10^6 (large)."""
    den = rng.randint(10**5, 10**6) if large else rng.randint(2, 12)
    return Fraction(rng.randint(1, den - 1), den)


def _conditionals(rng: random.Random, large: bool) -> tuple[Fraction, Fraction]:
    e_p = _fraction(rng, large)
    e_w = _fraction(rng, large)
    while e_w == e_p:
        e_w = _fraction(rng, large)
    return e_p, e_w


def _settings_family(e_p, e_w, xs) -> feasibility.SettingsFamily:
    settings = tuple(feasibility.Setting(f"alpha{i + 1}", x) for i, x in enumerate(xs))
    return feasibility.SettingsFamily(e_p, e_w, settings)


# ---------------------------------------------------------------------------
# exact: vertex jobs and triple jobs
# ---------------------------------------------------------------------------

_ST_GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))

_EXPECTED_KIND = {
    (False, False): "Special",
    (True, False): "CollapseWAtB0",
    (False, True): "CollapsePAtB1",
    (True, True): "CollapseBoth",
}


def vertex_job(x: Fraction, e_p: Fraction, e_w: Fraction) -> Job:
    """Criterion 3's per-trial path for one interior (x, e_p, e_w)."""
    params = dist.GeneralParams(x, e_p, e_w)

    def run():
        system = fam.constraint_system(params)
        rank = exactlp.matrix_rank(system.matrix)
        solution = fam.solve_family(params)
        s_max, t_max = solution.s_range[1], solution.t_range[1]
        members = []
        for u in _ST_GRID:
            for v in _ST_GRID:
                member = fam.instantiate(solution, u * s_max, v * t_max)
                res = exactlp.residual(system, member.entries)
                kind = fam.classify(member, params).kind.value
                members.append((u > 0, v > 0, member.entries, res, kind))
        vertices = exactlp.enumerate_basic_solutions(system)
        rebuilt = [fam.instantiate(solution, p[_W + 0], p[_P + 1]).entries for p in vertices]
        return rank, solution.s_range, solution.t_range, members, vertices, rebuilt

    def check(out) -> Optional[str]:
        rank, s_range, t_range, members, vertices, rebuilt = out
        if rank != 6:
            return f"constraint rank {rank}, expected 6"
        if s_range != (0, x * e_p) or t_range != (0, (1 - x) * e_w):
            return "family ranges differ from [0, x e_p] x [0, (1-x) e_w]"
        for s_pos, t_pos, entries, res, kind in members:
            if any(r != 0 for r in res):
                return "grid member has a nonzero residual"
            problem = _table_problem(entries, x, e_p, e_w)
            if problem:
                return f"grid member: {problem}"
            if kind != _EXPECTED_KIND[(s_pos, t_pos)]:
                return f"grid member classified {kind}"
        # The family is a rectangle in (s, t), so the polytope has 4 vertices.
        if len(vertices) != 4:
            return f"{len(vertices)} vertices enumerated, expected the 4 corners"
        for point, again in zip(vertices, rebuilt):
            problem = _table_problem(point, x, e_p, e_w)
            if problem:
                return f"enumerated vertex: {problem}"
            if tuple(again) != tuple(point):
                return "instantiate does not reproduce an enumerated vertex"
        return None

    return Job("vertex", run, check)


def triple_job(e_p: Fraction, e_w: Fraction, xs: list[Fraction]) -> Job:
    """check_triple on one settings family, then its evidence re-checked."""
    family = _settings_family(e_p, e_w, xs)
    distinct = len(set(xs)) > 1

    def run():
        report = feasibility.check_triple(family)
        if report.feasible:
            evidence = exactlp.residual(feasibility.triple_system(family), report.witness.entries)
        else:
            evidence = exactlp.verify_certificate(feasibility.triple_system(family), report.certificate)
        return report, evidence

    def check(out) -> Optional[str]:
        report, evidence = out
        if report.feasible == distinct:
            return f"k={len(xs)}: verdict feasible={report.feasible} with distinct x={distinct}"
        if report.feasible:
            if any(r != 0 for r in evidence):
                return "feasible witness has a nonzero residual"
            problem = _table_problem(report.witness.entries, xs[0], e_p, e_w)
            return f"feasible witness: {problem}" if problem else None
        if evidence is not True:
            return "verify_certificate rejected the certificate"
        return _farkas_problem(report.certificate, xs, e_p, e_w)

    return Job(f"triple_k{len(xs)}", run, check)


class Exact:
    """Per round: 29 vertex jobs, 8 distinct-x triple jobs with k from 2 to
    128, and 3 constant-x controls; denominators alternate small and large.

    Vertex jobs are the majority, so job_p50_s is a vertex job.  Three
    k = 32 triples keep the p90 rank inside one size class, so job_tail_s
    is a k = 32 triple however many rounds fit in a run.
    """

    SPEED_PROBE = "interpreter"
    VERTEX_JOBS = 29
    DISTINCT_K = (2, 4, 8, 16, 32, 32, 64, 128)
    CONSTANT_K = (4, 16, 32)

    def __init__(self, seed: int, **_):
        self.seed = seed

    def round(self, index: int) -> list[Job]:
        rng = random.Random(f"exact/{self.seed}/{index}")
        jobs = []
        for i in range(self.VERTEX_JOBS):
            large = i % 2 == 1
            jobs.append(vertex_job(_fraction(rng, large), _fraction(rng, large), _fraction(rng, large)))
        for i, k in enumerate(self.DISTINCT_K):
            large = i % 2 == 1
            e_p, e_w = _conditionals(rng, large)
            xs = [_fraction(rng, large) for _ in range(k)]
            while xs[1] == xs[0]:
                xs[1] = _fraction(rng, large)
            jobs.append(triple_job(e_p, e_w, xs))
        for i, k in enumerate(self.CONSTANT_K):
            large = i % 2 == 0
            e_p, e_w = _conditionals(rng, large)
            jobs.append(triple_job(e_p, e_w, [_fraction(rng, large)] * k))
        rng.shuffle(jobs)
        return jobs


# ---------------------------------------------------------------------------
# witness: the three pairwise models on one family
# ---------------------------------------------------------------------------

_WITNESSES = (
    ("model_drop_independence", "independence"),
    ("model_drop_objectivity", "objectivity"),
    ("model_drop_determinism", "determinism"),
)


def witness_job(e_p: Fraction, e_w: Fraction, xs: list[Fraction]) -> Job:
    family = _settings_family(e_p, e_w, xs)

    def run():
        reports = []
        for constructor, dropped in _WITNESSES:
            model = getattr(feasibility, constructor)(family)
            reports.append((dropped, feasibility.validate_witness(model, family)))
        return reports

    def check(reports) -> Optional[str]:
        for dropped, report in reports:
            if not report.overall_pass:
                failed = [c.name for c in report.checks if c.retained and not c.passed]
                return f"k={len(xs)}: witness dropping {dropped} fails {failed}"
            if report.check(dropped).retained:
                return f"k={len(xs)}: witness dropping {dropped} reports it as retained"
        return None

    return Job(f"witness_k{len(xs)}", run, check)


class Witness:
    """Per round 60 families: k = 1..8 with counts 8, 8, 10, 16, 10, 6, 1, 1.

    The single k = 8 family (4^8 atoms) dominates time and memory.  The
    counts put the p50 rank inside the k = 4 class and the p90 rank inside
    the k = 6 class whatever the number of rounds.  Every rational is n/11:
    with a prime denominator no product cancels, so a family's cost
    depends on k rather than on lucky cancellations (with denominators
    2..12 the cost of a k = 8 family varied by 22% between draws, with
    n/11 by 8%).
    """

    SPEED_PROBE = "interpreter"
    K_COUNTS = {1: 8, 2: 8, 3: 10, 4: 16, 5: 10, 6: 6, 7: 1, 8: 1}

    def __init__(self, seed: int, **_):
        self.seed = seed

    def round(self, index: int) -> list[Job]:
        rng = random.Random(f"witness/{self.seed}/{index}")
        jobs = []

        def eleventh():
            return Fraction(rng.randint(1, 10), 11)

        for k, count in self.K_COUNTS.items():
            for _ in range(count):
                e_p = eleventh()
                e_w = eleventh()
                while e_w == e_p:
                    e_w = eleventh()
                jobs.append(witness_job(e_p, e_w, [eleventh() for _ in range(k)]))
        rng.shuffle(jobs)
        return jobs


# ---------------------------------------------------------------------------
# montecarlo: fringe sweeps and bulk draws
# ---------------------------------------------------------------------------


class MonteCarlo:
    """Per round two sweep jobs and one bulk job.

    A sweep job samples a 33-point phase grid over [0, 2 pi] at 20 000
    shots per point and checks every point with ``compare`` (a 5-sigma
    test).  Every sweep job of a run repeats the run's one sweep
    configuration and must reproduce its counts bit for bit: a fresh
    configuration per job would turn the test's false-alarm rate, about
    1e-4 per 33-point sweep, into spurious failures over many jobs.  The
    alpha range keeps every nonzero cell at dozens of expected counts or
    more, where the 5-sigma test is calibrated.

    A bulk job draws 10^7 shots in one call, then redraws the same shots as
    four unaligned shot ranges whose merged counts must equal the single
    draw.  Bulk jobs are a third of the jobs, so the p75/p90 rank falls on
    a bulk job and the p50 rank on a sweep job.
    """

    SPEED_PROBE = "numpy"
    GRID = tuple(2.0 * math.pi * j / 32 for j in range(33))
    SHOTS_PER_POINT = 20_000
    BULK_SHOTS = 10**7

    def __init__(self, seed: int, **_):
        self.seed = seed
        rng = random.Random(f"montecarlo/{seed}")
        self.alpha = rng.uniform(math.pi / 6, math.pi / 3)
        self.sweep_seed = rng.getrandbits(63)
        self.reference: Optional[list] = None

    def sweep_job(self) -> Job:
        alpha, seed = self.alpha, self.sweep_seed

        def run():
            rows = montecarlo.fringe_sweep(alpha, self.GRID, self.SHOTS_PER_POINT, seed)
            stats = [montecarlo.compare(row.counts, quantum.quantum_joint(alpha, row.phi)) for row in rows]
            return rows, stats

        def check(out) -> Optional[str]:
            rows, stats = out
            counts = [row.counts.as_tuple() for row in rows]
            if len(rows) != len(self.GRID) or any(sum(c) != self.SHOTS_PER_POINT for c in counts):
                return "sweep returned the wrong number of points or shots"
            failed = [row.phi for row, s in zip(rows, stats) if not s.passed]
            if failed:
                return f"compare failed at phi = {failed[:3]}"
            if self.reference is None:
                self.reference = counts
            elif counts != self.reference:
                return "repeated sweep with the same seed gave different counts"
            return None

        return Job("sweep", run, check)

    def bulk_job(self, rng: random.Random) -> Job:
        alpha = rng.uniform(math.pi / 8, 3 * math.pi / 8)
        phi = rng.uniform(0.0, 2 * math.pi)
        seed = rng.getrandbits(63)
        n = self.BULK_SHOTS
        cuts = [0, *sorted(rng.sample(range(1, n), 3)), n]

        def run():
            joint = quantum.quantum_joint(alpha, phi)
            whole = montecarlo.sample_events(joint, n, seed)
            parts = [montecarlo.sample_events(joint, hi - lo, seed, first_shot=lo) for lo, hi in zip(cuts, cuts[1:])]
            return whole, parts

        def check(out) -> Optional[str]:
            whole, parts = out
            merged = tuple(sum(c) for c in zip(*(p.as_tuple() for p in parts)))
            if whole.total != n:
                return f"bulk draw holds {whole.total} shots, expected {n}"
            if merged != whole.as_tuple():
                return "partitioned draw does not merge to the sequential draw"
            return None

        return Job("bulk", run, check)

    def round(self, index: int) -> list[Job]:
        rng = random.Random(f"montecarlo/{self.seed}/{index}")
        jobs = [self.sweep_job(), self.sweep_job(), self.bulk_job(rng)]
        rng.shuffle(jobs)
        return jobs


# ---------------------------------------------------------------------------
# cli: subprocess invocations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    expected_exit: int
    check: Callable[[str], Optional[str]]


def _json_check(predicate: Callable[[dict], Optional[str]]) -> Callable[[str], Optional[str]]:
    def check(stdout: str) -> Optional[str]:
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            return "stdout is not JSON"
        return predicate(payload)

    return check


class Cli:
    """Per round the seven invocations of one run, each as a subprocess:
    quantum, family, feasibility on a k = 2 file (expected exit 3), demo
    --drop with each assumption, and a 9-point sweep.

    Every round repeats the run's invocations, and each repeat must print
    the same stdout bytes as the first.
    """

    SPEED_PROBE = "spawn"

    def __init__(self, seed: int, *, python: str, env: dict, root: Path, workdir: Path, **_):
        self.python, self.env, self.root = python, env, root
        self.importtime = False
        self.reference: dict[tuple[str, ...], bytes] = {}
        rng = random.Random(f"cli/{seed}")
        alpha = rng.uniform(0.1, 1.4)
        phi = rng.uniform(0.0, 6.2)
        x, e_p, e_w = (_fraction(rng, False) for _ in range(3))
        s = x * e_p * rng.choice(_ST_GRID)
        t = (1 - x) * e_w * rng.choice(_ST_GRID)
        fe_p, fe_w = _conditionals(rng, False)
        xs = [_fraction(rng, False), _fraction(rng, False)]
        while xs[1] == xs[0]:
            xs[1] = _fraction(rng, False)
        path = workdir / "family.json"
        settings = [{"label": f"alpha{i + 1}", "x": str(v)} for i, v in enumerate(xs)]
        path.write_text(json.dumps({"e_p": str(fe_p), "e_w": str(fe_w), "settings": settings}), encoding="utf-8")

        def quantum_ok(p):
            total = sum(p["joint"].values())
            return None if abs(total - 1.0) <= 1e-12 else f"quantum joint sums to {total!r}"

        def family_ok(p):
            if [Fraction(v) for v in p["s_range"]] != [0, x * e_p]:
                return "family s_range differs from [0, x e_p]"
            problem = _table_problem([Fraction(p["instance"][key]) for key in _CELL_KEYS], x, e_p, e_w)
            return f"family instance: {problem}" if problem else None

        def feasibility_ok(p):
            if p["feasible"]:
                return "distinct-x family reported feasible"
            certificate = [Fraction(v) for v in p["certificate"]]
            return _farkas_problem(certificate, xs, fe_p, fe_w)

        def demo_ok(p):
            return None if p["validation"]["overall_pass"] else "witness validation failed"

        steps, shots = 9, 2000

        def sweep_ok(text):
            lines = text.splitlines()
            if len(lines) != steps + 1 or not lines[0].startswith("phi_radians,"):
                return "sweep CSV has the wrong shape"
            if any(sum(int(v) for v in line.split(",")[1:5]) != shots for line in lines[1:]):
                return "sweep CSV row counts do not sum to the shots"
            return None

        sweep_seed = rng.getrandbits(32)
        invocations = [
            Invocation(("quantum", "--alpha", repr(alpha), "--phi", repr(phi)), 0, _json_check(quantum_ok)),
            Invocation(
                ("family", "--x", str(x), "--ep", str(e_p), "--ew", str(e_w), "--s", str(s), "--t", str(t)),
                0,
                _json_check(family_ok),
            ),
            Invocation(("feasibility", "--input", str(path)), 3, _json_check(feasibility_ok)),
            *(
                Invocation(("demo", "--drop", drop, "--input", str(path)), 0, _json_check(demo_ok))
                for _, drop in _WITNESSES
            ),
            Invocation(
                ("sweep", "--alpha", repr(alpha), "--phi-start", "0", "--phi-end", "2*pi",
                 "--steps", str(steps), "--shots", str(shots), "--seed", str(sweep_seed)),
                0,
                sweep_ok,
            ),
        ]
        rng.shuffle(invocations)
        self.invocations = invocations

    def job(self, inv: Invocation) -> Job:
        def run():
            flags = ("-X", "importtime") if self.importtime else ()
            start = time.perf_counter()
            done = subprocess.run(
                [self.python, *flags, "-m", "hvnogo.cli", *inv.argv],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                timeout=60,
            )
            return done.returncode, done.stdout, done.stderr.decode("utf-8", "replace"), time.perf_counter() - start

        def check(out) -> Optional[str]:
            code, stdout, stderr, _ = out
            if "Traceback (most recent call last)" in stderr:
                return f"{inv.argv[0]}: traceback on stderr"
            if code != inv.expected_exit:
                return f"{inv.argv[0]}: exit {code}, expected {inv.expected_exit}"
            first = self.reference.setdefault(inv.argv, stdout)
            if stdout != first:
                return f"{inv.argv[0]}: stdout differs from the first run of the same invocation"
            return inv.check(stdout.decode("utf-8"))

        return Job(f"cli_{inv.argv[0]}", run, check)

    def round(self, index: int) -> list[Job]:
        return [self.job(inv) for inv in self.invocations]


WORKLOADS = {"exact": Exact, "witness": Witness, "montecarlo": MonteCarlo, "cli": Cli}
