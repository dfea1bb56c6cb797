"""hvnogo benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload {exact,witness,montecarlo,cli} \\
        --seed N --seconds S --trace {0,1}

Run it from anywhere; it measures the hvnogo package in ``src/`` next to
this directory and refuses to run when ``hvnogo`` resolves elsewhere.  It
needs only the standard library and hvnogo's own dependency, numpy.

``--trace 0`` runs whole rounds of the workload's job mix until
``--seconds`` have passed, one job at a time with no thread or process
pool, checks every job's output, and reports the end-to-end metrics.
Job and set-up times are scaled to reference speed by speed probes timed
around each job (see ``Clock``).  ``--trace 1`` ignores ``--seconds`` and
replays round 0 three times: traced, untraced, traced again, where traced
means every public hvnogo function is rebound to a span recorder
(``spans.py``); it reports per-layer self times and exact counts, and the
counts of the two traced passes must agree.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status is 0 when every evidence check held, 1 when
one failed, 2 when the benchmark refused to run.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Uncontended times of the two speed probes on the 2-core x86_64 host
#: (Python 3.11.7) where the benchmark was defined; scaled times are
#: seconds at that speed.
REF_INTERPRETER_S = 0.0005
REF_NUMPY_S = 0.0006
REF_SPAWN_S = 0.05
#: Fresh interpreters per run whose median wall time is setup_s.
SETUP_REPEATS = 7
#: Bare interpreter starts per run whose median is cli.spawn_s.
SPAWN_REPEATS = 5
#: job_tail_s is the highest of these percentiles with >= 10 jobs beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "quantum.calls": "count",
    "quantum.self_s": "s",
    "quantum.errors": "count",
    "family.calls": "count",
    "family.self_s": "s",
    "family.errors": "count",
    "exactlp.calls": "count",
    "exactlp.errors": "count",
    "exactlp.lp_feasible.calls": "count",
    "exactlp.lp_feasible.self_s": "s",
    "exactlp.lp_rows_max": "count",
    "exactlp.cert_bits_max": "bits",
    "exactlp.enumerate.calls": "count",
    "exactlp.enumerate.self_s": "s",
    "exactlp.enumerate.bases_tried": "count",
    "exactlp.enumerate.hit_ratio": "ratio",
    "exactlp.matrix_rank.self_s": "s",
    "exactlp.residual.self_s": "s",
    "exactlp.verify_certificate.self_s": "s",
    "feasibility.calls": "count",
    "feasibility.errors": "count",
    "feasibility.triple_system.self_s": "s",
    "feasibility.check_triple.self_s": "s",
    "feasibility.model_drop_objectivity.self_s": "s",
    "feasibility.model_drop_other.self_s": "s",
    "feasibility.validate_witness.self_s": "s",
    "feasibility.witness_atoms": "count",
    "montecarlo.calls": "count",
    "montecarlo.errors": "count",
    "montecarlo.sample_events.calls": "count",
    "montecarlo.sample_events.self_s": "s",
    "montecarlo.shots": "count",
    "montecarlo.uniform_bytes_max": "bytes-computed",
    "montecarlo.fringe_sweep.self_s": "s",
    "montecarlo.compare.self_s": "s",
    "cli.calls": "count",
    "cli.errors": "count",
    "cli.spawn_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_hvnogo_s": "s",
    "cli.handler_s": "s",
    "trace.overhead_s": "s",
}


class Refused(Exception):
    """The benchmark cannot measure the tree under test."""


def import_tree_under_test() -> Path:
    """Put ``src/`` first on the path and check hvnogo really loads from it,
    so a parent-versus-change comparison cannot measure the wrong copy."""
    init = (SRC / "hvnogo" / "__init__.py").resolve()
    if not init.is_file():
        raise Refused(f"no hvnogo package at {SRC}")
    if "hvnogo" in sys.modules:
        raise Refused("hvnogo was imported before the tree under test was put on the path")
    sys.path.insert(0, str(SRC))
    import hvnogo

    where = Path(hvnogo.__file__).resolve()
    if where != init:
        raise Refused(f"hvnogo resolves to {where}, outside the tree under test {SRC}")
    return init


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_child(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=120)


def interpreter_probe() -> float:
    """Seconds for a fixed piece of pure-Python Fraction arithmetic, the best
    of two back-to-back tries (so one interrupt does not count)."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 200):
            total += Fraction(i, i + 7)
        best = min(best, time.perf_counter() - start)
    return best


def numpy_probe() -> float:
    """Seconds to draw and bin 20 000 uniforms with numpy, the kind of work
    the sampler does, best of two tries.  It uses numpy directly, never
    hvnogo, so a faster sampler cannot speed up its own yardstick."""
    import numpy as np
    from numpy.random import Generator, Philox

    edges = np.array([0.25, 0.5, 0.75])
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        uniforms = Generator(Philox(12345)).random(20_000)
        np.bincount(np.searchsorted(edges, uniforms, side="right"), minlength=4)
        best = min(best, time.perf_counter() - start)
    return best


def spawn_probe(env: dict) -> float:
    """Seconds for a bare interpreter start."""
    start = time.perf_counter()
    run_child([sys.executable, "-c", "pass"], env)
    return time.perf_counter() - start


class Clock:
    """Times work, in seconds at reference speed when given a probe.

    The shared hosts this runs on change speed by up to 1.6x for seconds at
    a time, which spreads raw wall times by 20-60% between runs.  A probe
    is a fixed piece of work that slows down like the timed work does; each
    timed call sits between two probes and its wall time is scaled by
    ``reference`` (the probe's uncontended time) over their mean.  Without
    a probe the clock reports raw wall time.
    """

    def __init__(self, probe=None, reference: float = 1.0):
        self.probe, self.reference = probe, reference
        self.last = probe() if probe else reference

    def time(self, work):
        """(result, exception, scaled seconds, scale factor) of calling ``work``."""
        start = time.perf_counter()
        try:
            result, error = work(), None
        except Exception as exc:  # reported by the caller as a failed job
            result, error = None, exc
        seconds = time.perf_counter() - start
        factor = 1.0
        if self.probe:
            probe = self.probe()
            factor = self.reference / ((self.last + probe) / 2)
            self.last = probe
        return result, error, seconds * factor, factor


def clock(kind: Optional[str], env: dict) -> Clock:
    """The clock for a workload's ``SPEED_PROBE``: "interpreter" for
    in-process Python work, "numpy" for sampling, "spawn" for subprocesses,
    None for raw time."""
    if kind == "interpreter":
        return Clock(interpreter_probe, REF_INTERPRETER_S)
    if kind == "numpy":
        return Clock(numpy_probe, REF_NUMPY_S)
    if kind == "spawn":
        return Clock(lambda: spawn_probe(env), REF_SPAWN_S)
    return Clock()


def spawn_s(env: dict) -> float:
    """Median raw wall time of a bare interpreter start."""
    return statistics.median(spawn_probe(env) for _ in range(SPAWN_REPEATS))


def setup_s(workload: str, env: dict, init: Path) -> float:
    """Median time, at reference speed, of a fresh interpreter that imports
    hvnogo and warms up each layer the workload uses; every probe must load
    the tree under test."""
    timer = clock("spawn", env)
    times = []
    for _ in range(SETUP_REPEATS):
        done, error, seconds, _ = timer.time(
            lambda: run_child([sys.executable, str(HERE / "warmup.py"), workload], env)
        )
        if error is not None or done.returncode != 0:
            detail = error if error is not None else done.stderr.decode(errors="replace").strip()
            raise Refused(f"set-up probe failed: {detail}")
        lines = done.stdout.decode().split()
        if not lines or Path(lines[-1]).resolve() != init:
            raise Refused("a fresh interpreter loads hvnogo from outside the tree under test")
        times.append(seconds)
    return statistics.median(times)


def machine_block(nproc: int, cpu: int, spawn: float) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")  # no import: keeps numpy out of peak_rss_mb
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "interpreter_probe_s": interpreter_probe(),
        "cli.spawn_s": spawn,
    }


class Outcome:
    """Latencies and failures of the jobs run so far."""

    def __init__(self, timer: Clock, keep_outputs: bool = False):
        self.clock = timer
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.outputs: list = []
        self.keep_outputs = keep_outputs

    def run(self, jobs, recorder=None) -> float:
        """Run jobs one after another; return their summed latency."""
        total = 0.0
        for job in jobs:
            first_span = len(recorder.spans) if recorder else 0
            out, error, seconds, factor = self.clock.time(job.run)
            if recorder:
                recorder.scale_from(first_span, factor)
            self.latencies.append(seconds)
            total += seconds
            if error is not None:
                self.failures.append(f"{job.kind}: raised {type(error).__name__}: {error}")
                continue
            try:
                problem = job.check(out)
            except Exception as exc:  # a broken output is a failed job, not a crashed benchmark
                problem = f"evidence check raised {type(exc).__name__}: {exc}"
            if problem:
                self.failures.append(f"{job.kind}: {problem}")
            if self.keep_outputs:
                self.outputs.append(out)
        return total


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, latency) at the highest listed percentile that leaves at
    least ten jobs beyond its nearest rank; p50 when there are too few jobs."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50.0, ordered[math.ceil(n / 2) - 1]


def end_to_end(name: str, workload, seconds: int, env: dict, init: Path) -> tuple[Outcome, dict, list[str]]:
    outcome = Outcome(clock(workload.SPEED_PROBE, env))
    busy = 0.0
    start = time.perf_counter()
    rounds = 0
    while time.perf_counter() - start < seconds:
        busy += outcome.run(workload.round(rounds))
        rounds += 1
    elapsed = time.perf_counter() - start
    # Children are only the cli invocations until now, so RUSAGE_CHILDREN is their peak.
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    n = len(outcome.latencies)
    p, tail_s = tail(outcome.latencies)
    metrics = {
        "setup_s": setup_s(name, env, init),
        "job_p50_s": statistics.median(outcome.latencies),
        "job_tail_s": tail_s,
        "jobs_per_s": n / busy,
        "pass_ratio": (n - len(outcome.failures)) / n,
        "peak_rss_mb": peak_mb,
    }
    notes = [
        f"{n} jobs in {rounds} rounds over {elapsed:.3f} s wall",
        f"job times are {f'scaled by the {workload.SPEED_PROBE} probe' if workload.SPEED_PROBE else 'raw'}",
        f"job_tail_s is p{p:g} of {n} jobs",
        f"fail_ratio = {len(outcome.failures)}/{n}",
    ]
    return outcome, metrics, notes


def parse_importtime(stderr: str) -> tuple[float, float, bool]:
    """(numpy cumulative s, hvnogo cumulative s, numpy imported inside hvnogo)
    from ``python -X importtime`` output."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            cumulative = int(fields[1])
        except (IndexError, ValueError):
            continue  # the header line
        name = fields[2]
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), cumulative / 1e6))
    top = next((i for i, e in enumerate(entries) if e[1] == "hvnogo"), None)
    numpy_at = next((i for i, e in enumerate(entries) if e[1] == "numpy"), None)
    numpy_s = entries[numpy_at][2] if numpy_at is not None else 0.0
    if top is None:
        return numpy_s, 0.0, False
    # Children print before their parent; the parent's block starts after
    # the last earlier entry at the parent's depth or shallower.
    first = top
    while first > 0 and entries[first - 1][0] > entries[top][0]:
        first -= 1
    nested = numpy_at is not None and first <= numpy_at < top
    return numpy_s, entries[top][2], nested


def cli_layer(outputs: list, spawn: float) -> dict:
    """Per-invocation medians of spawn, imports, and the handler remainder,
    in raw wall time."""
    numpy_s, hvnogo_s, handler_s = [], [], []
    for _, _, stderr, seconds in outputs:
        np_s, hv_s, nested = parse_importtime(stderr)
        own = hv_s - np_s if nested else hv_s
        numpy_s.append(np_s)
        hvnogo_s.append(own)
        handler_s.append(seconds - spawn - np_s - own)
    return {
        "cli.spawn_s": spawn,
        "cli.import_numpy_s": statistics.median(numpy_s),
        "cli.import_hvnogo_s": statistics.median(hvnogo_s),
        "cli.handler_s": statistics.median(handler_s),
    }


def layer_metrics(recorder, cli_outputs: list, spawn: float) -> dict:
    from spans import TRACED

    counts, self_s = recorder.counts, recorder.self_times()

    def calls(layer: str) -> int:
        return sum(counts.get(f"{layer}.{f}.calls", 0) for f in TRACED[layer])

    def self_time(layer: str, *functions: str) -> float:
        return sum(self_s.get(f"{layer}.{f}", 0.0) for f in functions or TRACED[layer])

    bases = counts.get("exactlp.enumerate.bases_tried", 0)
    out = {}
    for layer in TRACED:
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.errors"] = counts.get(f"{layer}.errors", 0)
    out.update(
        {
            "quantum.self_s": self_time("quantum"),
            "family.self_s": self_time("family"),
            "exactlp.lp_feasible.calls": counts.get("exactlp.lp_feasible.calls", 0),
            "exactlp.lp_feasible.self_s": self_time("exactlp", "lp_feasible"),
            "exactlp.lp_rows_max": counts.get("exactlp.lp_rows_max", 0),
            "exactlp.cert_bits_max": counts.get("exactlp.cert_bits_max", 0),
            "exactlp.enumerate.calls": counts.get("exactlp.enumerate_basic_solutions.calls", 0),
            "exactlp.enumerate.self_s": self_time("exactlp", "enumerate_basic_solutions"),
            "exactlp.enumerate.bases_tried": bases,
            "exactlp.enumerate.hit_ratio": counts.get("exactlp.enumerate.vertices", 0) / bases if bases else 0.0,
            "exactlp.matrix_rank.self_s": self_time("exactlp", "matrix_rank"),
            "exactlp.residual.self_s": self_time("exactlp", "residual"),
            "exactlp.verify_certificate.self_s": self_time("exactlp", "verify_certificate"),
            "feasibility.triple_system.self_s": self_time("feasibility", "triple_system"),
            "feasibility.check_triple.self_s": self_time("feasibility", "check_triple"),
            "feasibility.model_drop_objectivity.self_s": self_time("feasibility", "model_drop_objectivity"),
            "feasibility.model_drop_other.self_s": self_time(
                "feasibility", "model_drop_independence", "model_drop_determinism"
            ),
            "feasibility.validate_witness.self_s": self_time("feasibility", "validate_witness"),
            "feasibility.witness_atoms": counts.get("feasibility.witness_atoms", 0),
            "montecarlo.sample_events.calls": counts.get("montecarlo.sample_events.calls", 0),
            "montecarlo.sample_events.self_s": self_time("montecarlo", "sample_events"),
            "montecarlo.shots": counts.get("montecarlo.shots", 0),
            "montecarlo.uniform_bytes_max": counts.get("montecarlo.uniform_bytes_max", 0),
            "montecarlo.fringe_sweep.self_s": self_time("montecarlo", "fringe_sweep"),
            "montecarlo.compare.self_s": self_time("montecarlo", "compare"),
            "cli.calls": len(cli_outputs),
            "cli.errors": sum("Traceback (most recent call last)" in out[2] for out in cli_outputs),
        }
    )
    if cli_outputs:
        out.update(cli_layer(cli_outputs, spawn))
    else:
        out.update({"cli.spawn_s": 0.0, "cli.import_numpy_s": 0.0, "cli.import_hvnogo_s": 0.0, "cli.handler_s": 0.0})
    return out


def traced_pass(name: str, workload, env: dict) -> tuple:
    """Round 0 with every public hvnogo function rebound to a recorder (and,
    for cli, every child run under ``-X importtime``)."""
    from spans import Recorder

    jobs = workload.round(0)
    gc.collect()
    recorder, outcome = Recorder(), Outcome(clock(workload.SPEED_PROBE, env), keep_outputs=name == "cli")
    if name == "cli":
        workload.importtime = True
    recorder.install()
    try:
        seconds = outcome.run(jobs, recorder)
    finally:
        recorder.uninstall()
        if name == "cli":
            workload.importtime = False
    return recorder, outcome, seconds


def traced(name: str, workload, env: dict) -> tuple[list[Outcome], dict, list[str]]:
    # The first traced pass also warms allocators and caches, so the
    # untraced and second traced passes, which give the overhead, run warm.
    rec1, out1, _ = traced_pass(name, workload, env)
    untraced, jobs = Outcome(clock(workload.SPEED_PROBE, env)), workload.round(0)
    gc.collect()
    untraced_s = untraced.run(jobs)
    rec2, out2, traced_s = traced_pass(name, workload, env)
    spawn = spawn_s(env) if name == "cli" else 0.0
    metrics = layer_metrics(rec2, out2.outputs, spawn)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    first = layer_metrics(rec1, out1.outputs, spawn)
    exact = [k for k, unit in PER_LAYER.items() if unit in ("count", "bits", "bytes-computed")]
    drift = [k for k in exact if metrics[k] != first[k]]
    if drift:
        out2.failures.append(f"counts differ between two traced passes with the same seed: {drift}")
    notes = [f"traced {len(out2.latencies)} jobs (round 0) twice; untraced pass {untraced_s:.3f} s"]
    return [out1, untraced, out2], metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("exact", "witness", "montecarlo", "cli"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        init = import_tree_under_test()
        # One client on one CPU: the job, its subprocesses and the speed
        # probes around it then share one core's contention.
        cpus = os.sched_getaffinity(0)
        cpu = min(cpus)
        os.sched_setaffinity(0, {cpu})
        sys.path.insert(0, str(HERE))
        from workloads import WORKLOADS

        env = child_env()
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
            workload = WORKLOADS[args.workload](
                args.seed, python=sys.executable, env=env, root=ROOT, workdir=Path(workdir)
            )
            if args.trace:
                outcomes, values, notes = traced(args.workload, workload, env)
                units = PER_LAYER
            else:
                outcome, values, notes = end_to_end(args.workload, workload, args.seconds, env, init)
                outcomes, units = [outcome], END_TO_END
        machine = machine_block(len(cpus), cpu, spawn_s(env))
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(len(o.latencies) for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    print("machine " + json.dumps(machine, sort_keys=True))
    for note in notes:
        print(f"{args.workload}: {note}")
    for key, unit in units.items():
        print(f"{args.workload}: {key} = {values[key]!r} {unit}")
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
