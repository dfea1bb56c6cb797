"""In-process span recorder for the traced benchmark run.

The recorder rebinds the public functions of each hvnogo layer at every
import site inside this process (the defining module, the package
namespace, and every hvnogo module that imported the name), so calls that
hvnogo makes internally are traced as well as calls made by the benchmark.
Nothing under ``src/`` changes, and ``uninstall`` restores the originals.

A span is (name, start, end, parent).  Spans stay in memory until the run
ends.  A span's self time is its duration minus the durations of its
direct children, which nest strictly inside it.  Counts are recorded at
the same boundaries, from the arguments and results of the traced calls.
"""

from __future__ import annotations

import functools
import sys
import time
from math import comb

#: Public functions per layer.  ``dist`` and ``errors`` are not listed:
#: their work happens inside these callers and lands in their self time.
TRACED = {
    "quantum": ("joint_state", "quantum_joint", "quantum_params", "wave_statistics", "particle_statistics"),
    "family": (
        "constraint_system",
        "solve_family",
        "instantiate",
        "classify",
        "special_solution",
        "lambda_marginal",
        "conditional_given",
    ),
    "exactlp": ("lp_feasible", "enumerate_basic_solutions", "matrix_rank", "residual", "verify_certificate"),
    "feasibility": (
        "triple_system",
        "check_triple",
        "model_drop_independence",
        "model_drop_objectivity",
        "model_drop_determinism",
        "validate_witness",
    ),
    "montecarlo": ("sample_events", "compare", "fringe_sweep"),
}


def _bits(value) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def _witness_atoms(model) -> int:
    """Atoms in a witness payload; each cell of a per-setting table counts
    as one deterministic atom."""
    payload = model.payload
    if hasattr(payload, "tables"):
        return 8 * len(payload.tables)
    return len(payload.atoms)


class Recorder:
    """Spans and counts of one traced pass over a job list."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[tuple[str, int, dict]] = []  # open spans: (name, index, notes)
        self._factors: list[tuple[int, float]] = []  # (first span of a job, its speed factor)
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Rebind every traced function at each of its import sites."""
        modules = [m for name, m in list(sys.modules.items()) if name == "hvnogo" or name.startswith("hvnogo.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"hvnogo.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(layer, fname, original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        self._saved.append((module, fname, original))
                        setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._saved):
            setattr(module, fname, original)
        self._saved.clear()

    def _wrap(self, layer: str, fname: str, original):
        name = f"{layer}.{fname}"
        after = getattr(self, f"_after_{fname}", None)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            notes: dict = {}
            stack.append((name, index, notes))
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, time.perf_counter(), parent[1] if parent else -1)
                stack.pop()
                if parent is None or not parent[0].startswith(layer + "."):
                    self._add(f"{layer}.errors", 1)
                raise
            spans[index] = (name, start, time.perf_counter(), parent[1] if parent else -1)
            stack.pop()
            self._add(f"{name}.calls", 1)
            if after is not None:
                after(args, kwargs, result, notes, parent)
            return result

        return traced

    def scale_from(self, first_span: int, factor: float) -> None:
        """Scale the spans of one job, from ``first_span`` on, by its speed factor."""
        self._factors.append((first_span, factor))

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, each span scaled by its job's factor."""
        factor = [1.0] * len(self.spans)
        bounds = self._factors + [(len(self.spans), 1.0)]
        for (lo, f), (hi, _) in zip(bounds, bounds[1:]):
            factor[lo:hi] = [f] * (hi - lo)
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _), cover, f in zip(self.spans, covered, factor):
            totals[name] = totals.get(name, 0.0) + (end - start - cover) * f
        return totals

    def _add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _max(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    # Counts recorded at the span boundaries.

    def _after_lp_feasible(self, args, kwargs, report, notes, parent):
        system = args[0] if args else kwargs["system"]
        self._max("exactlp.lp_rows_max", system.num_rows)
        if report.certificate is not None:
            self._max("exactlp.cert_bits_max", max(_bits(v) for v in report.certificate))

    def _after_matrix_rank(self, args, kwargs, rank, notes, parent):
        if parent is not None:
            parent[2]["rank"] = rank

    def _after_enumerate_basic_solutions(self, args, kwargs, vertices, notes, parent):
        system = args[0] if args else kwargs["system"]
        rank = notes.get("rank", 0)
        # The enumerator solves one column subset of size rank(A) per basis.
        self._add("exactlp.enumerate.bases_tried", comb(system.num_vars, rank) if rank else 0)
        self._add("exactlp.enumerate.vertices", len(vertices))

    def _after_model_drop_objectivity(self, args, kwargs, model, notes, parent):
        self._add("feasibility.witness_atoms", _witness_atoms(model))

    _after_model_drop_independence = _after_model_drop_objectivity
    _after_model_drop_determinism = _after_model_drop_objectivity

    def _after_sample_events(self, args, kwargs, counts, notes, parent):
        n = args[1] if len(args) > 1 else kwargs["n"]
        self._add("montecarlo.shots", n)
        # Computed, not measured: the sampler holds one float64 uniform per shot.
        self._max("montecarlo.uniform_bytes_max", 8 * n)
