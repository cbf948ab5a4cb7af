"""Span tracing of ergoflow's public functions, installed from outside the library.

A :class:`Tracer` replaces every module binding of each traced function (for
example both ``ergoflow.states.ergotropy`` and ``ergoflow.mpemba.ergotropy``)
and the ``__init__`` of the traced classes with a wrapper that records one
span per call: layer name, start, end, parent span, operation id and an
optional work count.  Spans stay in memory until :meth:`Tracer.dump`.

:func:`summarize` turns spans into per-layer call counts, self times and
work counts; :func:`layer_metrics` turns those into the benchmark's
per-layer metrics.  A traced name that the library no longer defines is
skipped when installing and reads as 0 in the metrics.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Layer boundaries: defining module -> attributes traced in it.  A dotted
# attribute names a method of a class defined there.
TRACED = {
    "ergoflow.states": (
        "GaussianState.__init__",
        "ergotropy",
        "ergotropy_split",
        "relative_wigner_entropy",
        "wigner_entropy",
        "mean_energy",
        "passive_state",
    ),
    "ergoflow.factory": ("squeezed_thermal", "displaced_thermal", "random_state"),
    "ergoflow.dynamics": ("evolve_analytic", "ergotropy_rate", "sample_trajectory", "effective_parameters"),
    "ergoflow.mpemba": (
        "mpemba_scan",
        "crossing_report",
        "crossing_time_numeric",
        "crossing_time_closed_form",
    ),
    "ergoflow.oracles.lyapunov": ("rk4_moment_path",),
    "ergoflow.oracles.fock": (
        "FockDensityMatrix.__init__",
        "fock_gaussian_state",
        "fock_lindblad_path",
        "fock_ergotropy",
    ),
    "ergoflow.oracles.quadrature": ("norm_energy_entropy",),
    "ergoflow.cli": ("main",),
}

# Per-layer metrics, in the order BENCHMARK.json lists them, with units.
PER_LAYER = (
    ("states.GaussianState.calls", "count"),
    ("states.GaussianState.self_s", "s"),
    ("states.ergotropy.calls", "count"),
    ("states.ergotropy.self_s", "s"),
    ("states.relative_wigner_entropy.self_s", "s"),
    ("factory.squeezed_thermal.self_s", "s"),
    ("factory.displaced_thermal.self_s", "s"),
    ("factory.random_state.self_s", "s"),
    ("dynamics.evolve_analytic.calls", "count"),
    ("dynamics.evolve_analytic.self_s", "s"),
    ("dynamics.ergotropy_rate.self_s", "s"),
    ("dynamics.sample_trajectory.calls", "count"),
    ("dynamics.sample_trajectory.rows", "count"),
    ("dynamics.sample_trajectory.self_s", "s"),
    ("mpemba.mpemba_scan.self_s", "s"),
    ("mpemba.crossing_report.calls", "count"),
    ("mpemba.crossing_report.self_s", "s"),
    ("mpemba.crossing_time_numeric.calls", "count"),
    ("mpemba.crossing_time_numeric.self_s", "s"),
    ("mpemba.crossing_time_closed_form.self_s", "s"),
    ("mpemba.gap_evals_per_tuple", "count"),
    ("mpemba.crossing_share", "ratio"),
    ("oracles.lyapunov.rk4_moment_path.self_s", "s"),
    ("oracles.lyapunov.steps", "count"),
    ("oracles.lyapunov.state_steps_per_s", "1/s"),
    ("oracles.fock.fock_gaussian_state.self_s", "s"),
    ("oracles.fock.fock_lindblad_path.self_s", "s"),
    ("oracles.fock.steps_per_s", "1/s"),
    ("oracles.fock.FockDensityMatrix.self_s", "s"),
    ("oracles.fock.fock_ergotropy.self_s", "s"),
    ("oracles.quadrature.norm_energy_entropy.self_s", "s"),
    ("oracles.quadrature.grid_points_per_s", "1/s"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cli.import.numpy_s", "s"),
    ("cli.import.scipy_linalg_s", "s"),
    ("cli.main_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

OP_SPAN = "op"


def rk4_steps(dt, times) -> int:
    """Steps the oracles' fixed-step RK4 loop takes to reach each record time.

    Whole steps of dt while more than dt remains, then one shortened step
    when a remainder is left, exactly as the oracles step.
    """
    dt = float(dt)
    steps, now = 0, 0.0
    for target in times:
        target = float(target)
        while target - now > dt * (1.0 + 1e-9):
            now += dt
            steps += 1
        if target - now > 1e-14 * max(1.0, target):
            steps += 1
        now = target
    return steps


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _rk4_work(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    steps = rk4_steps(a["dt"], a["record_times"])
    return (steps, steps * len(a["states"]))


def _fock_work(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    return (rk4_steps(a["dt"], a["times"]),)


def _quadrature_work(fn, args, kwargs, out):
    n = _bound(fn, args, kwargs)["n"]
    return (n * n,)


# work counts recorded on a span, as a tuple summed per layer
WORK = {
    "dynamics.sample_trajectory": lambda fn, args, kwargs, out: (len(out),),
    "mpemba.crossing_report": lambda fn, args, kwargs, out: (int(out.exists),),
    "oracles.lyapunov.rk4_moment_path": _rk4_work,
    "oracles.fock.fock_lindblad_path": _fock_work,
    "oracles.quadrature.norm_energy_entropy": _quadrature_work,
}


def layer_name(module_name: str, attr: str) -> str:
    """'ergoflow.states', 'GaussianState.__init__' -> 'states.GaussianState'."""
    short = module_name.removeprefix("ergoflow.")
    return f"{short}.{attr.removesuffix('.__init__')}"


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, op, work]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1

    def _wrap(self, name, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)
        tracer = self

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._op, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if work is not None:
                record[5] = work(fn, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of the traced names for the duration of the block."""
        originals = {}  # id(original) -> wrapper
        patches = []  # (owner, attribute, original)
        for module_name, attrs in TRACED.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for attr in attrs:
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                fn = getattr(owner, method, None) if owner is not None else None
                if fn is None:
                    continue
                wrapper = self._wrap(layer_name(module_name, attr), fn)
                if owner_name:
                    patches.append((owner, method, fn))
                    setattr(owner, method, wrapper)
                else:
                    originals[id(fn)] = wrapper
        for module_name, module in list(sys.modules.items()):
            if module_name != "ergoflow" and not module_name.startswith("ergoflow."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, value in reversed(patches):
                setattr(owner, attr, value)

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark operation; spans inside share its id."""
        self._op = op_id
        record = [OP_SPAN, 0.0, 0.0, -1, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()
            self._op = -1

    def dump(self, path):
        """Write the spans as gzipped JSON lines: name, start, end, parent, op, work."""
        with gzip.open(path, "wt", encoding="ascii") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def summarize(spans):
    """Per-layer totals: {name: {"calls", "self_s", "work"}} plus tuple stats.

    Self time is a span's duration minus the durations of its direct
    children; spans nest on one thread, so the children never overlap.
    Also returns the number of evolve_analytic calls made under
    crossing_time_numeric, the bisection's gap evaluations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op, _work in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "work": ()})
    under_numeric = [False] * len(spans)
    gap_evals = 0
    for i, (name, start, end, parent, _op, work) in enumerate(spans):
        entry = totals[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        if work is not None:
            old = entry["work"] or (0,) * len(work)
            entry["work"] = tuple(a + b for a, b in zip(old, work))
        if parent >= 0:
            under_numeric[i] = under_numeric[parent] or spans[parent][0] == "mpemba.crossing_time_numeric"
        if name == "dynamics.evolve_analytic" and under_numeric[i]:
            gap_evals += 1
    return dict(totals), gap_evals


def layer_metrics(spans, extra=None) -> dict:
    """Every PER_LAYER metric, per traced operation, from the spans.

    ``extra`` supplies metrics measured outside the spans (CLI start-up,
    tracing overhead); any metric neither derivable nor supplied reads 0.
    """
    totals, gap_evals = summarize(spans)
    n_ops = max(1, totals[OP_SPAN]["calls"] if OP_SPAN in totals else 0)

    def get(name, key):
        entry = totals.get(name)
        return entry[key] if entry else 0

    def work(name, index):
        w = get(name, "work") or ()
        return w[index] if index < len(w) else 0

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    values = {}
    for metric, _unit in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            values[metric] = get(layer, "calls") / n_ops
        elif stat == "self_s":
            values[metric] = get(layer, "self_s") / n_ops
    numeric_calls = get("mpemba.crossing_time_numeric", "calls")
    report_calls = get("mpemba.crossing_report", "calls")
    rk4 = "oracles.lyapunov.rk4_moment_path"
    path = "oracles.fock.fock_lindblad_path"
    quad = "oracles.quadrature.norm_energy_entropy"
    values.update(
        {
            "dynamics.sample_trajectory.rows": work("dynamics.sample_trajectory", 0) / n_ops,
            "mpemba.gap_evals_per_tuple": gap_evals / 2 / numeric_calls if numeric_calls else 0.0,
            "mpemba.crossing_share": work("mpemba.crossing_report", 0) / report_calls if report_calls else 0.0,
            "oracles.lyapunov.steps": work(rk4, 0) / n_ops,
            "oracles.lyapunov.state_steps_per_s": rate(work(rk4, 1), get(rk4, "self_s")),
            "oracles.fock.steps_per_s": rate(work(path, 0), get(path, "self_s")),
            "oracles.quadrature.grid_points_per_s": rate(work(quad, 0), get(quad, "self_s")),
        }
    )
    values.update(extra or {})
    return {metric: {"value": float(values.get(metric, 0.0)), "unit": unit} for metric, unit in PER_LAYER}
