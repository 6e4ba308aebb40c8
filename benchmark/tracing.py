"""In-memory spans and counters around oscillax's public functions.

Tracing lives entirely in the benchmark: :class:`Instrumentation` swaps every
public module-level function of every ``oscillax`` module for a wrapper, in
each namespace that binds it by name (``cli_report`` and ``pde_bridge`` import
``compute_kernel``, ``make_barriers`` and others directly), so no call escapes
the trace.  Two methods carry most of the coefficient work and are wrapped on
their classes: ``CoefficientExpr.evaluate_grid`` and
``OscillationSpec.q_callable``.  The closure ``make_blend`` returns is wrapped
as ``pde_bridge.blend`` so blend evaluations per sweep can be counted.

A span is ``[name, start, end, parent]``; spans stay in memory until the
operation ends and :func:`layer_metrics` turns them into per-layer numbers.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

class Tracer:
    """Spans and counters of one traced operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.continuations: set = set()
        self.kernel_work: list = []   # (kind, first abscissa, points) inside compute_kernel
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, hook):
        stack = self._stack()
        parent = stack[-1] if stack else None
        index = len(self.spans)
        span = [name, time.perf_counter(), None, parent]
        self.spans.append(span)
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            span[2] = time.perf_counter()
        # recursion (a piecewise expression evaluating its pieces,
        # integrate_finite flipping reversed bounds) counts once
        if parent is None or self.spans[parent][0] != name:
            self.counters[name + ".calls"] += 1
            if hook is not None:
                result = hook(self, args, kwargs, result)
        return result

    def inside(self, name: str, stop: tuple = ()) -> bool:
        """Whether ``name`` encloses the current call with no ``stop`` span between."""
        for index in reversed(self._stack()):
            outer = self.spans[index][0]
            if outer == name:
                return True
            if outer.startswith(stop):
                return False
        return False


# ---------------------------------------------------------------------------
# Counters taken at the boundaries

KERNEL = "kernel.compute_kernel"
# a coefficient call nested in quadrature or in another coefficient call is
# not one of the kernel's own sample arrays
NOT_KERNEL_SAMPLES = ("quadrature.", "coeff_dsl.evaluate_grid", "example_builder.q_callable")


def _count_kernel(signature):
    """Grid size, repeats of the continuation inputs, and the work done.

    The work is what compute_kernel's calls actually receive: the points at
    which it samples a coefficient itself, and the points it integrates with
    ``cumulative_simpson_doubled``.  Coefficient samples at or beyond the grid
    end are the continuation's.  A kernel that reuses an earlier continuation
    makes fewer of these calls, so both counts drop.
    """
    def hook(tracer, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        grid = np.asarray(bound.arguments["grid"])
        end = float(grid[-1])
        extend_to = float(bound.arguments["extend_to"])
        if extend_to > end:  # the call asks for a continuation
            q = bound.arguments["q"]
            key = (id(getattr(q, "__self__", q)), getattr(q, "__func__", None),
                   end, extend_to, float(bound.arguments["extend_step"]))
            if key in tracer.continuations:
                tracer.counters[KERNEL + ".repeats"] += 1
            tracer.continuations.add(key)
        work, tracer.kernel_work = tracer.kernel_work, []
        c = tracer.counters
        c[KERNEL + ".grid_points"] += len(grid)
        c[KERNEL + ".continuation_points"] += sum(
            n for kind, x0, n in work if kind == "sample" and x0 >= end)
        c[KERNEL + ".bytes_computed"] += 8 * sum(n for _, _, n in work)  # float64
        return result
    return hook


def _kernel_work(tracer, kind, array):
    points = int(np.size(array))
    if points:
        tracer.kernel_work.append((kind, float(np.ravel(array)[0]), points))


def _count_coefficient(counter: str):
    def hook(tracer, args, kwargs, result):
        tracer.counters[counter] += int(np.size(args[1]))
        if tracer.inside(KERNEL, NOT_KERNEL_SAMPLES):
            _kernel_work(tracer, "sample", args[1])
        return result
    return hook


def _count_integrated(tracer, args, kwargs, result):
    tracer.counters["quadrature.cumulative_simpson_doubled.points"] += int(np.size(args[0]))
    if tracer.inside(KERNEL):
        _kernel_work(tracer, "integrated", args[0])
    return result


def _count_evals(tracer, args, kwargs, result):
    tracer.counters["quadrature.integrate_finite.evals"] += result.evaluations
    return result


def _count_periods(tracer, args, kwargs, result):
    tracer.counters["lemma_check.check_hypotheses.periods"] += result.m_checked
    return result


def _count_sweeps(tracer, args, kwargs, result):
    tracer.counters["bvp_solver.solve_radial.sweeps"] += result.iterations
    tracer.counters["bvp_solver.solve_radial.grid_points"] += len(result.grid)
    return result


def _count_csv_bytes(tracer, args, kwargs, result):
    tracer.counters["cli_report.write_csv.bytes"] += Path(args[0]).stat().st_size
    return result


def _trace_blend(tracer, args, kwargs, result):
    blend = result

    @functools.wraps(blend)
    def traced_blend(*a, **k):
        return tracer.call("pde_bridge.blend", blend, a, k, None)
    return traced_blend


# ---------------------------------------------------------------------------
# Patching


class Instrumentation:
    """Installs traced wrappers into the loaded ``oscillax`` modules."""

    def __init__(self, package):
        from oscillax.coeff_dsl import CoefficientExpr
        from oscillax.example_builder import OscillationSpec
        from oscillax.kernel import compute_kernel

        self.tracer: Tracer | None = None
        prefix = package.__name__ + "."
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__ or n.startswith(prefix))]
        hooks = {
            "kernel.compute_kernel": _count_kernel(inspect.signature(compute_kernel)),
            "quadrature.integrate_finite": _count_evals,
            "quadrature.cumulative_simpson_doubled": _count_integrated,
            "coeff_dsl.evaluate_grid": _count_coefficient("coeff_dsl.evaluate_grid.points"),
            "example_builder.q_callable": _count_coefficient(
                "example_builder.q_callable.points"),
            "lemma_check.check_hypotheses": _count_periods,
            "pde_bridge.make_blend": _trace_blend,
            "bvp_solver.solve_radial": _count_sweeps,
            "cli_report.write_csv": _count_csv_bytes,
        }

        wrappers = {}  # id(original) -> (original, wrapper)
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    label = f"{short}.{name}"
                    wrappers[id(obj)] = (obj, self._wrap(label, obj, hooks.get(label)))
        # (namespace, attribute, original, wrapper) for every binding
        self._patches = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    original, wrapper = wrappers[id(value)]
                    self._patches.append((module, attr, original, wrapper))
        for cls, attr, label in ((CoefficientExpr, "evaluate_grid", "coeff_dsl.evaluate_grid"),
                                 (OscillationSpec, "q_callable", "example_builder.q_callable")):
            original = vars(cls)[attr]
            self._patches.append((cls, attr, original,
                                  self._wrap(label, original, hooks.get(label))))

    def _wrap(self, label, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer = self.tracer
            if tracer is None:  # a bound method captured while tracing
                return fn(*args, **kwargs)
            return tracer.call(label, fn, args, kwargs, hook)
        return traced

    @contextlib.contextmanager
    def tracing(self):
        """Trace the calls made inside the block into a fresh :class:`Tracer`."""
        self.tracer = Tracer()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self.tracer
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self.tracer = None


# ---------------------------------------------------------------------------
# Spans to per-layer numbers


def _union_length(intervals, lo, hi) -> float:
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def span_times(tracer: Tracer):
    """Per span name: self time, and inclusive time of the outermost spans.

    Self time is a span's duration minus the part of it that its child spans
    cover.  Also returns the time that children of root spans cover.
    """
    spans = tracer.spans
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    self_s, inclusive_s = Counter(), Counter()
    under_roots = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        covered = _union_length(children[index], start, end)
        self_s[name] += (end - start) - covered
        if parent is None:
            under_roots += covered
        if parent is None or spans[parent][0] != name:
            inclusive_s[name] += end - start
    return self_s, inclusive_s, under_roots


def _per(total: float, count: float, scale: float = 1.0) -> float:
    """Cost per unit of work; 0.0 where the operation did none of that work."""
    return scale * total / count if count else 0.0


SELF_TIMES = (
    "kernel.compute_kernel", "kernel.ode_residual",
    "quadrature.integrate_finite", "quadrature.integrate_tail",
    "coeff_dsl.evaluate_grid",
    "example_builder.build_oscillation", "example_builder.build_pair",
    "example_builder.check_integral_features",
    "lemma_check.verify_lemma", "lemma_check.check_hypotheses",
    "pde_bridge.make_barriers", "pde_bridge.subsuper_residual",
    "pde_bridge.integral_conditions", "pde_bridge.blend",
    "bvp_solver.solve_radial", "bvp_solver.check_sandwich", "bvp_solver.decay_fit",
    "cli_report.write_csv", "cli_report.write_json", "cli_report.emit_plot",
    "cli_report.run",
)
COUNTS = (
    "kernel.compute_kernel.calls", "kernel.compute_kernel.grid_points",
    "kernel.compute_kernel.continuation_points",
    "quadrature.integrate_finite.calls", "quadrature.integrate_finite.evals",
    "quadrature.integrate_tail.calls", "quadrature.cumulative_simpson_doubled.points",
    "coeff_dsl.evaluate_grid.calls", "coeff_dsl.evaluate_grid.points",
    "example_builder.q_callable.calls", "example_builder.q_callable.points",
    "lemma_check.check_hypotheses.periods",
    "pde_bridge.make_barriers.calls", "pde_bridge.blend.calls",
    "bvp_solver.solve_radial.sweeps", "bvp_solver.solve_radial.grid_points",
)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced operation, as name -> (value, unit).

    Costs per unit of work (``us_per_eval``, ``ns_per_point``,
    ``s_per_sweep``) divide the inclusive time of the outermost calls by the
    work they did, so they cover everything the call waits for.
    """
    self_s, inclusive_s, under_roots = span_times(tracer)
    c = tracer.counters
    out = {f"{name}.self_s": (self_s[name], "s") for name in SELF_TIMES}
    out.update({name: (float(c[name]), "count") for name in COUNTS})
    out["kernel.compute_kernel.repeat_share"] = (
        _per(c["kernel.compute_kernel.repeats"], c["kernel.compute_kernel.calls"]), "ratio")
    out["kernel.compute_kernel.bytes_computed"] = (
        float(c["kernel.compute_kernel.bytes_computed"]), "B")
    out["quadrature.integrate_finite.us_per_eval"] = (
        _per(inclusive_s["quadrature.integrate_finite"],
             c["quadrature.integrate_finite.evals"], 1e6), "us")
    for name in ("quadrature.cumulative_simpson_doubled", "coeff_dsl.evaluate_grid",
                 "example_builder.q_callable"):
        out[f"{name}.ns_per_point"] = (
            _per(inclusive_s[name], c[f"{name}.points"], 1e9), "ns")
    out["bvp_solver.solve_radial.s_per_sweep"] = (
        _per(inclusive_s["bvp_solver.solve_radial"], c["bvp_solver.solve_radial.sweeps"]), "s")
    out["cli_report.write_csv.bytes"] = (float(c["cli_report.write_csv.bytes"]), "B")
    # share of the operation's wall time spent inside a module's span
    out["trace.coverage"] = (_per(under_roots, wall_s), "ratio")
    return out


def median_metrics(samples: list[dict]) -> dict:
    """Median over operations of each per-layer metric."""
    return {name: (float(np.median([s[name][0] for s in samples])), unit)
            for name, (_, unit) in samples[0].items()}

