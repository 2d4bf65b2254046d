"""Span recorder for the traced benchmark run, and the per-layer metrics it yields.

The recorder wraps the public functions of each ``frechet_sets`` module
from outside: class methods are replaced on the class, and module-level
functions are replaced in every ``frechet_sets`` namespace that binds them
(``lln_lab`` and ``set_limits`` import solver and distance functions with
``from ... import``, and ``cli`` calls ``lln_lab.run_*`` as module
attributes). Spans stay in memory as (name, start, end, parent, seed) and
are written once, when the traced process ends.

The counters ``draws``, ``samples``, ``reuse``, ``bytes_built`` and
``block_frac`` are computed from argument and array sizes, not measured;
``bytes`` of the result writers is the size of the file written.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

RUNNER = "lln_lab.runner"
RUNNER_FUNCTIONS = (
    "run_median_experiment",
    "run_circle_experiment",
    "run_regression_certificate",
    "run_ulln_single",
    "run_fixture_diagnostics",
)

#: (module, attribute) of every wrapped function, in report order; the
#: span name is "<module>.<attribute>" (``PointSet.__init__`` reports as
#: ``PointSet.init``, every runner as ``lln_lab.runner``).
TARGETS = (
    ("cli", "validate_config"),
    ("cli", "run"),
    ("lln_lab", "SplitMix64.next_block"),
    ("lln_lab", "SamplingDistribution.draw"),
    *(("lln_lab", name) for name in RUNNER_FUNCTIONS),
    ("lln_lab", "write_results_json"),
    ("lln_lab", "write_results_csv"),
    ("frechet_solver", "empirical_objective"),
    ("frechet_solver", "eps_argmin"),
    ("frechet_solver", "median_interval_1d"),
    ("frechet_solver", "population_objective"),
    ("frechet_solver", "product_mean_set"),
    ("frechet_solver", "grid_restrict_interval"),
    ("cost_model", "CostFunction.row"),
    ("metric_core", "CandidateGrid.distance_matrix"),
    ("metric_core", "CandidateGrid.distances_from"),
    ("metric_core", "PointSet.__init__"),
    ("set_limits", "d_subset"),
    ("set_limits", "d_hausdorff"),
    ("set_limits", "outer_limit_estimate"),
    ("set_limits", "inner_limit_estimate"),
    ("set_limits", "eventually_bounded"),
    ("set_limits", "analyze_sequence"),
    ("set_limits", "diagnose_fixture"),
    ("set_limits", "counterexample_fixture"),
)


def span_name(module: str, attr: str) -> str:
    if attr in RUNNER_FUNCTIONS:
        return RUNNER
    return f"{module}.{attr.replace('.__init__', '.init')}"


LAYERS = tuple(dict.fromkeys(span_name(m, a) for m, a in TARGETS))


# -- counters, computed before the call from the bound arguments --------------


def _count_draws(rec, args):
    rec.add("lln_lab.SplitMix64.next_block.draws", args["count"])


def _enter_seed(rec, args):
    rec.seed = args.get("seed")

    def leave():
        rec.seed = None

    return leave


def _count_file(name):
    def hook(rec, args):
        path = args["path"]
        return lambda: rec.add(f"{name}.bytes", os.path.getsize(path))

    return hook


def _count_objective_samples(rec, args):
    n = len(args["sample"])
    rec.add("frechet_solver.empirical_objective.samples", n)
    key = rec.seed
    rec.largest_n[key] = max(rec.largest_n.get(key, 0), n)


def _count_interval_samples(rec, args):
    rec.add("frechet_solver.median_interval_1d.samples", len(args["sample"]))


def _count_matrix_build(rec, args):
    grid = args["self"]
    # the grid caches its matrix; a call finding no cache builds G x G floats
    if getattr(grid, "_dmat", None) is None:
        rec.add("metric_core.CandidateGrid.distance_matrix.bytes_built", len(grid) ** 2 * 8)


def _count_block(rec, args):
    a, b = args["a"], args["b"]
    rec.add("set_limits.d_subset.block_cells", len(a) * len(b))
    rec.add("set_limits.d_subset.grid_cells", len(a.grid) ** 2)


HOOKS = {
    "lln_lab.SplitMix64.next_block": _count_draws,
    RUNNER: _enter_seed,
    "lln_lab.write_results_json": _count_file("lln_lab.write_results_json"),
    "lln_lab.write_results_csv": _count_file("lln_lab.write_results_csv"),
    "frechet_solver.empirical_objective": _count_objective_samples,
    "frechet_solver.median_interval_1d": _count_interval_samples,
    "metric_core.CandidateGrid.distance_matrix": _count_matrix_build,
    "set_limits.d_subset": _count_block,
}


class Recorder:
    """Collects spans and counters in memory for one traced process."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.largest_n: dict = {}
        self.seed = None

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] += value

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = hook(self, signature.bind(*args, **kwargs).arguments) if hook else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.seed)
                if after is not None:
                    after()

        return wrapper

    def install(self) -> None:
        """Wrap every target; the ``frechet_sets`` modules must be imported."""
        namespaces = [
            vars(mod)
            for key, mod in list(sys.modules.items())
            if key == "frechet_sets" or key.startswith("frechet_sets.")
        ]
        for module, attr in TARGETS:
            # a target missing on this commit records no spans; the
            # benchmark's layer check reports it where a workload needs it
            mod = sys.modules[f"frechet_sets.{module}"]
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                if owner is not None and fn_name in vars(owner):
                    setattr(owner, fn_name, self.wrap(span_name(module, attr), vars(owner)[fn_name]))
                continue
            original = getattr(mod, fn_name, None)
            if original is None:
                continue
            wrapped = self.wrap(span_name(module, attr), original)
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapped

    def dump(self, path: str) -> None:
        counters = dict(self.counters)
        counters["frechet_solver.empirical_objective.largest_n"] = sum(self.largest_n.values())
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": counters}, fh)


# -- per-layer metrics from a written trace ----------------------------------

#: Extra per-layer metrics beside .calls, .s and .self_s: (name, unit, better).
EXTRA_METRICS = (
    ("lln_lab.SplitMix64.next_block.draws", "count", "lower"),
    ("lln_lab.runner.p50_s", "s", "lower"),
    ("lln_lab.runner.tail_s", "s", "lower"),
    ("lln_lab.write_results_json.bytes", "B", "lower"),
    ("lln_lab.write_results_csv.bytes", "B", "lower"),
    ("frechet_solver.empirical_objective.samples", "count", "lower"),
    ("frechet_solver.empirical_objective.reuse", "ratio", "higher"),
    ("frechet_solver.median_interval_1d.samples", "count", "lower"),
    ("metric_core.CandidateGrid.distance_matrix.bytes_built", "B", "lower"),
    ("set_limits.d_subset.block_frac", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run prints: (name, unit, better)."""
    specs = []
    for layer in LAYERS:
        specs += [
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.s", "s", "lower"),
            (f"{layer}.self_s", "s", "lower"),
        ]
    return specs + list(EXTRA_METRICS)


def tail(samples: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it (the maximum
    when there are fewer than eleven samples)."""
    ordered = sorted(samples)
    return ordered[max(len(ordered) - 11, 0)] if len(ordered) > 10 else ordered[-1]


def layer_metrics(trace: dict) -> dict[str, float]:
    """Calls, inclusive and self seconds per layer, plus the counters."""
    import statistics  # here, not at the top: every timed process imports this module

    spans, counters = trace["spans"], trace["counters"]
    calls: Counter = Counter()
    inclusive: dict = defaultdict(float)
    covered: dict = defaultdict(float)
    runner_s = []
    for name, start, end, parent, _seed in spans:
        duration = end - start
        calls[name] += 1
        inclusive[name] += duration
        if parent >= 0:
            covered[spans[parent][0]] += duration
        if name == RUNNER:
            runner_s.append(duration)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.s"] = inclusive[layer]
        out[f"{layer}.self_s"] = inclusive[layer] - covered[layer]

    def ratio(num: str, den: str) -> float:
        return counters.get(num, 0) / counters[den] if counters.get(den) else 0.0

    for name, unit, _ in EXTRA_METRICS:
        if unit in ("count", "B"):
            out[name] = counters.get(name, 0)
    out["lln_lab.runner.p50_s"] = statistics.median(runner_s) if runner_s else 0.0
    out["lln_lab.runner.tail_s"] = tail(runner_s) if runner_s else 0.0
    out["frechet_solver.empirical_objective.reuse"] = ratio(
        "frechet_solver.empirical_objective.largest_n",
        "frechet_solver.empirical_objective.samples",
    )
    out["set_limits.d_subset.block_frac"] = ratio(
        "set_limits.d_subset.block_cells", "set_limits.d_subset.grid_cells"
    )
    return out
