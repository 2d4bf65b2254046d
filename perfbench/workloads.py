"""The benchmark's workloads: what each one runs, and which layers it must reach.

Each workload is a CLI config without seeds or output directory. The
benchmark seed picks the replication seeds, so the program only ever sees
a generated config. Seed-dependent workloads draw their seeds from a pool
of experiment seeds whose outputs are pinned under ``reference/``; a new
benchmark seed selects a different subset of that pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FIXTURE_NAMES = ("unit-indicator", "line-indicator", "reciprocal-tail")

#: Spans every workload reaches through the CLI.
_CLI_LAYERS = (
    "cli.validate_config",
    "cli.run",
    "lln_lab.runner",
    "lln_lab.write_results_json",
    "lln_lab.write_results_csv",
)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    seeds_per_run: int
    #: Experiment seeds 0..pool-1 have pinned outputs; 0 means the output
    #: does not depend on the seed and one reference serves every seed.
    pool: int
    #: Spans the traced run must record at least once.
    layers: tuple[str, ...]
    #: Library-API step run after the CLI: analyze_sequence on each
    #: fixture's argmin sequence.
    analyze: "dict | None" = None

    def seeds(self, bench_seed: int) -> list[int]:
        rng = random.Random(f"{self.name}/{bench_seed}")
        if self.pool:
            return sorted(rng.sample(range(self.pool), self.seeds_per_run))
        return [rng.randrange(2**31)]

    def run_config(self, seeds: list[int], out_dir: str) -> dict:
        return dict(self.config, seeds=seeds, out_dir=out_dir)


_FIXTURE_HORIZON = 500

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="median-walk",
            config={
                "experiment": "median",
                "n_max": 100000,
                "schedule": {"kind": "constant", "c": 0.0, "exponent": 0.0},
                "params": {"dimension": 3},
            },
            seeds_per_run=20,
            pool=40,
            layers=_CLI_LAYERS
            + (
                "lln_lab.SplitMix64.next_block",
                "frechet_solver.median_interval_1d",
                "frechet_solver.grid_restrict_interval",
                "frechet_solver.product_mean_set",
                "metric_core.CandidateGrid.distance_matrix",
                "metric_core.PointSet.init",
                "set_limits.d_subset",
                "set_limits.d_hausdorff",
            ),
        ),
        Workload(
            name="circle-wide",
            config={
                "experiment": "circle",
                "n_max": 65536,
                "params": {"grid_size": 3600, "alpha": 2.0},
            },
            seeds_per_run=1,
            pool=64,
            layers=_CLI_LAYERS
            + (
                "lln_lab.SplitMix64.next_block",
                "lln_lab.SamplingDistribution.draw",
                "frechet_solver.population_objective",
                "frechet_solver.empirical_objective",
                "frechet_solver.eps_argmin",
                "cost_model.CostFunction.row",
                "metric_core.CandidateGrid.distance_matrix",
                "metric_core.CandidateGrid.distances_from",
                "metric_core.PointSet.init",
                "set_limits.d_subset",
            ),
        ),
        Workload(
            name="ulln-long",
            config={
                "experiment": "ulln",
                "params": {
                    "grid_points": 201,
                    "alpha": 2.0,
                    "n_list": [100, 10000, 100000],
                },
            },
            seeds_per_run=5,
            pool=64,
            layers=_CLI_LAYERS
            + (
                "lln_lab.SplitMix64.next_block",
                "lln_lab.SamplingDistribution.draw",
                "frechet_solver.population_objective",
                "frechet_solver.empirical_objective",
                "cost_model.CostFunction.row",
                "metric_core.CandidateGrid.distances_from",
            ),
        ),
        Workload(
            name="fixtures-tail",
            config={
                "experiment": "fixtures",
                "params": {
                    "horizon": _FIXTURE_HORIZON,
                    "grid_max": _FIXTURE_HORIZON,
                    "diameter_cap": 50.0,
                },
            },
            seeds_per_run=1,
            pool=0,
            layers=_CLI_LAYERS
            + (
                "frechet_solver.eps_argmin",
                "metric_core.CandidateGrid.distance_matrix",
                "metric_core.CandidateGrid.distances_from",
                "metric_core.PointSet.init",
                "set_limits.d_subset",
                "set_limits.d_hausdorff",
                "set_limits.outer_limit_estimate",
                "set_limits.inner_limit_estimate",
                "set_limits.eventually_bounded",
                "set_limits.analyze_sequence",
                "set_limits.diagnose_fixture",
                "set_limits.counterexample_fixture",
            ),
            analyze={
                "names": list(FIXTURE_NAMES),
                "horizon": _FIXTURE_HORIZON,
                "grid_max": _FIXTURE_HORIZON,
                "tail_start": _FIXTURE_HORIZON // 2,
                "diameter_cap": 50.0,
            },
        ),
    )
}
