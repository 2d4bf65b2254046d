"""Generalized Frechet mean sets over finite metric spaces.

Compute epsilon-argmin sets of population and empirical cost objectives,
measure how set sequences converge (one-sided Hausdorff distance, outer
and inner limit estimates), and reproduce the desk-scale convergence
phenomena with seeded Monte-Carlo experiments.
"""

from .metric_core import (
    CandidateGrid,
    GridMismatchError,
    InvalidPointError,
    MetricSpace,
    MetricTransform,
    Point,
    PointSet,
    SpaceKind,
    circle_grid,
    circle_space,
    diameter,
    euclidean_space,
    integer_grid,
    line_grid,
    n0_line_space,
    n0_unit_space,
    product_grid,
    product_l1_space,
    table_space,
)
from .cost_model import (
    ConstructHTrace,
    CostFunction,
    InequalityReport,
    IntegratedH,
    NondecreasingFn,
    NonInvertibleError,
    TableCost,
    UndefinedDoublingError,
    check_lemma_inequalities,
    construct_h,
    estimate_doubling_constant,
    h_cost,
    power_cost,
)
from .frechet_solver import (
    ARGMIN_ABS_TOL,
    EpsilonSchedule,
    FiniteDistribution,
    Objective,
    empirical_objective,
    eps_argmin,
    grid_restrict_interval,
    median_interval_1d,
    population_objective,
    product_mean_set,
)
from .set_limits import (
    CounterexampleFixture,
    FixtureDiagnostics,
    LimitReport,
    SetSequence,
    analyze_sequence,
    approachable_minimizers_check,
    counterexample_fixture,
    d_hausdorff,
    d_subset,
    diagnose_fixture,
    eventually_bounded,
    inner_limit_estimate,
    outer_limit_estimate,
    uniform_on_bounded_check,
)
from .lln_lab import (
    ExperimentResult,
    SamplingDistribution,
    SplitMix64,
    make_n_grid,
    markov_bound,
    run_circle_experiment,
    run_fixture_diagnostics,
    run_median_experiment,
    run_regression_certificate,
    run_ulln_single,
    symmetric_lambda_min,
    ulln_table,
    write_results_csv,
    write_results_json,
)

__version__ = "0.1.0"
