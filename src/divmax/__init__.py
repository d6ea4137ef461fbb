"""divmax: diversity maximization over overlapping clusters with budgets.

Selections maximize the sum of once-counted pairwise distances inside each
cluster's picks, optionally traded off against a monotone submodular quality
of the union, under disjointness and a partition constraint.
"""

from .model import (
    Cluster,
    Instance,
    Solution,
    Violation,
    available_elements,
    is_feasible,
    is_saturated,
    min_coverage_filter,
    validate_instance,
)
from .geometry import (
    DistanceOracle,
    approx_diameter,
    exact_diameter,
    set_distance_sum,
)
from .quality import QualityFunction, marginal, marginal_pair, value
from .objective import (
    ObjectiveValue,
    cluster_dispersion,
    combined_objective,
    global_dispersion,
    intra_dispersion,
    pair_gain_combined,
    pair_gain_dispersion,
    removal_measure,
)
from .solvers import (
    Algorithm,
    OddPolicy,
    OracleLimitError,
    SolveTrace,
    SolverConfig,
    TraceEvent,
    alpha_acceptable,
    approximation_ratio,
    replay_trace,
    solve,
    solve_exact,
    solve_gelms,
    solve_gp,
    solve_gpa,
    solve_lsg,
    solve_lsi,
    solve_mc,
    solve_rn,
)
from .instgen import (
    GenSpec,
    TightDistances,
    gen_fig1,
    gen_prototype,
    gen_random,
    gen_tight,
    generate,
    tight_reference_values,
)
from .harness import (
    BenchPoint,
    ExperimentReport,
    ExperimentRow,
    ExperimentSpec,
    SchemaError,
    bench_scaling,
    load_instance,
    load_solution,
    run_experiment,
    save_instance,
    save_solution,
)

__version__ = "0.1.0"
