"""Multifidelity Monte Carlo estimation toolkit.

Combines a high-fidelity model with cheaper correlated companions to
estimate expectations, variances, and Sobol sensitivity indices under an
optimal budget-constrained sample allocation, optionally routing
low-fidelity outputs through a fitted 1-D regression bridge.
"""

from .allocation import (
    AggregatedStats,
    AllocationPlan,
    CostModel,
    aggregate_vector_stats,
    budget_for_tolerance,
    optimal_allocation,
    predicted_mse,
)
from .errors import (
    DegenerateStatsError,
    EvaluationError,
    InfeasibleBudgetError,
    MFMCError,
    NotFittedError,
    UnknownNameError,
)
from .estimators import (
    STATISTICS,
    EstimateReport,
    apply_bridges,
    evaluate_for_plan,
    mfmc_expectation,
    mfmc_statistic,
    sum_for_plan,
)
from .hierarchy import (
    Model,
    ModelHierarchy,
    Normal,
    Uniform,
    get_hierarchy,
    ishigami_hierarchy,
    ishigami_mean,
    ishigami_sobol_indices,
    ishigami_variance,
    quintic_hierarchy,
    quintic_mean,
    quintic_variance,
    synthetic_field_exact_moments,
    synthetic_field_hierarchy,
)
from .pilot import (
    PilotStats,
    estimate_moment_stats,
    estimate_q_stats,
    pilot_stats_from_exact,
)
from .regression import GaussianProcessBridge
from .sampling import (
    NestedEvaluations,
    SampleSet,
    build_sobol_block,
    draw_inputs,
    evaluate_nested,
)
from .study import (
    StudyConfig,
    make_reference,
    reference_values,
    replicate_sweep,
    run_replicate,
    run_study,
)

__version__ = "0.1.0"
