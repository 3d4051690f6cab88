import types

import mfmc

PUBLIC_NAMES = [
    "AggregatedStats", "AllocationPlan", "CostModel", "DegenerateStatsError", "EstimateReport",
    "EvaluationError", "GaussianProcessBridge", "InfeasibleBudgetError", "MFMCError", "Model",
    "ModelHierarchy", "NestedEvaluations", "Normal", "NotFittedError", "PilotStats",
    "STATISTICS", "SampleSet", "StudyConfig", "Uniform", "UnknownNameError",
    "aggregate_vector_stats", "apply_bridges", "budget_for_tolerance", "build_sobol_block",
    "draw_inputs", "estimate_moment_stats", "estimate_q_stats", "evaluate_for_plan",
    "evaluate_nested", "get_hierarchy", "ishigami_hierarchy", "ishigami_mean",
    "ishigami_sobol_indices", "ishigami_variance", "make_reference", "mfmc_expectation",
    "mfmc_statistic", "optimal_allocation", "pilot_stats_from_exact", "predicted_mse",
    "quintic_hierarchy", "quintic_mean", "quintic_variance", "reference_values",
    "replicate_sweep", "run_replicate", "run_study", "synthetic_field_exact_moments",
    "synthetic_field_hierarchy",
]


def test_public_names_are_pinned():
    # a name that only duplicates another is not exported; the statistic
    # plugins are reached through mfmc.STATISTICS
    names = sorted(
        name for name, value in vars(mfmc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == sorted(PUBLIC_NAMES)
