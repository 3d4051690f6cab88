import re
import types
from pathlib import Path

import numpy as np

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
    "replicate_sweep", "run_replicate", "run_study", "sum_for_plan",
    "synthetic_field_exact_moments", "synthetic_field_hierarchy",
]


def test_public_names_are_pinned():
    # a name that only duplicates another is not exported; the statistic
    # plugins are reached through mfmc.STATISTICS
    names = sorted(
        name for name, value in vars(mfmc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == sorted(PUBLIC_NAMES)


def test_readme_quick_start_runs_as_written(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names = {}
    exec(code, names)
    assert capsys.readouterr().out.strip()
    h, plan, samples, stat = names["h"], names["plan"], names["samples"], names["stat"]
    # the streamed path it teaches gives the held path's value bit for bit
    held = mfmc.mfmc_statistic(mfmc.evaluate_for_plan(h, plan, samples), plan, stat)
    assert np.array_equal(names["report"].value, held.value)
    assert np.all(np.isfinite(held.value))
