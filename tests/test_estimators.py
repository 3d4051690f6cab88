import numpy as np
import pytest

from conftest import telescoping_mse
from mfmc.allocation import AllocationPlan, CostModel, optimal_allocation
from mfmc.errors import NotFittedError
from mfmc.estimators import (
    STATISTICS,
    apply_bridges,
    evaluate_for_plan,
    mfmc_expectation,
    mfmc_nonlinear,
    mfmc_statistic,
    single_level_variance,
    sobol_indices_single_level,
    sobol_single_level,
)
from mfmc.hierarchy import (
    Model,
    ModelHierarchy,
    Normal,
    Uniform,
    ishigami_hierarchy,
    synthetic_field_hierarchy,
)
from mfmc.pilot import estimate_moment_stats, pilot_stats_from_exact
from mfmc.regression import fit_regressor
from mfmc.sampling import (
    NestedEvaluations,
    build_sobol_block,
    draw_inputs,
    evaluate_nested,
)


def _manual_plan(m, alpha_rows):
    m = np.asarray(m, dtype=int)
    alpha = np.asarray(alpha_rows, dtype=float)
    if alpha.ndim == 1:
        alpha = alpha[:, None]
    return AllocationPlan(
        m=m,
        alpha=alpha,
        retained=m > 0,
        predicted_mse=np.nan,
        budget=np.nan,
        budget_used=float("nan"),
        r=np.full(m.shape, np.nan),
        m_real=m.astype(float),
    )


def _evals(m_vec, *columns):
    outputs = [np.asarray(c, dtype=float)[:, None] for c in columns]
    return NestedEvaluations(outputs, np.asarray(m_vec, dtype=int), None, 0.0)


def test_two_level_hand_telescoping():
    evals = _evals([1, 2], [2.0], [1.0, 3.0])
    plan = _manual_plan([1, 2], [1.0, 1.0])
    report = mfmc_expectation(evals, plan)
    # 2 + (mean(1,3) - mean(1)) = 2 + (2 - 1) = 3
    assert report.value[0] == pytest.approx(3.0)


def test_zero_coefficients_reduce_to_plain_mean():
    rng = np.random.default_rng(3)
    y1 = rng.normal(size=6)
    y2 = rng.normal(size=12)
    evals = _evals([6, 12], y1, y2)
    plan = _manual_plan([6, 12], [1.0, 0.0])
    report = mfmc_expectation(evals, plan)
    assert report.value[0] == pytest.approx(y1.mean())


def test_equal_prefix_contributes_exactly_zero():
    rng = np.random.default_rng(4)
    y1 = rng.normal(size=5)
    y2 = rng.normal(size=5)
    evals = _evals([5, 5], y1, y2)
    for alpha in (0.0, 1.0, 17.3):
        plan = _manual_plan([5, 5], [1.0, alpha])
        report = mfmc_expectation(evals, plan)
        assert report.value[0] == y1.mean()


def test_single_level_variance_values():
    assert single_level_variance([1.0, 2.0, 3.0]) == pytest.approx(1.0)
    assert single_level_variance(np.full(9, 2.5)) == 0.0
    with pytest.raises(ValueError):
        single_level_variance([1.0])


def test_large_sample_ishigami_variance():
    h = ishigami_hierarchy()
    s = draw_inputs(h, 1_000_000, 55)
    y = h.models[0].evaluate_batch(s.inputs)[:, 0]
    from mfmc.hierarchy import ishigami_variance

    assert abs(single_level_variance(y) - ishigami_variance()) < 0.1


def test_sobol_inactive_coordinate_total_effect_is_exactly_zero():
    def f(z):
        return (z[:, 0] + 2.0 * z[:, 1])[:, None]  # coordinate 2 inactive

    h = ModelHierarchy(
        (Model(f, 1.0, "f", vectorized=True),),
        (Uniform(0, 1), Uniform(0, 1), Uniform(0, 1)),
    )
    block = build_sobol_block(h, 64, 7)
    y = evaluate_nested(h, block, [64]).outputs[0]
    _, t3 = sobol_single_level(y[:, 0], y[:, 1], y[:, 2:].T, 2)
    assert t3 == 0.0


def test_sobol_additive_single_coordinate_main_effect():
    def f(z):
        return z[:, [1]]

    h = ModelHierarchy(
        (Model(f, 1.0, "f", vectorized=True),),
        (Uniform(-1, 1), Uniform(-1, 1)),
    )
    block = build_sobol_block(h, 40_000, 11)
    y = evaluate_nested(h, block, [40_000]).outputs[0]
    out = sobol_indices_single_level(y[:, 0], y[:, 1], y[:, 2:].T)
    assert out["main_normalized"][1] == pytest.approx(1.0, abs=0.02)
    assert out["main_normalized"][0] == pytest.approx(0.0, abs=0.02)
    assert out["total_normalized"][1] == pytest.approx(1.0, abs=0.02)


def test_sobol_ishigami_moderate_sample_sanity():
    from mfmc.hierarchy import ishigami_sobol_indices

    h = ishigami_hierarchy().subset([0])
    block = build_sobol_block(h, 200_000, 23)
    y = evaluate_nested(h, block, [200_000]).outputs[0]
    out = sobol_indices_single_level(y[:, 0], y[:, 1], y[:, 2:].T)
    main, total = ishigami_sobol_indices()
    assert np.allclose(out["main_normalized"], main, atol=0.02)
    assert np.allclose(out["total_normalized"], total, atol=0.02)


def test_plugin_expectation_matches_dedicated_combiner():
    h = ishigami_hierarchy()
    stats = estimate_moment_stats(evaluate_nested(h, draw_inputs(h, 80, 9), [80] * 3))
    plan = optimal_allocation(stats, CostModel(h.costs), 30.0)
    samples = draw_inputs(h, int(plan.m.max()), 10)
    evals = evaluate_for_plan(h, plan, samples)
    a = mfmc_expectation(evals, plan)
    b = mfmc_statistic(evals, plan, STATISTICS["expectation"])
    assert np.array_equal(a.value, b.value)
    assert a.realized_cost == b.realized_cost


def test_single_model_plan_reduces_to_single_level():
    h = ishigami_hierarchy()
    plan = _manual_plan([40, 0, 0], [[1.0], [0.0], [0.0]])
    samples = draw_inputs(h, 40, 2)
    evals = evaluate_for_plan(h, plan, samples)
    rep = mfmc_statistic(evals, plan, STATISTICS["variance"])
    y = h.models[0].evaluate_batch(samples.inputs[:40])[:, 0]
    assert rep.value[0] == pytest.approx(np.var(y, ddof=1))


def test_interior_dropped_model_is_never_evaluated():
    calls = {"n": 0}

    def counting(z):
        calls["n"] += z.shape[0]
        return z[:, [0]]

    models = (
        Model(lambda z: z[:, [0]], 1.0, "hf", vectorized=True),
        Model(counting, 0.5, "mid", vectorized=True),
        Model(lambda z: 0.9 * z[:, [0]], 0.1, "lo", vectorized=True),
    )
    h = ModelHierarchy(models, (Normal(0, 1),))
    plan = _manual_plan([4, 0, 12], [[1.0], [0.0], [0.9]])
    evals = evaluate_for_plan(h, plan, draw_inputs(h, 12, 5))
    assert calls["n"] == 0
    assert evals.outputs[1].shape[0] == 0
    rep = mfmc_expectation(evals, plan)
    assert np.isfinite(rep.value[0])
    assert rep.realized_cost == pytest.approx(4 * 1.0 + 12 * 0.1)


def test_permutation_within_prefix_blocks_leaves_estimate_unchanged():
    rng = np.random.default_rng(8)
    m = np.array([4, 10, 25])
    cols = [rng.normal(size=m[i]) for i in range(3)]
    evals = _evals(m, *cols)
    plan = _manual_plan(m, [1.0, 0.8, 0.6])
    base = mfmc_expectation(evals, plan).value[0]
    # permute rows inside each block bounded by the prefix structure
    perm_cols = []
    for i, col in enumerate(cols):
        col = col.copy()
        bounds = [0] + [mm for mm in m if mm <= len(col)]
        for lo, hi in zip(bounds, bounds[1:]):
            seg = col[lo:hi]
            col[lo:hi] = seg[rng.permutation(len(seg))]
        perm_cols.append(col)
    permuted = mfmc_expectation(_evals(m, *perm_cols), plan).value[0]
    assert permuted == pytest.approx(base, rel=1e-10)


def test_bridged_identity_matches_plain_expectation():
    h = ishigami_hierarchy()
    stats = estimate_moment_stats(evaluate_nested(h, draw_inputs(h, 60, 3), [60] * 3))
    plan = optimal_allocation(stats, CostModel(h.costs), 20.0)
    samples = draw_inputs(h, int(plan.m.max()), 14)
    evals = evaluate_for_plan(h, plan, samples)
    grid = np.linspace(-40, 40, 101)
    identity = fit_regressor(np.column_stack([grid, grid]), method="piecewise-linear")
    a = mfmc_nonlinear(evals, plan, [identity, identity])
    b = mfmc_expectation(evals, plan)
    assert a.value[0] == pytest.approx(b.value[0], rel=1e-9)
    assert a.mode == "nonlinear"


def test_bridged_estimation_requires_fitted_bridges():
    h = ishigami_hierarchy()
    plan = _manual_plan([3, 6, 9], [[1.0], [1.0], [1.0]])
    evals = evaluate_for_plan(h, plan, draw_inputs(h, 9, 4))
    from mfmc.regression import GaussianProcessBridge

    with pytest.raises(NotFittedError):
        mfmc_nonlinear(evals, plan, [GaussianProcessBridge(), GaussianProcessBridge()])


class _GaussianPair:
    """Two linear models of a standard normal pair with exact moments."""

    def __init__(self, rho=0.95):
        self.rho = rho

    def hierarchy(self, w2=0.01):
        rho = self.rho

        def hf(s):
            return s[:, [0]]

        def lf(s):
            return (rho * s[:, 0] + np.sqrt(1 - rho**2) * s[:, 1])[:, None]

        models = (
            Model(hf, 1.0, "hf", vectorized=True),
            Model(lf, w2, "lf", vectorized=True),
        )
        return ModelHierarchy(models, (Normal(0, 1), Normal(0, 1)))


def test_empirical_mse_matches_prediction_on_exact_gaussian_pair():
    pair = _GaussianPair(rho=0.95)
    h = pair.hierarchy()
    stats = pilot_stats_from_exact([1.0, 1.0], [1.0, 0.95])
    budget = 60.0
    plan = optimal_allocation(stats, CostModel(h.costs), budget)
    reps = 2000
    est = np.empty(reps)
    for r in range(reps):
        samples = draw_inputs(h, int(plan.m.max()), (777, r))
        evals = evaluate_for_plan(h, plan, samples)
        est[r] = mfmc_expectation(evals, plan).value[0]
    emp = float(np.mean(est**2))  # true mean is 0
    assert emp == pytest.approx(plan.predicted_mse, rel=0.5)
    assert plan.predicted_mse == pytest.approx(
        telescoping_mse([1.0, 1.0], [1.0, 0.95], plan.m), rel=1e-12
    )


def test_estimate_report_serializes_to_json():
    import json

    h = ishigami_hierarchy()
    stats = estimate_moment_stats(evaluate_nested(h, draw_inputs(h, 40, 1), [40] * 3))
    plan = optimal_allocation(stats, CostModel(h.costs), 20.0)
    evals = evaluate_for_plan(h, plan, draw_inputs(h, int(plan.m.max()), 2))
    report = mfmc_expectation(evals, plan)
    payload = json.dumps(report.to_dict())
    back = json.loads(payload)
    assert back["statistic"] == "expectation"
    assert back["value"][0] == report.value[0]
    assert back["plan"]["m"] == plan.m.tolist()


def test_mfmc_variance_beats_plain_variance_at_equal_cost():
    from mfmc.hierarchy import ishigami_variance
    from mfmc.study import StudyConfig, run_replicate

    config = StudyConfig(
        hierarchy="ishigami", statistics=("variance",), budgets=(160.0,),
        replicates=1, pilot_size=100, seed=99,
    )
    reps = 60
    vals = np.array(
        [run_replicate(config, "variance", 160.0, r)["values"][0] for r in range(reps)]
    )
    h = ishigami_hierarchy()
    plain = np.empty(reps)
    for r in range(reps):
        s = draw_inputs(h, 160, (4242, r))
        plain[r] = np.var(h.models[0].evaluate_batch(s.inputs)[:, 0], ddof=1)
    truth = ishigami_variance()
    assert np.mean((vals - truth) ** 2) < np.mean((plain - truth) ** 2)


def test_unbiased_mean_field_estimates(rng):
    n_points = 5
    h = synthetic_field_hierarchy(n_points)
    from mfmc.hierarchy import synthetic_field_exact_moments

    sigma, rho = synthetic_field_exact_moments(n_points)
    stats = pilot_stats_from_exact(sigma, rho)
    plan = optimal_allocation(stats, CostModel(h.costs), 25.0)
    reps = 400
    values = np.empty((reps, n_points))
    for r in range(reps):
        samples = draw_inputs(h, int(plan.m.max()), (31, r))
        evals = evaluate_for_plan(h, plan, samples)
        values[r] = mfmc_expectation(evals, plan).value
    mean = values.mean(axis=0)
    stderr = values.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(mean) < 4 * stderr)
