import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfmc.sampling
from conftest import IdentityBridge, RowSource, telescoping_mse, traced_peak, whole_draw
from mfmc.allocation import AllocationPlan, CostModel, optimal_allocation
from mfmc.errors import EvaluationError, NotFittedError
from mfmc.estimators import (
    STATISTICS,
    apply_bridges,
    evaluate_for_plan,
    mfmc_expectation,
    mfmc_statistic,
    sum_for_plan,
)
from mfmc.hierarchy import (
    Model,
    ModelHierarchy,
    Normal,
    Uniform,
    ishigami_hierarchy,
    quintic_hierarchy,
    synthetic_field_hierarchy,
)
from mfmc.pilot import estimate_moment_stats, estimate_q_stats, pilot_stats_from_exact
from mfmc.regression import GaussianProcessBridge
from mfmc.sampling import (
    _BLOCK_ELEMENTS,
    NestedEvaluations,
    build_sobol_block,
    draw_inputs,
    evaluate_nested,
)

EXPECTATION = STATISTICS["expectation"]


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
    return NestedEvaluations(outputs, np.asarray(m_vec, dtype=int), 0.0)


def test_two_level_hand_telescoping():
    evals = _evals([1, 2], [2.0], [1.0, 3.0])
    plan = _manual_plan([1, 2], [1.0, 1.0])
    report = mfmc_statistic(evals, plan, EXPECTATION)
    # 2 + (mean(1,3) - mean(1)) = 2 + (2 - 1) = 3
    assert report.value[0] == pytest.approx(3.0)


def test_zero_coefficients_reduce_to_plain_mean():
    rng = np.random.default_rng(3)
    y1 = rng.normal(size=6)
    y2 = rng.normal(size=12)
    evals = _evals([6, 12], y1, y2)
    plan = _manual_plan([6, 12], [1.0, 0.0])
    report = mfmc_statistic(evals, plan, EXPECTATION)
    assert report.value[0] == pytest.approx(y1.mean())


def test_equal_prefix_contributes_exactly_zero():
    rng = np.random.default_rng(4)
    y1 = rng.normal(size=5)
    y2 = rng.normal(size=5)
    evals = _evals([5, 5], y1, y2)
    for alpha in (0.0, 1.0, 17.3):
        plan = _manual_plan([5, 5], [1.0, alpha])
        report = mfmc_statistic(evals, plan, EXPECTATION)
        assert report.value[0] == y1.mean()


def _single_level(stat_label, outputs):
    """``stat_label``'s single-level estimate from all of one model's held outputs."""
    outputs = np.asarray(outputs, dtype=float)
    outputs = outputs[:, None] if outputs.ndim == 1 else outputs
    evals = NestedEvaluations([outputs], np.array([len(outputs)]), 0.0)
    return STATISTICS[stat_label].single_level(evals, 0, len(outputs))


def test_variance_single_level_values():
    assert _single_level("variance", [1.0, 2.0, 3.0])[0] == pytest.approx(1.0)
    assert _single_level("variance", np.full(9, 2.5))[0] == 0.0
    with pytest.raises(ValueError, match="at least 2"):
        _single_level("variance", [1.0])


@pytest.mark.parametrize("n", [1, 2, 1000, 65_535, 65_536])
def test_scalar_expectation_equals_one_call_mean_within_a_block(n):
    # numpy sums one column pairwise; within the fold's first block the
    # fold sums the same rows in the same order
    x = np.random.default_rng(n).normal(size=(n, 1)) * 1e3 + 1e6
    assert np.array_equal(_single_level("expectation", x), np.add.reduce(x, axis=0) / n)


def test_wide_expectation_equals_one_call_sum_and_leaves_the_outputs_alone():
    # a writeable C-contiguous later block is summed in place, the running
    # sum added into its first row for the call; any other block through a
    # copy under the sum. Both give numpy's row-after-row sum of all rows.
    rng = np.random.default_rng(3)
    n, width = 50_000, 4  # four row blocks
    c_order = rng.normal(size=(n, width)) * 1e3 + 1e6
    read_only = c_order.copy()
    read_only.flags.writeable = False
    layouts = [c_order, np.asfortranarray(c_order), read_only,
               np.repeat(c_order, 2, axis=1)[:, ::2]]
    expected = np.add.reduce(c_order, axis=0) / n
    for x in layouts:
        before = x.copy()
        assert np.array_equal(_single_level("expectation", x), expected)
        assert np.array_equal(x, before)


def _variance_layouts(rng, n, width, offset_decades=(-3, 3)):
    """(name, array) pairs of n x width outputs in the layouts a plugin may get."""
    scale = 10.0 ** rng.uniform(-3, 3, size=width)
    offset = 10.0 ** rng.uniform(*offset_decades, size=width)
    wide = rng.normal(size=(n + 5, 2 * width)) * np.repeat(scale, 2) + np.repeat(offset, 2)
    c_order = np.ascontiguousarray(wide[:n, :width])
    return [
        ("C order", c_order),
        ("F order", np.asfortranarray(c_order)),
        ("strided columns", wide[:n, ::2]),
        ("row prefix", wide[:, :width].copy()),
    ]


def _longdouble_variance(x):
    """Two-pass unbiased variance in extended precision, with the second pass's
    correction for the rounded mean (so offsets cost it no digits)."""
    dev = x.astype(np.longdouble) - x.astype(np.longdouble).mean(axis=0)
    n = x.shape[0]
    return ((dev**2).sum(axis=0) - dev.sum(axis=0) ** 2 / n) / (n - 1)


def _relative_error(got, reference):
    return float(np.max(np.abs(got - reference) / reference))


def _streamed_variance(x, n):
    """The variance of ``x[:n]`` through ``sum_for_plan``: a one-model
    hierarchy whose evaluator returns rows of ``x`` by input row index."""
    model = Model(lambda z: x[z[:, 0].astype(int)], 1.0, "rows", vectorized=True)
    h = ModelHierarchy((model,), (Normal(0.0, 1.0),), output_length=x.shape[1])
    plan = _manual_plan([n], np.ones((1, x.shape[1])))
    stat = STATISTICS["variance"]
    return mfmc_statistic(sum_for_plan(h, plan, _index_samples(n), (stat,)), plan, stat).value


def _check_variance(x, n, bound=2e-14):
    """One value bit for bit in every layout and streamed, within ``bound``
    of the extended-precision reference, whatever the width. Returns that
    value's relative error."""
    evals = NestedEvaluations([x], np.array([x.shape[0]]), 0.0)
    got = STATISTICS["variance"].single_level(evals, 0, n)
    c_order = np.ascontiguousarray(x[:n])
    assert np.array_equal(got, _streamed_variance(c_order, n))
    for other in (c_order, np.asfortranarray(c_order)):
        same = NestedEvaluations([other], np.array([n]), 0.0)
        assert np.array_equal(got, STATISTICS["variance"].single_level(same, 0, n))
    error = _relative_error(got, _longdouble_variance(x[:n]))
    assert error < bound
    return error


@pytest.mark.parametrize("width", [1, 2, 3, 17, 200])
def test_variance_statistic_is_bit_identical_across_layouts_and_streams(width):
    rows_per_block = max(1, _BLOCK_ELEMENTS // width)
    edges = [rows_per_block - 1, rows_per_block, rows_per_block + 1, 3 * rows_per_block + 2]
    rng = np.random.default_rng(width)
    for n in [2, *(e for e in edges if e >= 2)]:
        for _, x in _variance_layouts(rng, n, width):
            # single_level slices its own prefix, so the "row prefix" layout
            # holds 5 more rows than it is asked for
            _check_variance(x, n)


@pytest.mark.parametrize("width", [2, 3, 17, 200])
def test_variance_statistic_keeps_its_digits_under_a_large_offset(width):
    # outputs offset by 1e8-1e10 with a spread of 1e-3-1e3: np.var sums them
    # unshifted and misses the bound the fold keeps
    rng = np.random.default_rng(100 + width)
    n = 3 * max(1, _BLOCK_ELEMENTS // width) + 2
    _, x = _variance_layouts(rng, n, width, offset_decades=(8, 10))[0]
    assert _check_variance(x, n) < 2e-14
    assert _relative_error(np.var(x, axis=0, ddof=1), _longdouble_variance(x)) > 2e-14


_ROW_ORDERS = [
    "ascending",
    "descending",
    "heavy-tailed descending",
    "outlier in row 0",
    "outlier in a later block",
    "step between blocks",
]


def _reordered_rows(width, case):
    """12 blocks of outputs whose row order is hard on a block-merged variance."""
    e = max(1, _BLOCK_ELEMENTS // width)
    rng = np.random.default_rng(width)
    if case == "heavy-tailed descending":
        return np.sort(rng.lognormal(size=(12 * e, width)), axis=0)[::-1]
    _, x = _variance_layouts(rng, 12 * e, width)[0]
    if case == "ascending":
        return np.sort(x, axis=0)
    if case == "descending":
        return np.sort(x, axis=0)[::-1]
    if case == "outlier in row 0":
        x[0] += 1e6
    elif case == "outlier in a later block":
        x[5 * e + 3] += 1e6
    else:
        x[6 * e :] += 1e3
    return x


@pytest.mark.parametrize("width", [1, 2, 17, 200])
@pytest.mark.parametrize("case", _ROW_ORDERS)
def test_variance_statistic_keeps_its_digits_in_adversarial_row_orders(width, case):
    # Sorted rows put every later block's mean away from the running mean,
    # so they get a bound of their own; rows in sampling order keep 2e-14.
    # A first-block mean summed row after row reads 1.9e-13 on the
    # heavy-tailed descending rows at width 2 (above 1e-13 on 4 of 8 seeds).
    x = _reordered_rows(width, case)
    sorted_rows = case.endswith(("ascending", "descending"))
    _check_variance(x, len(x), bound=1e-13 if sorted_rows else 2e-14)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 3000),
    width=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    layout=st.integers(0, 3),
    offset_decades=st.sampled_from([(-3, 3), (8, 10)]),
)
def test_variance_statistic_matches_reference_property(n, width, seed, layout, offset_decades):
    _, x = _variance_layouts(np.random.default_rng(seed), n, width, offset_decades)[layout]
    _check_variance(x, n)


def test_variance_statistic_memory_is_bounded():
    x = np.random.default_rng(4).normal(size=(20_000, 200))
    evals = NestedEvaluations([x], np.array([20_000]), 0.0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        STATISTICS["variance"].single_level(evals, 0, 20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # np.var's squared deviations alone would be 20,000 x 200 x 8 bytes = 32 MB
    assert peak < 4e6


def test_large_sample_ishigami_variance():
    h = ishigami_hierarchy()
    s = draw_inputs(h, 1_000_000, 55)
    y = h.models[0].evaluate_batch(whole_draw(s)[0])
    from mfmc.hierarchy import ishigami_variance

    assert abs(_single_level("variance", y)[0] - ishigami_variance()) < 0.1


def test_sobol_inactive_coordinate_total_effect_is_exactly_zero():
    def f(z):
        return (z[:, 0] + 2.0 * z[:, 1])[:, None]  # coordinate 2 inactive

    h = ModelHierarchy(
        (Model(f, 1.0, "f", vectorized=True),),
        (Uniform(0, 1), Uniform(0, 1), Uniform(0, 1)),
    )
    block = build_sobol_block(h, 64, 7)
    y = evaluate_nested(h, block, [64]).outputs[0]
    assert _single_level("sobol-total", y)[2] == 0.0


def _sobol_normalized(y):
    """(main, total) index estimates from one model's held Sobol-block
    outputs, each divided by the variance of the base column."""
    v = np.var(y[:, 0], ddof=1)
    return _single_level("sobol-main", y) / v, _single_level("sobol-total", y) / v


def test_sobol_additive_single_coordinate_main_effect():
    def f(z):
        return z[:, [1]]

    h = ModelHierarchy(
        (Model(f, 1.0, "f", vectorized=True),),
        (Uniform(-1, 1), Uniform(-1, 1)),
    )
    block = build_sobol_block(h, 40_000, 11)
    y = evaluate_nested(h, block, [40_000]).outputs[0]
    main, total = _sobol_normalized(y)
    assert main[1] == pytest.approx(1.0, abs=0.02)
    assert main[0] == pytest.approx(0.0, abs=0.02)
    assert total[1] == pytest.approx(1.0, abs=0.02)


def test_sobol_ishigami_moderate_sample_sanity():
    from mfmc.hierarchy import ishigami_sobol_indices

    ishigami = ishigami_hierarchy()
    h = ModelHierarchy(ishigami.models[:1], ishigami.input_distributions)
    block = build_sobol_block(h, 200_000, 23)
    y = evaluate_nested(h, block, [200_000]).outputs[0]
    main, total = _sobol_normalized(y)
    main_ref, total_ref = ishigami_sobol_indices()
    assert np.allclose(main, main_ref, atol=0.02)
    assert np.allclose(total, total_ref, atol=0.02)


def test_plugin_expectation_matches_dedicated_combiner():
    h = ishigami_hierarchy()
    stats = estimate_moment_stats(evaluate_nested(h, draw_inputs(h, 80, 9), [80] * 3))
    plan = optimal_allocation(stats, CostModel(h.costs), 30.0)
    samples = draw_inputs(h, int(plan.m.max()), 10)
    evals = evaluate_for_plan(h, plan, samples)
    a = mfmc_expectation(evals, plan)
    b = mfmc_statistic(evals, plan, STATISTICS["expectation"])
    assert np.array_equal(a.value, b.value)


def test_single_model_plan_reduces_to_single_level():
    h = ishigami_hierarchy()
    plan = _manual_plan([40, 0, 0], [[1.0], [0.0], [0.0]])
    samples = draw_inputs(h, 40, 2)
    evals = evaluate_for_plan(h, plan, samples)
    rep = mfmc_statistic(evals, plan, STATISTICS["variance"])
    y = h.models[0].evaluate_batch(whole_draw(samples)[0][:40])[:, 0]
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
    rep = mfmc_statistic(evals, plan, EXPECTATION)
    assert np.isfinite(rep.value[0])
    assert evals.cost == pytest.approx(4 * 1.0 + 12 * 0.1)


def test_permutation_within_prefix_blocks_leaves_estimate_unchanged():
    rng = np.random.default_rng(8)
    m = np.array([4, 10, 25])
    cols = [rng.normal(size=m[i]) for i in range(3)]
    evals = _evals(m, *cols)
    plan = _manual_plan(m, [1.0, 0.8, 0.6])
    base = mfmc_statistic(evals, plan, EXPECTATION).value[0]
    # permute rows inside each block bounded by the prefix structure
    perm_cols = []
    for i, col in enumerate(cols):
        col = col.copy()
        bounds = [0] + [mm for mm in m if mm <= len(col)]
        for lo, hi in zip(bounds, bounds[1:]):
            seg = col[lo:hi]
            col[lo:hi] = seg[rng.permutation(len(seg))]
        perm_cols.append(col)
    permuted = mfmc_statistic(_evals(m, *perm_cols), plan, EXPECTATION).value[0]
    assert permuted == pytest.approx(base, rel=1e-10)


def test_bridged_identity_matches_plain_expectation():
    h = ishigami_hierarchy()
    stats = estimate_q_stats(evaluate_nested(h, draw_inputs(h, 60, 3), [60] * 3), "expectation")
    plan = optimal_allocation(stats, CostModel(h.costs), 20.0)
    samples = draw_inputs(h, int(plan.m.max()), 14)
    evals = evaluate_for_plan(h, plan, samples)
    identity = [IdentityBridge(), IdentityBridge()]
    a = mfmc_statistic(apply_bridges(evals, identity), plan, EXPECTATION)
    b = mfmc_statistic(evals, plan, EXPECTATION)
    assert np.array_equal(a.value, b.value)
    stat = STATISTICS["expectation"]
    streamed = sum_for_plan(h, plan, samples, (stat,), bridges=identity)
    assert np.array_equal(mfmc_statistic(streamed, plan, stat).value, b.value)


def test_bridged_estimation_requires_fitted_bridges():
    h = ishigami_hierarchy()
    plan = _manual_plan([3, 6, 9], [[1.0], [1.0], [1.0]])
    evals = evaluate_for_plan(h, plan, draw_inputs(h, 9, 4))
    unfitted = [GaussianProcessBridge(), GaussianProcessBridge()]
    with pytest.raises(NotFittedError):
        mfmc_statistic(apply_bridges(evals, unfitted), plan, EXPECTATION)
    with pytest.raises(NotFittedError):
        sum_for_plan(h, plan, draw_inputs(h, 9, 4), (STATISTICS["expectation"],), bridges=unfitted)
    field = synthetic_field_hierarchy(3)
    with pytest.raises(ValueError, match="scalar outputs only"):
        sum_for_plan(
            field, plan, draw_inputs(field, 9, 4), (STATISTICS["expectation"],),
            bridges=[IdentityBridge(), IdentityBridge()],
        )


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
        est[r] = mfmc_statistic(evals, plan, EXPECTATION).value[0]
    emp = float(np.mean(est**2))  # true mean is 0
    assert emp == pytest.approx(plan.predicted_mse, rel=0.5)
    assert plan.predicted_mse == pytest.approx(
        telescoping_mse([1.0, 1.0], [1.0, 0.95], plan.m), rel=1e-12
    )


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
        plain[r] = np.var(h.models[0].evaluate_batch(whole_draw(s)[0])[:, 0], ddof=1)
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
        values[r] = mfmc_statistic(evals, plan, EXPECTATION).value
    mean = values.mean(axis=0)
    stderr = values.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(mean) < 4 * stderr)


class _RowWise:
    """Width-p outputs that depend only on the input row, built from exact ufuncs."""

    def __init__(self, width, seed):
        rng = np.random.default_rng(seed)
        self.a = rng.normal(size=(3, width)) * 10.0 ** rng.uniform(-3, 3, size=width)
        self.offset = 10.0 ** rng.uniform(-3, 3, size=width)

    def __call__(self, z):
        return (
            self.offset
            + self.a[0] * z[:, 0:1]
            + self.a[1] * z[:, 1:2] ** 2
            + self.a[2] * z[:, 0:1] * z[:, 2:3]
        )


def _row_wise_hierarchy(width):
    models = tuple(
        Model(_RowWise(width, seed), cost, f"rw{seed}", vectorized=True)
        for seed, cost in zip(range(3), (1.0, 0.1, 0.01))
    )
    return ModelHierarchy(models, (Normal(0.0, 1.0),) * 3, output_length=width)


def _streamed_and_materialized(h, m, seed, stat_label="expectation"):
    plan = _manual_plan(m, np.random.default_rng(seed).uniform(0.2, 1.2, (3, h.output_length)))
    samples = draw_inputs(h, int(max(m)), seed)
    stat = STATISTICS[stat_label]
    streamed = sum_for_plan(h, plan, samples, (stat,))
    materialized = evaluate_for_plan(h, plan, samples)
    return (
        mfmc_statistic(streamed, plan, stat),
        mfmc_statistic(materialized, plan, stat),
        streamed,
        materialized,
    )


def _edge_counts(width, case):
    e = max(1, _BLOCK_ELEMENTS // width)
    return {
        "around a block edge": [e - 1, e, e + 1],
        "small first stop": [2, e + 1, 2 * e - 1],
        "equal counts": [e, e, 2 * e + 1],
        "dropped middle model": [e + 1, 0, 3 * e - 1],
    }[case]


_EDGE_CASES = ["around a block edge", "small first stop", "equal counts", "dropped middle model"]


@pytest.mark.parametrize("width", [1, 2, 3, 17, 200])
@pytest.mark.parametrize("case", _EDGE_CASES)
def test_streamed_expectation_is_bit_identical_to_materialized(width, case):
    m = _edge_counts(width, case)
    if case == "small first stop":
        m[0] = 1
    a, b, streamed, materialized = _streamed_and_materialized(_row_wise_hierarchy(width), m, width)
    assert np.array_equal(a.value, b.value)
    assert streamed.cost == materialized.cost
    assert np.array_equal(streamed.m, materialized.m)
    fold = STATISTICS["expectation"].fold
    for i, s in streamed.sums:
        assert np.array_equal(streamed.state(i, s, fold), materialized.state(i, s, fold))


@pytest.mark.parametrize("width", [1, 2, 3, 17, 200])
@pytest.mark.parametrize("case", _EDGE_CASES)
def test_streamed_variance_is_bit_identical_to_materialized(width, case):
    m = _edge_counts(width, case)
    a, b, streamed, materialized = _streamed_and_materialized(
        _row_wise_hierarchy(width), m, width, "variance"
    )
    assert np.array_equal(a.value, b.value)
    assert streamed.cost == materialized.cost
    assert np.array_equal(streamed.m, materialized.m)
    fold = STATISTICS["variance"].fold
    for i, s in streamed.sums:
        for got, held in zip(streamed.state(i, s, fold), materialized.state(i, s, fold)):
            assert np.array_equal(got, held)
    # the first model's estimate is its own variance: check it against np.var
    top = STATISTICS["variance"].single_level(streamed, 0, m[0])
    assert np.allclose(top, np.var(materialized.outputs[0][: m[0]], axis=0, ddof=1), rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    width=st.integers(1, 300),
    counts=st.lists(st.integers(1, 3000), min_size=3, max_size=3),
    drop_middle=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_streamed_expectation_matches_materialized_property(width, counts, drop_middle, seed):
    m = sorted(counts)
    if drop_middle:
        m[1] = 0
    a, b, streamed, materialized = _streamed_and_materialized(_row_wise_hierarchy(width), m, seed)
    assert np.array_equal(a.value, b.value)
    assert streamed.cost == materialized.cost


@settings(max_examples=25, deadline=None)
@given(
    width=st.integers(1, 300),
    counts=st.lists(st.integers(2, 3000), min_size=3, max_size=3),
    drop_middle=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_streamed_variance_matches_materialized_property(width, counts, drop_middle, seed):
    m = sorted(counts)
    if drop_middle:
        m[1] = 0
    a, b, streamed, materialized = _streamed_and_materialized(
        _row_wise_hierarchy(width), m, seed, "variance"
    )
    assert np.array_equal(a.value, b.value)
    assert streamed.cost == materialized.cost


def test_streamed_expectation_matches_materialized_synthetic_field():
    h = synthetic_field_hierarchy(200)
    a, b, _, _ = _streamed_and_materialized(h, [700, 4000, 20_000], 3)
    assert np.array_equal(a.value, b.value)


def test_streamed_variance_matches_materialized_synthetic_field():
    h = synthetic_field_hierarchy(200)
    a, b, _, _ = _streamed_and_materialized(h, [700, 4000, 20_000], 3, "variance")
    assert np.array_equal(a.value, b.value)


def test_sobol_single_level_matches_direct_formulas():
    ishigami = ishigami_hierarchy()
    h = ModelHierarchy(ishigami.models[:1], ishigami.input_distributions)
    y = evaluate_nested(h, build_sobol_block(h, 5000, 12), [5000]).outputs[0]
    m, base, second, mixed = len(y), y[:, 0], y[:, 1], y[:, 2:].T
    main = [np.sum((base - base.mean()) * (yj - yj.mean())) / (m - 1) for yj in mixed]
    total = [np.sum((second - yj) ** 2) / (2 * m) for yj in mixed]
    assert np.allclose(_single_level("sobol-main", y), main, rtol=1e-12, atol=1e-14)
    assert np.allclose(_single_level("sobol-total", y), total, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("c", [1.0, 1e2, 1e4, 1e6])
def test_sobol_main_is_invariant_to_a_shift_of_the_outputs(c):
    # The main-effect estimate is a sample covariance: adding c to every
    # output moves it only by the rounding of y + c, not by c times the
    # difference of two sample means.
    ishigami = ishigami_hierarchy()
    h = ModelHierarchy(ishigami.models[:1], ishigami.input_distributions)
    y = evaluate_nested(h, build_sobol_block(h, 1000, 17), [1000]).outputs[0]
    base = _single_level("sobol-main", y)
    shifted = _single_level("sobol-main", y + c)
    rounding = np.finfo(float).eps * c * y.std()
    assert np.max(np.abs(shifted - base)) < 16 * rounding


def _sobol_streamed_and_held(m, stat_label, seed=5):
    h = ishigami_hierarchy()
    plan = _manual_plan(m, np.random.default_rng(seed).uniform(0.2, 1.2, (3, 3)))
    block = build_sobol_block(h, int(max(m)), seed)
    stat = STATISTICS[stat_label]
    streamed = sum_for_plan(h, plan, block, (stat,))
    held = evaluate_for_plan(h, plan, block)
    return streamed, held, mfmc_statistic(streamed, plan, stat), mfmc_statistic(held, plan, stat)


def test_a_plans_block_is_charged_the_plans_budget():
    # a plan solved at costs x (d + 2) spends its budget on a Sobol block,
    # and every evaluation of that block charges d + 2 runs per row unasked
    h = ishigami_hierarchy()
    stat = STATISTICS["sobol-total"]
    stats = estimate_q_stats(evaluate_nested(h, build_sobol_block(h, 100, 1), [100] * 3), stat)
    plan = optimal_allocation(stats, CostModel(h.costs * 5.0), 40.0, min_samples=2)
    block = build_sobol_block(h, int(plan.m.max()), 2)
    assert plan.budget_used == 40.0
    assert evaluate_for_plan(h, plan, block).cost == plan.budget_used
    assert sum_for_plan(h, plan, block, (stat,)).cost == plan.budget_used


@pytest.mark.parametrize("stat_label", ["sobol-main", "sobol-total"])
@pytest.mark.parametrize("case", _EDGE_CASES)
def test_streamed_sobol_is_bit_identical_to_held(stat_label, case):
    m = _edge_counts(5, case)  # a Sobol block on ishigami is 5 columns wide
    streamed, held, a, b = _sobol_streamed_and_held(m, stat_label)
    assert np.array_equal(a.value, b.value)
    assert streamed.cost == held.cost == 5.0 * np.dot(ishigami_hierarchy().costs, m)
    fold = STATISTICS[stat_label].fold
    for i, s in streamed.sums:
        got, want = streamed.state(i, s, fold), held.state(i, s, fold)
        if stat_label == "sobol-total":
            got, want = [got], [want]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def _row_twin(model):
    """``model`` called on one input row at a time, through the row loop of
    ``Model.evaluate_batch`` (``vectorized=False``)."""
    return Model(
        lambda row: model.evaluator(row[None, :])[0],
        model.cost,
        model.label,
        input_dimension=model.input_dimension,
    )


@pytest.mark.parametrize(
    "h", [ishigami_hierarchy(), synthetic_field_hierarchy(3)], ids=["ishigami", "field"]
)
@pytest.mark.parametrize("stat_label", ["expectation", "variance"])
def test_row_loop_evaluation_is_bit_identical_to_vectorized(h, stat_label):
    twin = ModelHierarchy(
        tuple(_row_twin(model) for model in h.models),
        h.input_distributions,
        output_length=h.output_length,
    )
    m = [7, 30, 61]
    samples = draw_inputs(h, max(m), 5)
    for got, want in zip(
        evaluate_nested(twin, samples, m).outputs, evaluate_nested(h, samples, m).outputs
    ):
        assert got.shape == want.shape and np.array_equal(got, want)
    plan = _manual_plan(m, np.full((3, h.output_length), 0.7))
    stat = STATISTICS[stat_label]
    streamed, vectorized = (sum_for_plan(x, plan, samples, (stat,)) for x in (twin, h))
    assert streamed.sums.keys() == vectorized.sums.keys()
    for i, s in streamed.sums:
        got, want = streamed.state(i, s, stat.fold), vectorized.state(i, s, stat.fold)
        if stat_label == "expectation":
            got, want = [got], [want]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert np.array_equal(
        mfmc_statistic(streamed, plan, stat).value, mfmc_statistic(vectorized, plan, stat).value
    )


def _quintic_bridges(n_train=30):
    h = quintic_hierarchy()
    train = evaluate_nested(h, draw_inputs(h, n_train, 1), [n_train] * 3)
    hf = train.outputs[0][:, 0]
    return [GaussianProcessBridge().fit(train.outputs[i][:, 0], hf) for i in (1, 2)]


@pytest.mark.parametrize("stat_label", ["expectation", "variance"])
@pytest.mark.parametrize(
    "m",
    [[100, 65_535, 65_537], [100, 0, 2 * 65_536 + 1], [65_536, 65_536, 65_600]],
    ids=["lone last row", "two blocks and a lone row, middle dropped", "equal counts"],
)
def test_streamed_bridged_is_bit_identical_to_held(stat_label, m):
    # a streamed grid of row blocks can end in a lone row, which
    # GaussianProcessBridge must predict as it does inside a block
    h = quintic_hierarchy()
    bridges = _quintic_bridges()
    plan = _manual_plan(m, [[1.0], [0.8], [0.6]])
    samples = draw_inputs(h, max(m), 8)
    stat = STATISTICS[stat_label]
    streamed = sum_for_plan(h, plan, samples, (stat,), bridges=bridges)
    held = evaluate_for_plan(h, plan, samples)
    value = mfmc_statistic(apply_bridges(held, bridges), plan, stat).value
    assert np.array_equal(mfmc_statistic(streamed, plan, stat).value, value)
    assert streamed.cost == held.cost


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_streamed_bridged_blocks_name_first_non_finite_sample(bad):
    e = _BLOCK_ELEMENTS
    n, row = 2 * e + 7, e + 5
    models = (
        Model(_BadRows(1), 1.0, "hf", vectorized=True),
        Model(_BadRows(1, [(row, 0, bad), (n - 1, 0, np.nan)]), 0.1, "lo", vectorized=True),
    )
    h = ModelHierarchy(models, (Normal(0.0, 1.0),))
    x = np.linspace(0.0, 2.0, 20)
    bridge = GaussianProcessBridge().fit(x, x**2)
    plan = _manual_plan([10, n], np.ones((2, 1)))
    with pytest.raises(EvaluationError) as info:
        sum_for_plan(h, plan, _index_samples(n), (STATISTICS["expectation"],), bridges=[bridge])
    err = info.value
    assert (err.model_index, err.model_label, err.sample_index) == (1, "lo", row)


def _index_sobol_block(n):
    """A d = 2 Sobol block whose input rows tell their sample row and set:
    base rows are (r, 10) and second rows (-r - 1, 20), so the mixed sets
    are (r, 20) and (-r - 1, 10)."""
    r = np.arange(n, dtype=float)
    return RowSource(
        np.column_stack([r, np.full(n, 10.0)]), np.column_stack([-r - 1, np.full(n, 20.0)])
    )


def _row_and_set(z):
    """(sample row, set) of rows of ``_index_sobol_block``'s sets, the sets
    numbered as output columns: base 0, second 1, mixed 2 and 3."""
    from_base = z[:, 0] >= 0
    row = np.where(from_base, z[:, 0], -z[:, 0] - 1)
    tag = z[:, 1] == 10
    return row, np.select([from_base & tag, ~from_base & ~tag, from_base], [0, 1, 2], 3)


@pytest.mark.parametrize("stat_label", ["sobol-main", "sobol-total"])
@pytest.mark.parametrize("column", [0, 1, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_streamed_sobol_names_first_non_finite_sample(stat_label, column, bad):
    # the total effects do not depend on the base column, yet a bad base
    # output must be named as a bad mixed one is
    e = _BLOCK_ELEMENTS // 4  # rows per block of a 4-column (d = 2) Sobol block
    n, row = 3 * e + 7, 2 * e + 5

    def lo(z):
        out = np.ones(len(z))
        rows, sets = _row_and_set(z)
        out[(rows == row) & (sets == column)] = bad
        out[rows == n - 1] = np.nan
        return out

    models = (
        Model(lambda z: np.ones(len(z)), 1.0, "hf", vectorized=True),
        Model(lo, 0.1, "lo", vectorized=True),
    )
    h = ModelHierarchy(models, (Normal(0.0, 1.0), Normal(0.0, 1.0)))
    plan = _manual_plan([10, n], np.ones((2, 2)))
    block = _index_sobol_block(n)
    for evaluate in (lambda *args: sum_for_plan(*args, (STATISTICS[stat_label],)), evaluate_for_plan):
        with pytest.raises(EvaluationError) as info:
            evaluate(h, plan, block)
        assert (info.value.model_index, info.value.sample_index) == (1, row)


# Bytes of one row block of scalar outputs, or of one model's outputs on
# 5-column Sobol blocks (_BLOCK_ELEMENTS float64 values either way).
_ROW_BLOCK_BYTES = 8 * _BLOCK_ELEMENTS


@pytest.mark.parametrize("stat_label", ["sobol-main", "sobol-total"])
def test_streamed_sobol_memory_is_bounded(stat_label):
    h = ishigami_hierarchy()
    m = [20_000, 80_000, 200_000]
    plan = _manual_plan(m, np.ones((3, 3)))
    stat = STATISTICS[stat_label]

    def run():
        block = build_sobol_block(h, max(m), 3)
        return mfmc_statistic(sum_for_plan(h, plan, block, (stat,)), plan, stat)

    peak = traced_peak(run)
    held = sum(m) * 5 * 8
    assert held > 20 * _ROW_BLOCK_BYTES  # what holding the outputs would take
    # the base and second sets alone would take 2 x 4.8 MB
    assert peak < 6 * _ROW_BLOCK_BYTES  # inputs, outputs and folds together


@pytest.mark.parametrize("stat_label", ["expectation", "variance"])
def test_streamed_bridged_memory_is_bounded(stat_label):
    h = quintic_hierarchy()
    bridges = _quintic_bridges()
    m = [20_000, 100_000, 400_000]
    plan = _manual_plan(m, np.ones((3, 1)))
    stat = STATISTICS[stat_label]

    def run():
        samples = draw_inputs(h, max(m), 4)
        return mfmc_statistic(sum_for_plan(h, plan, samples, (stat,), bridges=bridges), plan, stat)

    peak = traced_peak(run)
    held = sum(m) * 8
    assert held > 6 * _ROW_BLOCK_BYTES  # the raw outputs alone, before their bridged copies
    # the inputs alone would take 9.6 MB
    assert peak < 6 * _ROW_BLOCK_BYTES  # inputs, outputs and folds together


class _BadRows:
    """Width-p ones, with (row, column, value) overrides; the input is the row index."""

    def __init__(self, width, bad=()):
        self.width = width
        self.bad = bad

    def __call__(self, z):
        out = np.ones((z.shape[0], self.width))
        for row, col, value in self.bad:
            out[z[:, 0] == row, col] = value
        return out


def _index_samples(n):
    return RowSource(np.arange(n, dtype=float)[:, None])


def _check_first_non_finite_named(stat_label, width, where, bad, case):
    e = max(1, _BLOCK_ELEMENTS // width)
    n = 3 * e + 7
    row = {"later block start": 2 * e, "inside a later block": 2 * e + 5, "last row": n - 1}[where]
    # a later bad value, and one in a later or a dropped model, must not be the one reported
    later = [(n - 1, 0, np.nan)] if row < n - 1 else []
    reported = [(row, width // 2, bad), *later]
    if case == "all models":
        m, mid_bad, lo_bad, expected = [e // 2, n, n], reported, [(0, 0, np.nan)], (1, "mid")
    else:
        m, mid_bad, lo_bad, expected = [e // 2, 0, n], [(0, 0, np.nan)], reported, (2, "lo")
    models = (
        Model(_BadRows(width), 1.0, "hf", vectorized=True),
        Model(_BadRows(width, mid_bad), 0.1, "mid", vectorized=True),
        Model(_BadRows(width, lo_bad), 0.01, "lo", vectorized=True),
    )
    h = ModelHierarchy(models, (Normal(0.0, 1.0),), output_length=width)
    plan = _manual_plan(m, np.ones((3, width)))
    stat = STATISTICS[stat_label]
    errors = []
    for evaluate in (lambda *args: sum_for_plan(*args, (stat,)), evaluate_for_plan):
        with pytest.raises(EvaluationError) as info:
            evaluate(h, plan, _index_samples(n))
        errors.append(info.value)
    for err in errors:
        assert (err.model_index, err.model_label, err.sample_index) == (*expected, row)


@pytest.mark.parametrize("width", [1, 2, 200])
@pytest.mark.parametrize("where", ["later block start", "inside a later block", "last row"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("case", ["all models", "dropped middle model"])
def test_streamed_expectation_names_first_non_finite_sample(width, where, bad, case):
    _check_first_non_finite_named("expectation", width, where, bad, case)


@pytest.mark.parametrize("width", [1, 2, 200])
@pytest.mark.parametrize("where", ["later block start", "inside a later block", "last row"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("case", ["all models", "dropped middle model"])
def test_streamed_variance_names_first_non_finite_sample(width, where, bad, case):
    _check_first_non_finite_named("variance", width, where, bad, case)


class _Overflowing:
    """Finite outputs near +-1e308 whose folded sums overflow: columns of one
    sign (column sums overflow) and columns alternating in sign by row (the
    variance's shifted rows overflow); the input is the row index."""

    def __init__(self, width, seed):
        self.width = width
        self.noise = np.random.default_rng(seed).uniform(0.5, 1.0, size=(1, width))

    def __call__(self, z):
        rows = z[:, :1]
        sign = np.where(np.arange(self.width) % 2 == 0, 1.0, (-1.0) ** rows)
        return 1e308 * sign * (self.noise - 1e-3 * np.sin(rows))


def _overflowing_hierarchy(width):
    models = tuple(
        Model(_Overflowing(width, seed), cost, f"big{seed}", vectorized=True)
        for seed, cost in zip(range(3), (1.0, 0.1, 0.01))
    )
    return ModelHierarchy(models, (Normal(0.0, 1.0),), output_length=width)


def _count_scans(monkeypatch):
    """Count the element-by-element finiteness scans of ``sampling._check_finite``."""
    calls = []
    scan = mfmc.sampling._check_finite

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return scan(*args, **kwargs)

    monkeypatch.setattr(mfmc.sampling, "_check_finite", spy)
    return calls


@pytest.mark.parametrize("stat_label", ["expectation", "variance"])
def test_streamed_finite_blocks_are_not_scanned(stat_label, monkeypatch):
    h = synthetic_field_hierarchy(200)
    m = [700, 4000, 20_000]
    plan = _manual_plan(m, np.ones((3, 200)))
    samples = draw_inputs(h, max(m), 3)
    calls = _count_scans(monkeypatch)
    sum_for_plan(h, plan, samples, (STATISTICS[stat_label],))
    assert calls == []


@pytest.mark.parametrize("width", [2, 200])
@pytest.mark.parametrize("stat_label", ["expectation", "variance"])
def test_streamed_overflowing_finite_outputs_fold_as_held(width, stat_label, monkeypatch):
    # a non-finite state from finite outputs is scanned, found clean, and folded on
    e = max(1, _BLOCK_ELEMENTS // width)
    m = [e // 2, e + 3, 3 * e + 1]
    h = _overflowing_hierarchy(width)
    plan = _manual_plan(m, np.ones((3, width)))
    samples = _index_samples(max(m))
    stat = STATISTICS[stat_label]
    calls = _count_scans(monkeypatch)
    # the fold keeps numpy's overflow warning
    with pytest.warns(RuntimeWarning, match="overflow"):
        streamed = sum_for_plan(h, plan, samples, (stat,))
    assert calls
    held = evaluate_for_plan(h, plan, samples)
    # held rows fold on reading, and the combine takes inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = mfmc_statistic(streamed, plan, stat), mfmc_statistic(held, plan, stat)
        held_states = {key: held.state(*key, stat.fold) for key in streamed.sums}
    assert not np.isfinite(a.value).all()
    assert np.array_equal(a.value, b.value, equal_nan=True)
    for key, want in held_states.items():
        got = streamed.sums[key][stat.fold]
        if stat_label == "expectation":
            got, want = [got], [want]
        assert all(np.array_equal(g, w, equal_nan=True) for g, w in zip(got, want))


def _check_wrong_output_shape_named(stat_label):
    models = (
        Model(_BadRows(2), 1.0, "hf", vectorized=True),
        Model(lambda z: np.ones((min(z.shape[0], 10), 2)), 0.1, "short", vectorized=True),
    )
    h = ModelHierarchy(models, (Normal(0.0, 1.0),), output_length=2)
    plan = _manual_plan([20, 50], np.ones((2, 2)))
    with pytest.raises(EvaluationError, match="shape") as info:
        sum_for_plan(h, plan, _index_samples(50), (STATISTICS[stat_label],))
    assert (info.value.model_index, info.value.model_label) == (1, "short")


def test_streamed_expectation_names_model_with_wrong_output_shape():
    _check_wrong_output_shape_named("expectation")


def test_streamed_variance_names_model_with_wrong_output_shape():
    _check_wrong_output_shape_named("variance")
