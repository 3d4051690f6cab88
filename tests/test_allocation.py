import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_best_two,
    brute_force_counts,
    exact_counts,
    exhaustive_allocation,
    random_admissible_instance,
    telescoping_mse,
)
from mfmc.allocation import (
    AggregatedStats,
    CostModel,
    aggregate_vector_stats,
    budget_for_tolerance,
    optimal_allocation,
    predicted_mse,
)
from mfmc.errors import DegenerateStatsError, InfeasibleBudgetError
from mfmc.hierarchy import synthetic_field_exact_moments
from mfmc.pilot import PilotStats, pilot_stats_from_exact


def _plan(sigma, rho, w, budget, **kw):
    return optimal_allocation(pilot_stats_from_exact(sigma, rho), CostModel(w), budget, **kw)


def test_two_model_hand_example():
    plan = _plan([2.0, 2.0], [1.0, 0.9], [1.0, 0.01], 100.0)
    # r2 = sqrt(0.81 / (0.01 * 0.19)), m1 = 100 / (1 + 0.01 r2)
    r2 = math.sqrt(0.81 / (0.01 * 0.19))
    assert plan.r[1] == pytest.approx(r2, rel=1e-12)
    assert r2 == pytest.approx(20.647, abs=1e-3)
    assert plan.m_real[0] == pytest.approx(100.0 / (1.0 + 0.01 * r2), rel=1e-12)
    assert plan.m_real[0] == pytest.approx(82.886, abs=1e-2)
    assert plan.m_real[1] == pytest.approx(plan.m_real[0] * r2, rel=1e-12)
    assert plan.m_real[1] == pytest.approx(1711.4, abs=0.5)
    assert plan.alpha[1, 0] == pytest.approx(0.9)
    assert plan.budget_used <= 100.0 + 1e-9


def test_single_model_reduces_to_plain_sampling():
    plan = _plan([2.0], [1.0], [1.0], 37.7)
    assert plan.m[0] == 37
    assert plan.retained.tolist() == [True]
    assert plan.predicted_mse == pytest.approx(4.0 / 37.0)


def test_predicted_mse_hand_values():
    stats = pilot_stats_from_exact([2.0, 2.0], [1.0, 0.9])
    base = _plan([2.0, 2.0], [1.0, 0.9], [1.0, 0.01], 100.0)
    plan = base
    plan.m = np.array([10, 100])
    plan.m_real = np.array([10.0, 100.0])

    plan.alpha = np.array([[1.0], [0.9]])
    assert predicted_mse(plan, stats) == pytest.approx(0.1084, abs=1e-12)
    plan.alpha = np.array([[1.0], [0.5]])
    assert predicted_mse(plan, stats) == pytest.approx(0.166, abs=1e-12)


def test_predicted_mse_single_model_plain_variance():
    stats = pilot_stats_from_exact([2.0], [1.0])
    plan = _plan([2.0], [1.0], [1.0], 10.0)
    assert predicted_mse(plan, stats) == pytest.approx(0.4)


def test_predicted_mse_requires_high_fidelity_samples():
    stats = pilot_stats_from_exact([2.0, 1.0], [1.0, 0.9])
    plan = _plan([2.0, 1.0], [1.0, 0.9], [1.0, 0.1], 20.0)
    plan.m = np.array([0, 10])
    with pytest.raises(ValueError):
        predicted_mse(plan, stats)


def _cost_ratio(stats, costs):
    """Cost of meeting a tolerance with the models as given, relative to plain
    sampling of model 0 (the closed-form ratio behind ``budget_for_tolerance``)."""
    eps = 0.1
    return budget_for_tolerance(stats, costs, eps) * eps**2 / (costs.w[0] * stats.sigma[0, 0] ** 2)


def test_cost_ratio_values():
    w = CostModel([1.0])
    assert _cost_ratio(pilot_stats_from_exact([2.0], [1.0]), w) == pytest.approx(1.0, rel=1e-12)
    stats = pilot_stats_from_exact([2.0, 2.0], [1.0, 0.95])
    ratio = _cost_ratio(stats, CostModel([1.0, 0.01]))
    expected = (math.sqrt(1 - 0.95**2) + math.sqrt(0.01 * 0.95**2)) ** 2
    assert ratio == pytest.approx(expected, rel=1e-12)
    assert ratio == pytest.approx(0.1659, abs=1e-4)


def test_cost_ratio_can_exceed_one():
    # an equally-expensive companion at rho^2 = 1/2 doubles the bound:
    # (sqrt(1/2) + sqrt(1/2))^2 = 2, which is why allocation must drop it
    stats = pilot_stats_from_exact([1.0, 1.0], [1.0, math.sqrt(0.5)])
    ratio = _cost_ratio(stats, CostModel([1.0, 1.0]))
    assert ratio == pytest.approx(2.0, rel=1e-12)
    plan = optimal_allocation(stats, CostModel([1.0, 1.0]), 50.0)
    assert plan.retained.tolist() == [True, False]
    assert plan.m.tolist() == [50, 0]


def test_aggregate_hand_example():
    sigma = np.array([[1.0, math.sqrt(3.0)]])
    rho = np.array([[1.0, 1.0], [math.sqrt(0.9), math.sqrt(0.5)]])
    stats = PilotStats("raw", np.vstack([sigma, sigma]), rho, 10)
    agg = aggregate_vector_stats(stats, np.array([1.0, 1.0]))
    assert agg.sigma_bar_sq == pytest.approx(4.0)
    assert agg.rho_bar_sq[1] == pytest.approx(0.6)


def test_aggregate_scalar_reduction_is_identity():
    stats = pilot_stats_from_exact([2.0, 1.5], [1.0, 0.8])
    agg = aggregate_vector_stats(stats, np.array([1.0]))
    assert agg.sigma_bar_sq == pytest.approx(4.0)
    assert agg.rho_bar_sq[1] == pytest.approx(0.64)


def test_aggregate_synthetic_field_closed_form():
    n = 7
    sigma, rho = synthetic_field_exact_moments(n)
    stats = pilot_stats_from_exact(sigma, rho)
    agg = aggregate_vector_stats(stats)
    x = np.arange(1, n + 1) / n
    var1 = 1.0 + 0.01 * x**2
    assert agg.sigma_bar_sq == pytest.approx(var1.sum(), rel=1e-12)
    assert agg.rho_bar_sq[1] == pytest.approx(n / var1.sum(), rel=1e-12)
    assert agg.rho_bar_sq[2] == pytest.approx(np.sin(np.pi * x) ** 2 @ np.ones(n) / var1.sum(), rel=1e-12)


def test_aggregate_rejects_all_degenerate():
    stats = PilotStats("raw", np.zeros((2, 2)), np.full((2, 2), np.nan), 10,
                       degenerate=np.array([True, True]))
    with pytest.raises(DegenerateStatsError):
        aggregate_vector_stats(stats)


def test_infeasible_budget_raises():
    with pytest.raises(InfeasibleBudgetError):
        _plan([1.0, 1.0], [1.0, 0.9], [5.0, 0.1], 4.0)
    with pytest.raises(InfeasibleBudgetError):
        _plan([1.0, 1.0], [1.0, 0.9], [1.0, 0.1], 1.5, min_samples=2)


def test_dominated_model_is_dropped():
    # model 1 is dearer *and* less correlated than model 2
    plan = _plan([1.0, 1.0, 1.0], [1.0, 0.90, 0.95], [1.0, 0.05, 0.001], 40.0)
    assert plan.retained.tolist() == [True, False, True]
    assert plan.m[1] == 0
    assert plan.m[0] >= 1 and plan.m[2] > plan.m[0]


def test_equal_correlation_tie_keeps_cheaper_model():
    plan = _plan([1.0, 1.0, 1.0], [1.0, 0.9, 0.9], [1.0, 0.05, 0.001], 40.0)
    assert plan.retained.tolist() == [True, False, True]


def test_oracle_equivalence_on_random_admissible_instances(rng):
    for _ in range(8):
        sigma, rho, w, budget = random_admissible_instance(rng)
        plan = optimal_allocation(pilot_stats_from_exact(sigma, rho), CostModel(w), budget)
        chain = np.flatnonzero(plan.m)
        got = telescoping_mse(sigma[chain], rho[chain], plan.m[chain])
        best, second = brute_force_best_two(sigma, rho, w, budget)
        assert got <= second + 1e-12


def test_budget_for_tolerance_single_model():
    stats = pilot_stats_from_exact([2.0], [1.0])
    assert budget_for_tolerance(stats, CostModel([1.0]), 0.2) == pytest.approx(100.0)
    assert budget_for_tolerance(stats, CostModel([5.0]), 0.2) == pytest.approx(500.0)


def test_budget_tolerance_round_trip(rng):
    for _ in range(6):
        sigma, rho, w, _ = random_admissible_instance(rng, m1_range=(8, 25))
        stats = pilot_stats_from_exact(sigma, rho)
        eps = 0.08 * sigma[0]
        budget = budget_for_tolerance(stats, CostModel(w), eps)
        plan = optimal_allocation(stats, CostModel(w), budget)
        slack = plan.m_real[0] / max(plan.m_real[0] - 1.0, 1.0)
        assert plan.predicted_mse <= eps**2 * slack + 1e-12


def test_alpha_optimality_by_perturbation(rng):
    for _ in range(5):
        sigma, rho, w, budget = random_admissible_instance(rng)
        stats = pilot_stats_from_exact(sigma, rho)
        plan = optimal_allocation(stats, CostModel(w), budget)
        base = predicted_mse(plan, stats)
        for i in range(1, len(sigma)):
            for delta in (-1e-3, 1e-3):
                alpha = plan.alpha.copy()
                alpha[i, 0] += delta
                perturbed = plan
                saved = perturbed.alpha
                perturbed.alpha = alpha
                assert predicted_mse(perturbed, stats) >= base - 1e-15
                perturbed.alpha = saved


def test_predicted_mse_monotone_in_budget(rng):
    sigma, rho, w, budget = random_admissible_instance(rng)
    stats = pilot_stats_from_exact(sigma, rho)
    previous = None
    for b in np.linspace(budget, 4 * budget, 7):
        plan = optimal_allocation(stats, CostModel(w), b)
        if previous is not None:
            assert plan.predicted_mse <= previous + 1e-12
        previous = plan.predicted_mse


def test_scalar_and_vector_allocation_agree_exactly():
    sigma = np.array([[2.0], [1.9], [2.4]])
    rho = np.array([[1.0], [0.99], [0.91]])
    stats = PilotStats("raw", sigma, rho, 50)
    w = CostModel([1.0, 0.04, 0.002])
    scalar_plan = optimal_allocation(pilot_stats_from_exact(sigma[:, 0], rho[:, 0]), w, 60.0)
    vector_plan = optimal_allocation(stats, w, 60.0, weights=np.array([1.0]))
    assert np.array_equal(scalar_plan.m, vector_plan.m)
    assert np.allclose(scalar_plan.alpha, vector_plan.alpha)
    assert scalar_plan.predicted_mse == pytest.approx(vector_plan.predicted_mse, rel=1e-14)


def test_ratio_consistency_with_optimal_plan(rng):
    for _ in range(5):
        sigma, rho, w, budget = random_admissible_instance(rng, m1_range=(20, 60))
        stats = pilot_stats_from_exact(sigma, rho)
        plan = optimal_allocation(stats, CostModel(w), budget)
        plain = sigma[0] ** 2 * w[0] / budget
        # the plan's error tracks the closed-form ratio of its retained chain
        kept = np.flatnonzero(plan.retained)
        ratio = _cost_ratio(pilot_stats_from_exact(sigma[kept], rho[kept]), CostModel(w[kept]))
        assert plan.predicted_mse / plain == pytest.approx(ratio, rel=0.12)


@settings(max_examples=25, deadline=None)
@given(
    rho2=st.floats(min_value=0.5, max_value=0.998),
    wratio=st.floats(min_value=0.001, max_value=0.2),
    budget=st.floats(min_value=5.0, max_value=500.0),
)
def test_rounding_invariants(rho2, wratio, budget):
    stats = pilot_stats_from_exact([1.0, 1.0], [1.0, math.sqrt(rho2)])
    plan = optimal_allocation(stats, CostModel([1.0, wratio]), budget)
    assert plan.m[0] >= 1
    retained = plan.m[plan.retained]
    assert np.all(np.diff(retained) >= 0)
    assert plan.budget_used <= plan.budget * (1 + 1e-9)


# Squared correlations and costs drawn partly from small pools, so that
# hypothesis produces exact ties, and partly outside (0, 1) for rho^2.
_RHO_SQ = st.one_of(
    st.sampled_from([0.25, 0.5, 0.81, 0.9]),
    st.sampled_from([0.0, 1.0, math.nan]),
    st.floats(min_value=0.01, max_value=0.999),
)
_COST = st.one_of(
    st.sampled_from([0.5, 0.1, 0.01]),
    st.floats(min_value=1e-4, max_value=1.0),
)


@st.composite
def _allocation_problems(draw, max_models):
    k = draw(st.integers(min_value=1, max_value=max_models))
    rho_sq = [1.0] + draw(st.lists(_RHO_SQ, min_size=k - 1, max_size=k - 1))
    sigma = draw(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=k, max_size=k))
    w = [draw(st.floats(min_value=0.5, max_value=2.0))]
    w += draw(st.lists(_COST, min_size=k - 1, max_size=k - 1))
    budget = draw(st.floats(min_value=1.0, max_value=3000.0))
    min_samples = draw(st.integers(min_value=1, max_value=2))
    stats = pilot_stats_from_exact(sigma, np.sqrt(rho_sq))
    return stats, CostModel(w), budget, min_samples


def _allocate_or_infeasible(solver, stats, costs, budget, min_samples):
    try:
        return solver(stats, costs, budget, min_samples=min_samples)
    except InfeasibleBudgetError:
        return None


@settings(max_examples=300, deadline=None)
@given(problem=_allocation_problems(max_models=10))
def test_chain_search_matches_exhaustive_oracle(problem):
    plan = _allocate_or_infeasible(optimal_allocation, *problem)
    oracle = _allocate_or_infeasible(exhaustive_allocation, *problem)
    assert (plan is None) == (oracle is None)
    if plan is None:
        return
    assert np.array_equal(plan.m, oracle.m)
    assert np.array_equal(plan.retained, oracle.retained)
    assert np.array_equal(plan.r, oracle.r, equal_nan=True)
    assert np.array_equal(plan.m_real, oracle.m_real)
    assert plan.predicted_mse == oracle.predicted_mse
    assert plan.budget_used == oracle.budget_used


# Companion costs no smaller than 0.25 at budgets up to 20 keep plain
# enumeration of every count vector small.
_ENUMERABLE_COST = st.one_of(
    st.sampled_from([0.5, 0.25]),
    st.floats(min_value=0.25, max_value=1.0),
)


@st.composite
def _small_budget_problems(draw):
    # correlations and costs sorted in decreasing order, so that most chains
    # of several models are admissible
    k = draw(st.integers(min_value=1, max_value=6))
    companions = st.one_of(
        st.sampled_from([0.25, 0.5, 0.81, 0.9]), st.floats(min_value=0.01, max_value=0.999)
    )
    rho_sq = [1.0] + sorted(draw(st.lists(companions, min_size=k - 1, max_size=k - 1)))[::-1]
    sigma = draw(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=k, max_size=k))
    w = [draw(st.floats(min_value=0.5, max_value=2.0))]
    w += sorted(draw(st.lists(_ENUMERABLE_COST, min_size=k - 1, max_size=k - 1)))[::-1]
    budget = draw(st.floats(min_value=1.0, max_value=20.0))
    min_samples = draw(st.integers(min_value=1, max_value=2))
    stats = pilot_stats_from_exact(sigma, np.sqrt(rho_sq))
    return stats, CostModel(w), budget, min_samples


@settings(max_examples=120, deadline=None)
@given(problem=_small_budget_problems())
@example(  # the full chain's optimum is [1, 4, 5, 5]; a +-2 window found [1, 3, 5, 8]
    problem=(
        pilot_stats_from_exact(np.ones(4), np.sqrt([1.0, 0.99, 0.74, 0.25])),
        CostModel([1.0, 0.9, 0.76, 0.29]),
        9.9,
        1,
    )
)
@example(  # [2, 4, 4] and [2, 3, 6] tie exactly in error (0.375) and cost (3.5)
    problem=(
        pilot_stats_from_exact(np.ones(3), np.sqrt([1.0, 0.5, 0.25])),
        CostModel([1.0, 0.25, 0.125]),
        3.5,
        1,
    )
)
def test_every_chain_rounds_to_the_brute_force_optimum(problem):
    plan = _allocate_or_infeasible(optimal_allocation, *problem)
    oracle = _allocate_or_infeasible(
        functools.partial(exhaustive_allocation, rounding=brute_force_counts), *problem
    )
    assert (plan is None) == (oracle is None)
    if plan is not None:
        assert np.array_equal(plan.m, oracle.m)
        assert plan.predicted_mse == oracle.predicted_mse


@st.composite
def _chain_rounding_problems(draw, max_models, max_budget, min_cost):
    k = draw(st.integers(min_value=1, max_value=max_models))
    coeffs = draw(st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=k, max_size=k))
    w = [draw(st.floats(min_value=0.5, max_value=2.0))]
    w += draw(st.lists(st.floats(min_value=min_cost, max_value=1.0), min_size=k - 1, max_size=k - 1))
    budget = draw(st.floats(min_value=1.0, max_value=max_budget))
    return coeffs, w, budget, draw(st.integers(min_value=1, max_value=2))


@settings(max_examples=60, deadline=None)
@given(problem=_chain_rounding_problems(max_models=4, max_budget=12.0, min_cost=0.25))
def test_pruned_oracle_matches_plain_enumeration(problem):
    # the pruned enumeration behind exhaustive_allocation, on any positive
    # coefficients and costs, admissible or not
    assert exact_counts(*problem) == brute_force_counts(*problem)


@st.composite
def _admissible_chain_problems(draw, max_models, max_budget):
    # built from the gaps and strictly increasing ratios the closed form
    # needs: w_i = w_1 gap_i / (gap_1 r_i^2)
    k = draw(st.integers(min_value=1, max_value=max_models))
    gaps = draw(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=k, max_size=k))
    steps = draw(st.lists(st.floats(min_value=1e-3, max_value=2.0), min_size=k - 1, max_size=k - 1))
    gaps = [g / sum(gaps) for g in gaps]
    r = [1.0]
    for step in steps:
        r.append(r[-1] * (1.0 + step))
    w0 = draw(st.floats(min_value=0.5, max_value=2.0))
    w = [w0 * g / (gaps[0] * ri**2) for g, ri in zip(gaps, r)]
    assume(min(w) >= 1e-5)
    scale = draw(st.floats(min_value=0.1, max_value=10.0))
    budget = draw(st.floats(min_value=1.0, max_value=max_budget))
    return [scale * g for g in gaps], w, budget, draw(st.integers(min_value=1, max_value=2))


@settings(max_examples=100, deadline=None)
@given(problem=_admissible_chain_problems(max_models=8, max_budget=3000.0))
def test_rounding_matches_pruned_oracle_at_large_budgets(problem):
    # the chain as aggregated statistics: with v_0 = 1 and
    # v_i = v_{i-1} - c_{i-1} / sum(c), the full chain's coefficients are c
    coeffs, w, budget, min_samples = problem
    total = sum(coeffs)
    v = [1.0]
    for c in coeffs[:-1]:
        v.append(v[-1] - c / total)
    problem = (AggregatedStats(total, np.array(v)), CostModel(w), budget, min_samples)
    plan = _allocate_or_infeasible(optimal_allocation, *problem)
    oracle = _allocate_or_infeasible(exhaustive_allocation, *problem)
    assert (plan is None) == (oracle is None)
    if plan is not None:
        assert np.array_equal(plan.m, oracle.m)
        assert plan.predicted_mse == oracle.predicted_mse


@pytest.mark.parametrize("budget", [1e8, 1e12])
def test_rounding_at_huge_budgets_stays_at_the_continuous_optimum(budget):
    # counts up to ~1e15: the search stops at its visit limit with a plan
    # whose error is the continuous optimum's up to the 1e-12 budget allowance
    k = 12
    rho_sq = np.concatenate([[1.0], np.linspace(0.99, 0.3, k - 1)])
    w = 10.0 ** (-4.0 * np.arange(k) / (k - 1))
    plan = _plan(np.ones(k), np.sqrt(rho_sq), w, budget)
    v = np.append(rho_sq[plan.chain], 0.0)
    s = float(np.sum(np.sqrt(w[plan.chain] * (v[:-1] - v[1:]))))
    assert plan.predicted_mse == pytest.approx(s**2 / budget, rel=2e-12)
    assert plan.budget_used <= budget * (1 + 1e-9)


def test_chain_search_reaches_near_tie_chains():
    # (v1 - v2) / w1 and v2 / w2 differ only in their last bits: plain
    # division says the ratios do not rise, _chain_ratios finds them
    # strictly increasing, and the full chain is the exhaustive winner
    v = np.array([1.0, 0.793, 0.065])
    w = np.array([1.0, 0.2603, 0.023241071428571427])
    assert not (v[1] - v[2]) / w[1] < v[2] / w[2]
    agg = AggregatedStats(1.0, v)
    plan = optimal_allocation(agg, CostModel(w), 3.0)
    assert plan.m.tolist() == [1, 7, 7]
    assert np.array_equal(plan.m, exhaustive_allocation(agg, CostModel(w), 3.0).m)


def test_twenty_model_hierarchy_allocates():
    k = 20
    rho_sq = np.concatenate([[1.0], np.linspace(0.99, 0.3, k - 1)])
    w = 10.0 ** (-4.0 * np.arange(k) / (k - 1))
    plan = _plan(np.ones(k), np.sqrt(rho_sq), w, 100.0)
    assert plan.retained[0] and plan.retained.sum() > 1
    assert plan.budget_used <= 100.0 * (1 + 1e-9)


@settings(max_examples=150, deadline=None)
@given(problem=_allocation_problems(max_models=24))
def test_plan_invariants_up_to_24_models(problem):
    stats, costs, budget, min_samples = problem
    plan = _allocate_or_infeasible(optimal_allocation, *problem)
    if plan is None:
        assert budget < costs.w[0] * min_samples
        return
    assert plan.budget_used <= budget * (1 + 1e-9)
    assert np.all(np.diff(plan.m[plan.retained]) >= 0)
    assert np.all(plan.m[~plan.retained] == 0)
    assert plan.m[0] >= min_samples


@pytest.mark.parametrize("sigma_bar_sq", [0.0, math.inf, math.nan])
def test_degenerate_aggregate_variance_rejected(sigma_bar_sq):
    agg = AggregatedStats(sigma_bar_sq, np.array([1.0, 0.81]))
    with pytest.raises(DegenerateStatsError):
        optimal_allocation(agg, CostModel([1.0, 0.01]), 100.0)


def test_plan_json_round_trip(tmp_path):
    plan = _plan([2.0, 2.0], [1.0, 0.9], [1.0, 0.01], 100.0)
    path = tmp_path / "plan.json"
    plan.save(path)
    from mfmc.allocation import AllocationPlan

    back = AllocationPlan.load(path)
    assert np.array_equal(back.m, plan.m)
    assert np.allclose(back.alpha, plan.alpha)
    assert back.predicted_mse == pytest.approx(plan.predicted_mse)


def test_aggregated_stats_without_source_have_no_alpha():
    agg = AggregatedStats(4.0, np.array([1.0, 0.81]))
    plan = optimal_allocation(agg, CostModel([1.0, 0.01]), 100.0)
    assert plan.alpha is None
    assert plan.m[0] >= 1
