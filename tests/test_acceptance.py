"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is fixed here; the heavy replicate batteries are
shared through module-scoped fixtures. Reference targets are either exact
closed forms or recomputed in-test by independent brute-force oracles.
"""

import time

import numpy as np
import pytest

from conftest import brute_force_best_two, random_admissible_instance, telescoping_mse
from mfmc.allocation import (
    CostModel,
    aggregate_vector_stats,
    budget_for_tolerance,
    optimal_allocation,
)
from mfmc.estimators import evaluate_for_plan, mfmc_expectation
from mfmc.hierarchy import (
    Model,
    ModelHierarchy,
    Normal,
    ishigami_hierarchy,
    ishigami_mean,
    ishigami_sobol_indices,
    ishigami_variance,
    synthetic_field_exact_moments,
    synthetic_field_hierarchy,
)
from mfmc.pilot import pilot_stats_from_exact
from mfmc.sampling import draw_inputs
from mfmc.study import StudyConfig, make_reference, run_replicate

REPLICATES = 100


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _ishigami_records(statistic, budget, seed, mode="linear", replicates=REPLICATES):
    config = StudyConfig(
        hierarchy="ishigami",
        statistics=(statistic,),
        mode=mode,
        budgets=(budget,),
        replicates=1,
        pilot_size=100,
        seed=seed,
    )
    return [run_replicate(config, statistic, budget, r) for r in range(replicates)]


@pytest.fixture(scope="module")
def ishigami_expectation_records():
    return _ishigami_records("expectation", 160.0, seed=2024)


@pytest.fixture(scope="module")
def ishigami_variance_records():
    return _ishigami_records("variance", 160.0, seed=2024)


def test_criterion_1_ishigami_expectation(ishigami_expectation_records):
    t0 = time.time()
    records = ishigami_expectation_records
    values = np.array([rec["values"][0] for rec in records])
    mean = values.mean()
    se = values.std(ddof=1) / np.sqrt(len(values))
    within = abs(mean - ishigami_mean()) <= 3 * se

    # plain sampling comparator at the same total budget (160 evaluations)
    h = ishigami_hierarchy()
    mc = np.empty(len(records))
    for r in range(len(records)):
        s = draw_inputs(h, 160, (5150, r))
        mc[r] = h.models[0].evaluate_batch(s.inputs)[:, 0].mean()
    mse_mfmc = float(np.mean((values - ishigami_mean()) ** 2))
    mse_mc = float(np.mean((mc - ishigami_mean()) ** 2))
    elapsed = time.time() - t0
    _report(
        "criterion 1 (expectation, p=160)",
        within and mse_mfmc <= mse_mc and elapsed < 60.0,
        f"mean={mean:.4f} (3SE={3*se:.4f}), mse={mse_mfmc:.3e} vs plain {mse_mc:.3e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_ishigami_variance(ishigami_variance_records, ishigami_expectation_records):
    records = ishigami_variance_records
    values = np.array([rec["values"][0] for rec in records])
    mean = values.mean()
    se = values.std(ddof=1) / np.sqrt(len(values))
    within = abs(mean - ishigami_variance()) <= 3 * se

    alpha3_var = float(np.mean([rec["alpha"][2, 0] for rec in records]))
    alpha3_exp = float(
        np.mean([rec["alpha"][2, 0] for rec in ishigami_expectation_records])
    )
    coeff_ok = abs(alpha3_var - 0.9289) <= 0.05
    distinct = alpha3_var - alpha3_exp > 0.02
    _report(
        "criterion 2 (variance, p=160)",
        within and coeff_ok and distinct,
        f"mean={mean:.3f} (3SE={3*se:.3f}), alpha3(var)={alpha3_var:.4f} "
        f"vs alpha3(exp)={alpha3_exp:.4f}",
    )


def test_criterion_3_allocation_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(31337)
    worst_excess = 0.0
    for _ in range(50):
        sigma, rho, w, budget = random_admissible_instance(rng)
        stats = pilot_stats_from_exact(sigma, rho)
        plan = optimal_allocation(stats, CostModel(w), budget)
        chain = np.flatnonzero(plan.m)
        got = telescoping_mse(sigma[chain], rho[chain], plan.m[chain])
        best, second = brute_force_best_two(sigma, rho, w, budget)
        worst_excess = max(worst_excess, got - second)
    elapsed = time.time() - t0
    _report(
        "criterion 3 (integer-plan oracle, 50 instances)",
        worst_excess <= 1e-12 and elapsed < 60.0,
        f"worst excess over second-best plan = {worst_excess:.2e}, {elapsed:.1f}s",
    )


def _gaussian_pair_hierarchy(rho, w2):
    def hf(s):
        return s[:, [0]]

    def lf(s):
        return (rho * s[:, 0] + np.sqrt(1.0 - rho**2) * s[:, 1])[:, None]

    models = (
        Model(hf, 1.0, "hf", vectorized=True),
        Model(lf, w2, "lf", vectorized=True),
    )
    return ModelHierarchy(models, (Normal(0, 1), Normal(0, 1)))


def test_criterion_4_variance_reduction_realized():
    rho, w2, budget, reps = 0.95, 0.01, 30.0, 2000
    h = _gaussian_pair_hierarchy(rho, w2)
    stats = pilot_stats_from_exact([1.0, 1.0], [1.0, rho])
    plan = optimal_allocation(stats, CostModel([1.0, w2]), budget)
    est = np.empty(reps)
    gen = np.random.default_rng(8899)
    mc = gen.normal(size=(reps, int(budget))).mean(axis=1)  # plain comparator
    for r in range(reps):
        samples = draw_inputs(h, int(plan.m.max()), (66, r))
        evals = evaluate_for_plan(h, plan, samples)
        est[r] = mfmc_expectation(evals, plan).value[0]
    ratio = float(np.mean(est**2) / np.mean(mc**2))
    target = 0.16585  # (sqrt(1 - rho^2) + sqrt(w2 rho^2))^2
    ok = target / 1.5 <= ratio <= target * 1.5
    _report(
        "criterion 4 (realized variance reduction)",
        ok,
        f"empirical ratio={ratio:.4f} vs closed form {target:.4f} (factor-1.5 band)",
    )


def test_criterion_5_quintic_nonlinear_bridge():
    t0 = time.time()
    lin = StudyConfig(
        hierarchy="quintic", statistics=("expectation",), mode="linear",
        budgets=(40.0,), replicates=1, pilot_size=100, seed=1717,
    )
    nl = StudyConfig(
        hierarchy="quintic", statistics=("expectation",), mode="nonlinear",
        budgets=(40.0,), replicates=1, pilot_size=100,
        regression_train_size=100, seed=1717,
    )
    truth = 0.5
    budgets = (40.0, 80.0, 160.0)
    lin_vals = {b: [] for b in budgets}
    nl_vals = {b: [] for b in budgets}
    rho_raw = []
    rho_bridged = []
    # Budgets inside replicates, so the three budgets of a replicate share its bridge fit.
    for r in range(REPLICATES):
        for budget in budgets:
            rec_l = run_replicate(lin, "expectation", budget, r)
            rec_n = run_replicate(nl, "expectation", budget, r)
            lin_vals[budget].append(rec_l["values"][0])
            nl_vals[budget].append(rec_n["values"][0])
            if budget == 40.0:
                rho_raw.append(rec_l["rho"][2, 0])
                rho_bridged.append(rec_n["rho"][2, 0])
    mse_pairs = {
        b: (
            float(np.mean((np.array(lin_vals[b]) - truth) ** 2)),
            float(np.mean((np.array(nl_vals[b]) - truth) ** 2)),
        )
        for b in budgets
    }
    rho_raw = float(np.mean(rho_raw))
    rho_bridged = float(np.mean(rho_bridged))
    corr_ok = rho_bridged >= 0.98 and rho_raw <= 0.92
    mse_ok = all(nl_mse < lin_mse for lin_mse, nl_mse in mse_pairs.values())
    detail = ", ".join(
        f"p={int(b)}: {l:.4f}->{n:.4f}" for b, (l, n) in sorted(mse_pairs.items())
    )
    _report(
        "criterion 5 (quintic bridged estimator)",
        corr_ok and mse_ok,
        f"rho_raw={rho_raw:.3f}, rho_bridged={rho_bridged:.3f}; mse {detail}; "
        f"{time.time()-t0:.1f}s",
    )


def _conditional_variance_oracle(seed=12021):
    """Independent Sobol oracle from conditional-variance definitions.

    Main effect of coordinate j: variance over z_j of the inner mean,
    de-noised by the inner-variance correction. Total effect: expectation
    over the other coordinates of the inner variance. Nothing here shares
    code with the paired-block estimators.
    """
    gen = np.random.default_rng(seed)
    h = ishigami_hierarchy()
    f = h.models[0]
    d, outer, inner = 3, 6000, 400
    main = np.empty(d)
    total = np.empty(d)
    for j in range(d):
        zj = gen.uniform(-np.pi, np.pi, size=outer)
        rest = gen.uniform(-np.pi, np.pi, size=(outer, inner, d))
        rest[:, :, j] = zj[:, None]
        flat = f.evaluate_batch(rest.reshape(-1, d))[:, 0].reshape(outer, inner)
        means = flat.mean(axis=1)
        inner_vars = flat.var(axis=1, ddof=1)
        main[j] = np.var(means, ddof=1) - inner_vars.mean() / inner
        zrest = gen.uniform(-np.pi, np.pi, size=(outer, inner, d))
        zj_inner = gen.uniform(-np.pi, np.pi, size=(outer, inner))
        fixed = gen.uniform(-np.pi, np.pi, size=(outer, d))
        block = np.broadcast_to(fixed[:, None, :], (outer, inner, d)).copy()
        block[:, :, j] = zj_inner
        flat = f.evaluate_batch(block.reshape(-1, d))[:, 0].reshape(outer, inner)
        total[j] = flat.var(axis=1, ddof=1).mean()
    big = f.evaluate_batch(gen.uniform(-np.pi, np.pi, size=(2_000_000, 3)))[:, 0]
    v = np.var(big, ddof=1)
    return main / v, total / v


@pytest.fixture(scope="module")
def sobol_mfmc_records():
    config = StudyConfig(
        hierarchy="ishigami",
        statistics=("sobol-main", "sobol-total"),
        budgets=(160.0,),
        replicates=1,
        pilot_size=100,
        seed=404,
    )
    out = {}
    for stat in ("sobol-main", "sobol-total"):
        out[stat] = [run_replicate(config, stat, 160.0, r) for r in range(REPLICATES)]
    return out


def test_criterion_6_sobol_indices(sobol_mfmc_records, tmp_path):
    t0 = time.time()
    main_ref, total_ref = ishigami_sobol_indices()
    v_ref = ishigami_variance()

    # the analytic targets must agree with an independent brute-force oracle
    main_bf, total_bf = _conditional_variance_oracle()
    oracle_ok = np.all(np.abs(main_bf - main_ref) < 0.01) and np.all(
        np.abs(total_bf - total_ref) < 0.01
    )

    # single-level estimates at one million samples: the folded reference,
    # normalized by the variance of the same base draws
    config = StudyConfig(
        hierarchy="ishigami", statistics=("variance", "sobol-main", "sobol-total"),
        reference_samples=1_000_000, seed=999,
    )
    table = make_reference(config, tmp_path / "reference.json")
    main_single = np.array(table["sobol-main"]) / table["variance"][0]
    total_single = np.array(table["sobol-total"]) / table["variance"][0]
    single_ok = np.all(np.abs(main_single - main_ref) < 0.005) and np.all(
        np.abs(total_single - total_ref) < 0.005
    )

    # combined estimates at p=160 converge within 3 replicate standard errors
    dev = {}
    mfmc_ok = True
    for stat, ref in (("sobol-main", main_ref), ("sobol-total", total_ref)):
        vals = np.array([rec["values"] for rec in sobol_mfmc_records[stat]]) / v_ref
        mean = vals.mean(axis=0)
        se = vals.std(axis=0, ddof=1) / np.sqrt(vals.shape[0])
        dev[stat] = np.abs(mean - ref) / se
        mfmc_ok = mfmc_ok and np.all(np.abs(mean - ref) <= 3 * se)
    _report(
        "criterion 6 (Sobol indices)",
        oracle_ok and single_ok and mfmc_ok,
        f"oracle drift<0.01, single-level S={np.round(main_single, 4)}, "
        f"combined max dev {max(dev['sobol-main'].max(), dev['sobol-total'].max()):.2f} SE, "
        f"{time.time()-t0:.1f}s",
    )


def test_criterion_7_vector_valued_consistency():
    t0 = time.time()
    n_points = 9
    sigma, rho = synthetic_field_exact_moments(n_points)
    stats = pilot_stats_from_exact(sigma, rho)
    agg = aggregate_vector_stats(stats)
    x = np.arange(1, n_points + 1) / n_points
    var1 = 1.0 + 0.01 * x**2
    sig_ok = abs(agg.sigma_bar_sq - var1.sum()) <= 1e-12 * var1.sum()
    rho12 = n_points / var1.sum()
    rho13 = float(np.sin(np.pi * x) ** 2 @ np.ones(n_points)) / var1.sum()
    rho_ok = abs(agg.rho_bar_sq[1] - rho12) <= 1e-12 and abs(agg.rho_bar_sq[2] - rho13) <= 1e-12

    w = CostModel([1.0, 0.05, 0.001])
    scalar = optimal_allocation(
        pilot_stats_from_exact(sigma[:, 0], rho[:, 0]), w, 30.0
    )
    vector = optimal_allocation(
        pilot_stats_from_exact(sigma[:, [0]], rho[:, [0]]), w, 30.0, weights=np.array([1.0])
    )
    scalar_vector_ok = np.array_equal(scalar.m, vector.m) and np.allclose(
        scalar.alpha, vector.alpha
    )

    h = synthetic_field_hierarchy(n_points)
    reps = 2000
    config = StudyConfig(
        hierarchy="synthetic-field", n_points=n_points,
        statistics=("expectation",), budgets=(25.0,), replicates=1,
        pilot_size=100, seed=7117,
    )
    values = np.empty((reps, n_points))
    for r in range(reps):
        values[r] = run_replicate(config, "expectation", 25.0, r)["values"]
    mean = values.mean(axis=0)
    se = values.std(axis=0, ddof=1) / np.sqrt(reps)
    unbiased_ok = np.all(np.abs(mean) <= 4 * se)
    _report(
        "criterion 7 (vector-valued consistency)",
        sig_ok and rho_ok and scalar_vector_ok and unbiased_ok,
        f"aggregates at 1e-12, scalar==vector, max |mean|/SE = "
        f"{np.max(np.abs(mean)/se):.2f} over {n_points} points, {time.time()-t0:.1f}s",
    )


def test_criterion_8_budget_round_trip():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(50):
        sigma, rho, w, _ = random_admissible_instance(rng, m1_range=(8, 30))
        stats = pilot_stats_from_exact(sigma, rho)
        eps = 0.08 * sigma[0]
        budget = budget_for_tolerance(stats, CostModel(w), eps)
        plan = optimal_allocation(stats, CostModel(w), budget)
        slack = plan.m_real[0] / max(plan.m_real[0] - 1.0, 1.0)
        worst = max(worst, plan.predicted_mse / (eps**2 * slack))
    _report(
        "criterion 8 (budget from tolerance round-trip)",
        worst <= 1.0 + 1e-9,
        f"worst predicted/allowed = {worst:.4f} over 50 instances",
    )


def test_criterion_9_pilot_sensitivity():
    t0 = time.time()

    def batch(n_pilot, seed, reps, budget=40.0):
        config = StudyConfig(
            hierarchy="ishigami", statistics=("expectation",), budgets=(budget,),
            replicates=1, pilot_size=n_pilot, seed=seed,
        )
        m3 = np.empty(reps)
        vals = np.empty(reps)
        for r in range(reps):
            rec = run_replicate(config, "expectation", budget, r)
            m3[r] = rec["m"][2]
            vals[r] = rec["values"][0]
        return m3, vals

    m3_small, _ = batch(20, seed=909, reps=1000)
    m3_large, _ = batch(100, seed=909, reps=1000)
    iqr_small = np.subtract(*np.percentile(m3_small, [75, 25]))
    iqr_large = np.subtract(*np.percentile(m3_large, [75, 25]))
    spread_ok = iqr_large < iqr_small

    _, vals_small = batch(20, seed=505, reps=500)
    _, vals_large = batch(100, seed=505, reps=500)
    mse_small = float(np.mean((vals_small - ishigami_mean()) ** 2))
    mse_large = float(np.mean((vals_large - ishigami_mean()) ** 2))
    change = abs(mse_small - mse_large) / mse_large
    _report(
        "criterion 9 (pilot-size sensitivity)",
        spread_ok and change < 0.2,
        f"IQR(m3) {iqr_small:.0f}->{iqr_large:.0f}, mse change {100*change:.1f}%, "
        f"{time.time()-t0:.1f}s",
    )
