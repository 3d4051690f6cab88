import json

import numpy as np
import pytest
from conftest import IdentityBridge
from hypothesis import given, settings
from hypothesis import strategies as st

from mfmc.estimators import STATISTICS, apply_bridges
from mfmc.hierarchy import ishigami_hierarchy, quintic_hierarchy
from mfmc.pilot import PilotStats, estimate_q_stats, pilot_stats_from_exact
from mfmc.regression import GaussianProcessBridge
from mfmc.sampling import NestedEvaluations, draw_inputs, evaluate_nested


def _evals_from_arrays(*columns):
    """NestedEvaluations stub: one (n, 1) output array per model."""
    outputs = [np.asarray(c, dtype=float)[:, None] for c in columns]
    n = outputs[0].shape[0]
    return NestedEvaluations(outputs, np.full(len(outputs), n), 0.0)


def test_hand_example_perfectly_correlated_doubling():
    evals = _evals_from_arrays([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    stats = estimate_q_stats(evals, "expectation")
    assert stats.rho[1, 0] == pytest.approx(1.0)
    assert stats.sigma[0, 0] / stats.sigma[1, 0] == pytest.approx(0.5)


def test_identical_models_give_unit_correlation():
    vals = [0.4, -1.0, 2.2, 0.9]
    stats = estimate_q_stats(_evals_from_arrays(vals, vals, vals), "expectation")
    assert np.allclose(stats.rho, 1.0)
    assert np.allclose(stats.sigma[1:], stats.sigma[0])


def test_ishigami_close_siblings_strongly_correlated():
    h = ishigami_hierarchy()
    evals = evaluate_nested(h, draw_inputs(h, 100, 31), [100] * 3)
    stats = estimate_q_stats(evals, "expectation")
    assert stats.rho[1, 0] > 0.99
    assert stats.n_samples == 100


def test_identity_statistic_reproduces_moment_stats():
    h = quintic_hierarchy()
    evals = evaluate_nested(h, draw_inputs(h, 60, 2), [60] * 3)
    viaq = estimate_q_stats(evals, STATISTICS["expectation"])
    outputs = np.hstack(evals.outputs)
    assert np.allclose(viaq.sigma[:, 0], outputs.std(axis=0, ddof=1), rtol=1e-12)
    assert np.allclose(viaq.rho[:, 0], np.corrcoef(outputs.T)[0], rtol=1e-12)


def test_variance_statistic_identical_models():
    vals = [0.5, 1.5, -2.0, 0.1, 0.9]
    stats = estimate_q_stats(_evals_from_arrays(vals, vals), STATISTICS["variance"])
    assert stats.rho[1, 0] == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=4, max_size=12))
def test_correlations_always_clamped(vals):
    noisy = [v + 1e-9 * i for i, v in enumerate(vals)]  # avoid exact degeneracy
    evals = _evals_from_arrays(noisy, noisy, [-v for v in noisy])
    stats = estimate_q_stats(evals, "expectation")
    finite = stats.rho[np.isfinite(stats.rho)]
    assert np.all(finite <= 1.0) and np.all(finite >= -1.0)


def test_degenerate_component_flagged_and_rho_undefined():
    const = [3.0, 3.0, 3.0, 3.0]
    varying = [1.0, 2.0, 0.5, 1.7]
    stats = estimate_q_stats(_evals_from_arrays(const, varying), "expectation")
    assert stats.degenerate[0]
    assert np.isnan(stats.rho[1, 0])
    assert stats.rho[0, 0] == 1.0


def test_flat_low_fidelity_component_gets_zero_rho():
    varying = [1.0, 2.0, 0.5, 1.7]
    const = [3.0, 3.0, 3.0, 3.0]
    stats = estimate_q_stats(_evals_from_arrays(varying, const), "expectation")
    assert not stats.degenerate[0]
    assert stats.rho[1, 0] == 0.0


def test_minimum_pilot_size_enforced():
    with pytest.raises(ValueError):
        estimate_q_stats(_evals_from_arrays([1.0, 2.0], [1.0, 2.0]), "expectation")


def test_g_stats_identity_bridge_matches_moment_stats():
    h = quintic_hierarchy()
    evals = evaluate_nested(h, draw_inputs(h, 80, 4), [80] * 3)
    identity = [IdentityBridge(), IdentityBridge()]
    stats = estimate_q_stats(apply_bridges(evals, identity), "expectation")
    raw = estimate_q_stats(evals, "expectation")
    assert np.allclose(stats.rho, raw.rho, atol=1e-9)
    assert np.allclose(stats.sigma, raw.sigma, rtol=1e-9)


def test_g_stats_monotone_cubic_dependence(rng):
    # y_high = y_low^3: nearly useless linearly, nearly perfect once bridged
    x = rng.uniform(-2, 2, size=400)
    lo, hi = x, x**3
    evals = _evals_from_arrays(hi, lo)
    raw = estimate_q_stats(evals, "expectation")
    bridge = GaussianProcessBridge().fit(lo[:100], hi[:100])
    bridged = estimate_q_stats(apply_bridges(evals, [bridge]), "expectation")
    assert bridged.rho[1, 0] >= 0.999
    assert bridged.rho[1, 0] > raw.rho[1, 0]
    assert bridged.sigma[0, 0] == pytest.approx(raw.sigma[0, 0])  # model 0 stays raw


def test_pilot_stats_json_round_trip():
    h = ishigami_hierarchy()
    evals = evaluate_nested(h, draw_inputs(h, 30, 6), [30] * 3)
    stats = estimate_q_stats(evals, STATISTICS["variance"])
    back = PilotStats.from_dict(json.loads(json.dumps(stats.to_dict())))
    assert back.cost == stats.cost == evals.cost
    assert back.n_samples == 30
    assert np.array_equal(back.sigma, stats.sigma)
    assert np.array_equal(back.rho, stats.rho, equal_nan=True)
    assert np.array_equal(back.degenerate, stats.degenerate)


def test_pilot_stats_without_cost_are_refused():
    d = pilot_stats_from_exact([2.0, 2.0], [1.0, 0.9]).to_dict()
    del d["cost"]
    with pytest.raises(ValueError, match="'cost'.*rerun the pilot"):
        PilotStats.from_dict(d)


def test_exact_stats_wrapper():
    stats = pilot_stats_from_exact([2.0, 2.0], [1.0, 0.9])
    assert stats.n_samples == 0
    assert stats.sigma.shape == (2, 1)
