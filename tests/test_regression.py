import tracemalloc

import numpy as np
import pytest
from conftest import exhaustive_gp_fit
from hypothesis import given, settings
from hypothesis import strategies as st

from mfmc import study
from mfmc.errors import NotFittedError
from mfmc.regression import GaussianProcessBridge


def test_line_is_recovered_inside_training_range(rng):
    x = np.linspace(-3.0, 3.0, 20)
    reg = GaussianProcessBridge().fit(x, 2.0 * x + 1.0)
    grid = np.linspace(-3.0, 3.0, 50)
    mean = reg.predict_mean(grid)
    assert np.max(np.abs(mean - (2.0 * grid + 1.0))) < 1e-3


def test_constant_targets_predict_constant_everywhere():
    x = np.linspace(0.0, 1.0, 8)
    reg = GaussianProcessBridge().fit(x, np.full(8, 4.2))
    assert np.allclose(reg.predict_mean(np.array([-5.0, 0.3, 9.0])), 4.2)


def test_cubic_out_of_sample_accuracy(rng):
    x = rng.uniform(-2.0, 2.0, size=100)
    reg = GaussianProcessBridge().fit(x, x**3)
    hold = rng.uniform(-1.9, 1.9, size=200)
    mean = reg.predict_mean(hold)
    rmse = np.sqrt(np.mean((mean - hold**3) ** 2))
    assert rmse < 0.01 * np.ptp(x**3)


def test_zero_nugget_interpolates_training_targets():
    x = np.linspace(0.0, 4.0, 9)
    y = np.sin(x)
    reg = GaussianProcessBridge(length_scale=1.0, nugget=0.0).fit(x, y)
    mean = reg.predict_mean(x)
    assert np.max(np.abs(mean - y)) < 1e-6 * max(1.0, np.max(np.abs(y)))


def test_extrapolation_reverts_to_prior_mean():
    x = np.linspace(-1.0, 1.0, 12)
    y = np.sin(2 * x)
    reg = GaussianProcessBridge(length_scale=0.5, nugget=1e-8).fit(x, y)
    assert reg.predict_mean(1e3) == pytest.approx(y.mean(), abs=1e-9)


def test_monotone_training_data_keeps_monotone_posterior(rng):
    x = np.sort(rng.uniform(-2, 2, size=40))
    y = np.tanh(x) + 0.01 * x
    reg = GaussianProcessBridge().fit(x, y)
    mean = reg.predict_mean(x)
    dips = np.diff(mean)
    assert dips.min() > -0.01 * np.ptp(y)


def test_fit_is_deterministic():
    x = np.linspace(-1, 1, 30)
    y = np.exp(x)
    a = GaussianProcessBridge().fit(x, y)
    b = GaussianProcessBridge().fit(x, y)
    assert a.length_scale == b.length_scale and a.nugget == b.nugget
    grid = np.linspace(-1, 1, 17)
    assert np.array_equal(a.predict_mean(grid), b.predict_mean(grid))


def test_nugget_regularizes_clustered_inputs(rng):
    # near-duplicate inputs make the kernel matrix brutal without a nugget
    x = np.repeat(rng.uniform(-1, 1, size=10), 5) + rng.normal(0, 1e-9, size=50)
    y = x**2
    reg = GaussianProcessBridge(nugget=1e-8).fit(x, y)
    assert np.isfinite(reg.predict_mean(np.array([0.0]))[0])


def test_refuses_degenerate_inputs():
    with pytest.raises(ValueError):
        GaussianProcessBridge().fit(np.ones(10), np.arange(10.0))
    with pytest.raises(ValueError):
        GaussianProcessBridge().fit(np.arange(4.0), np.arange(4.0))  # too few
    for bad in (np.nan, np.inf):
        y = np.arange(10.0)
        y[3] = bad
        with pytest.raises(ValueError, match="finite"):
            GaussianProcessBridge().fit(np.arange(10.0), y)
        with pytest.raises(ValueError, match="finite"):
            GaussianProcessBridge().fit(y, np.arange(10.0))


def test_unfitted_prediction_raises():
    with pytest.raises(NotFittedError):
        GaussianProcessBridge().predict_mean(0.0)


def test_scalar_prediction_returns_floats():
    x = np.linspace(0, 1, 10)
    mean = GaussianProcessBridge().fit(x, x).predict_mean(0.5)
    assert isinstance(mean, float)
    assert mean == pytest.approx(0.5, abs=1e-3)


def test_refit_selects_hyperparameters_afresh():
    x = np.linspace(0.0, 1.0, 30)
    reg = GaussianProcessBridge().fit(x, np.sin(6.0 * x))
    wide = 100.0 * x
    fresh = GaussianProcessBridge().fit(wide, np.tanh(wide / 50.0))
    reg.fit(wide, np.tanh(wide / 50.0))
    assert (reg.length_scale, reg.nugget) == (fresh.length_scale, fresh.nugget)
    assert np.array_equal(reg._weights, fresh._weights)
    # pins survive a refit; a constant fit does not stick to the next one
    pinned = GaussianProcessBridge(length_scale=0.3).fit(x, np.full(30, 2.0))
    pinned.fit(x, np.sin(6.0 * x))
    assert pinned.length_scale == 0.3 and not pinned._constant
    assert pinned.nugget == GaussianProcessBridge(length_scale=0.3).fit(x, np.sin(6.0 * x)).nugget


def _one_shot_predict(reg, x):
    """The unblocked posterior mean, formula for formula; the product sums
    each query row on its own."""
    xq = np.atleast_1d(np.asarray(x, dtype=float))
    k = np.exp(-0.5 * (xq[:, None] - reg._x[None, :]) ** 2 / reg.length_scale**2)
    return reg._prior_mean + np.einsum("ij,j->i", k, reg._weights)


@pytest.mark.parametrize("m", [0, 1, 1023, 1024, 1025, 2049, 5003])
def test_blocked_prediction_matches_one_shot_exactly(m):
    rng = np.random.default_rng(m)
    x = rng.uniform(-3.0, 3.0, size=60)
    reg = GaussianProcessBridge().fit(x, x**3 + rng.normal(0.0, 0.1, size=60))
    xq = rng.uniform(-4.0, 4.0, size=m)
    assert np.array_equal(reg.predict_mean(xq), _one_shot_predict(reg, xq))
    assert np.array_equal(reg.predict_mean(xq[::-2]), _one_shot_predict(reg, xq[::-2]))


@pytest.mark.parametrize("sizes", [(999, 1, 24), (1, 1023), (512, 511, 1), (3, 1, 1, 1019)])
def test_prediction_of_any_split_equals_prediction_together(sizes):
    # 1,024 queries, one prediction block, predicted in parts and one at a
    # time: every query's mean must keep its bits
    rng = np.random.default_rng(len(sizes))
    x = rng.uniform(-3.0, 3.0, size=100)
    reg = GaussianProcessBridge().fit(x, np.sin(2.0 * x) + rng.normal(0.0, 0.1, size=100))
    xq = rng.uniform(-4.0, 4.0, size=sum(sizes))
    together = reg.predict_mean(xq)
    parts = np.split(xq, np.cumsum(sizes)[:-1])
    assert np.array_equal(np.concatenate([reg.predict_mean(p) for p in parts]), together)
    assert np.array_equal([reg.predict_mean(q) for q in xq[:64]], together[:64])


def test_scalar_prediction_matches_one_shot_exactly():
    x = np.linspace(-1.0, 1.0, 15)
    reg = GaussianProcessBridge().fit(x, np.exp(x))
    mean = _one_shot_predict(reg, 0.37)
    assert reg.predict_mean(0.37) == float(mean[0])
    assert reg.predict_mean(np.float64(0.37)) == float(mean[0])


def test_predict_mean_memory_is_bounded():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, size=100)
    reg = GaussianProcessBridge().fit(x, np.sin(4.0 * x))
    xq = rng.uniform(-1.0, 1.0, size=50_000)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        reg.predict_mean(xq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the one-shot kernel alone would be 50,000 x 100 x 8 bytes = 40 MB
    assert peak < 8e6


def _assert_same_fit(reg, ref):
    assert reg.length_scale == ref["length_scale"] and reg.nugget == ref["nugget"]
    assert np.array_equal(reg._weights, ref["weights"])


@st.composite
def _gp_problems(draw):
    n = draw(st.integers(5, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["uniform", "clustered", "near-duplicate"]))
    if layout == "uniform":
        x = rng.uniform(-1.0, 1.0, size=n)
    elif layout == "clustered":
        centres = rng.uniform(-1.0, 1.0, size=draw(st.integers(2, 6)))
        x = rng.choice(centres, size=n) + rng.normal(0.0, 1e-3, size=n)
    else:
        x = rng.uniform(-1.0, 1.0, size=n)
        x[n // 2 :] = x[: n - n // 2] + rng.normal(0.0, 1e-9, size=n - n // 2)
    x = x * 10.0 ** draw(st.integers(-3, 3))
    if np.ptp(x) == 0.0:
        x[0] += 1.0
    noise = draw(st.sampled_from([0.0, 1e-3, 0.3]))
    signal = np.sin(3.0 * x / np.ptp(x)) + rng.normal(0.0, noise, n)
    y = signal * 10.0 ** draw(st.integers(-6, 6))
    if draw(st.booleans()):
        # targets spanning many orders of magnitude
        y = np.sign(signal) * 10.0 ** rng.uniform(-4.0, 4.0, size=n)
    ell = draw(st.sampled_from([None, None, 0.05, 0.5]))
    ell = None if ell is None else ell * float(np.ptp(x))
    tau = draw(st.sampled_from([None, None, 0.0, 1e-10, 1e-8, 1e-3]))
    return x, y, ell, tau


@settings(max_examples=120, deadline=None)
@given(problem=_gp_problems())
def test_fit_matches_exhaustive_oracle(problem):
    x, y, ell, tau = problem
    try:
        ref = exhaustive_gp_fit(x, y, length_scale=ell, nugget=tau)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            GaussianProcessBridge(length_scale=ell, nugget=tau).fit(x, y)
        return
    _assert_same_fit(GaussianProcessBridge(length_scale=ell, nugget=tau).fit(x, y), ref)


@pytest.mark.parametrize("ell", [0.01, None])
def test_exact_ties_are_decided_by_exact_scores(ell):
    # With unit spacing and a length scale of 0.01 the kernel is exactly
    # (1 + tau) I, so every nugget has the same likelihood up to rounding;
    # the screened scores round differently, so their order is not the
    # exact one, and only the exact re-score picks the oracle's winner.
    x = np.arange(30.0)
    for seed in range(20):
        y = np.random.default_rng(seed).normal(size=30)
        ref = exhaustive_gp_fit(x, y, length_scale=ell)
        _assert_same_fit(GaussianProcessBridge(length_scale=ell).fit(x, y), ref)


def test_quintic_bridges_match_exhaustive_oracle():
    fits = 0
    for seed in (3, 11):
        for rep in range(10):
            config = study.StudyConfig(hierarchy="quintic", mode="nonlinear", pilot_size=100,
                                       regression_train_size=100, seed=seed)
            _, bridges = study._Replicate(config, rep).pilot
            for reg in bridges:
                _assert_same_fit(reg, exhaustive_gp_fit(reg._x, reg._y))
                fits += 1
    assert fits == 40
