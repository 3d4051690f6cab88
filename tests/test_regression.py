import numpy as np
import pytest

from mfmc.errors import NotFittedError
from mfmc.regression import (
    GaussianProcessBridge,
    PiecewiseLinearBridge,
    fit_regressor,
    load_regressor,
    regressor_from_dict,
    save_regressor,
)


def _pairs(x, y):
    return np.column_stack([x, y])


def test_line_is_recovered_inside_training_range(rng):
    x = np.linspace(-3.0, 3.0, 20)
    reg = fit_regressor(_pairs(x, 2.0 * x + 1.0))
    grid = np.linspace(-3.0, 3.0, 50)
    mean, _ = reg.predict(grid)
    assert np.max(np.abs(mean - (2.0 * grid + 1.0))) < 1e-3


def test_constant_targets_predict_constant_everywhere():
    x = np.linspace(0.0, 1.0, 8)
    reg = fit_regressor(_pairs(x, np.full(8, 4.2)))
    mean, var = reg.predict(np.array([-5.0, 0.3, 9.0]))
    assert np.allclose(mean, 4.2)
    assert np.allclose(var, 0.0)


def test_cubic_out_of_sample_accuracy(rng):
    x = rng.uniform(-2.0, 2.0, size=100)
    reg = fit_regressor(_pairs(x, x**3))
    hold = rng.uniform(-1.9, 1.9, size=200)
    mean, _ = reg.predict(hold)
    rmse = np.sqrt(np.mean((mean - hold**3) ** 2))
    assert rmse < 0.01 * np.ptp(x**3)


def test_zero_nugget_interpolates_training_targets():
    x = np.linspace(0.0, 4.0, 9)
    y = np.sin(x)
    reg = GaussianProcessBridge(length_scale=1.0, nugget=0.0).fit(x, y)
    mean, var = reg.predict(x)
    assert np.max(np.abs(mean - y)) < 1e-6 * max(1.0, np.max(np.abs(y)))
    assert np.all(var < 1e-8)


def test_extrapolation_reverts_to_prior_mean_and_signal_variance():
    x = np.linspace(-1.0, 1.0, 12)
    y = np.sin(2 * x)
    reg = GaussianProcessBridge(length_scale=0.5, nugget=1e-8).fit(x, y)
    mean_far, var_far = reg.predict(1e3)
    assert mean_far == pytest.approx(y.mean(), abs=1e-9)
    assert var_far == pytest.approx(reg._signal_variance, rel=1e-6)


def test_monotone_training_data_keeps_monotone_posterior(rng):
    x = np.sort(rng.uniform(-2, 2, size=40))
    y = np.tanh(x) + 0.01 * x
    reg = fit_regressor(_pairs(x, y))
    mean, _ = reg.predict(x)
    dips = np.diff(mean)
    assert dips.min() > -0.01 * np.ptp(y)


def test_fit_is_deterministic():
    x = np.linspace(-1, 1, 30)
    y = np.exp(x)
    a = fit_regressor(_pairs(x, y))
    b = fit_regressor(_pairs(x, y))
    assert a.length_scale == b.length_scale and a.nugget == b.nugget
    grid = np.linspace(-1, 1, 17)
    assert np.array_equal(a.predict(grid)[0], b.predict(grid)[0])


def test_nugget_regularizes_clustered_inputs(rng):
    # near-duplicate inputs make the kernel matrix brutal without a nugget
    x = np.repeat(rng.uniform(-1, 1, size=10), 5) + rng.normal(0, 1e-9, size=50)
    y = x**2
    reg = GaussianProcessBridge(nugget=1e-8).fit(x, y)
    mean, _ = reg.predict(np.array([0.0]))
    assert np.isfinite(mean[0])


def test_refuses_degenerate_inputs():
    with pytest.raises(ValueError):
        fit_regressor(_pairs(np.ones(10), np.arange(10.0)))
    with pytest.raises(ValueError):
        fit_regressor(_pairs(np.arange(4.0), np.arange(4.0)))  # too few


def test_fit_regressor_passes_keywords_to_every_bridge():
    x = np.linspace(0, 1, 10)
    assert fit_regressor(_pairs(x, x), "gp", nugget=1e-6).nugget == 1e-6
    with pytest.raises(TypeError):
        fit_regressor(_pairs(x, x), "piecewise-linear", nugget=1e-6)


def test_unfitted_prediction_raises():
    with pytest.raises(NotFittedError):
        GaussianProcessBridge().predict(0.0)
    with pytest.raises(NotFittedError):
        PiecewiseLinearBridge().predict(0.0)


def test_scalar_prediction_returns_floats():
    x = np.linspace(0, 1, 10)
    reg = fit_regressor(_pairs(x, x))
    mean, var = reg.predict(0.5)
    assert isinstance(mean, float) and isinstance(var, float)
    assert mean == pytest.approx(0.5, abs=1e-3)


def test_gp_serialization_round_trip(tmp_path):
    x = np.linspace(-1, 1, 25)
    y = np.sin(3 * x)
    reg = fit_regressor(_pairs(x, y))
    path = tmp_path / "bridge.json"
    save_regressor(reg, path)
    back = load_regressor(path)
    grid = np.linspace(-1, 1, 13)
    assert np.array_equal(back.predict(grid)[0], reg.predict(grid)[0])
    assert back.length_scale == reg.length_scale


def test_piecewise_linear_bridge_basics():
    x = np.array([0.0, 1.0, 1.0, 2.0, 3.0])
    y = np.array([0.0, 1.0, 3.0, 4.0, 6.0])
    reg = fit_regressor(_pairs(x, y), method="piecewise-linear")
    mean, var = reg.predict(np.array([0.5, 1.0, 10.0]))
    assert mean[1] == pytest.approx(2.0)  # duplicate x averaged
    assert mean[2] == pytest.approx(6.0)  # clamped extrapolation
    assert np.all(var == 0.0)
    back = regressor_from_dict(reg.to_dict())
    assert np.array_equal(back.predict(np.array([0.7]))[0], reg.predict(np.array([0.7]))[0])


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        fit_regressor(_pairs(np.arange(6.0), np.arange(6.0)), method="spline")
