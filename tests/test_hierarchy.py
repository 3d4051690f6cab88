import math
import pickle

import numpy as np
import pytest

from mfmc.errors import UnknownNameError
from mfmc.hierarchy import (
    get_hierarchy,
    ishigami_hierarchy,
    ishigami_mean,
    ishigami_sobol_indices,
    ishigami_variance,
    quintic_hierarchy,
    quintic_mean,
    quintic_variance,
    synthetic_field_exact_moments,
    synthetic_field_grid,
    synthetic_field_hierarchy,
)
from mfmc.sampling import draw_inputs, evaluate_nested


def test_ishigami_point_values():
    h = ishigami_hierarchy()
    y = h.models[0].evaluate_batch(np.array([[0.0, 0.0, 0.0], [math.pi / 2, 0.0, 0.0]]))
    assert y[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert y[1, 0] == pytest.approx(1.0)


def test_ishigami_model_difference_is_quarter_sin_squared(rng):
    h = ishigami_hierarchy()
    z = rng.uniform(-math.pi, math.pi, size=(50, 3))
    diff = h.models[0].evaluate_batch(z) - h.models[1].evaluate_batch(z)
    assert np.allclose(diff[:, 0], 0.25 * np.sin(z[:, 1]) ** 2, atol=1e-12)


def test_quintic_point_values():
    h = quintic_hierarchy()
    assert h.models[2].evaluate_batch(np.array([[0.0, 0.0, 1.0]]))[0, 0] == pytest.approx(20.0)
    assert h.models[0].evaluate_batch(np.array([[0.0, 0.0, math.pi]]))[0, 0] == pytest.approx(
        math.pi**5 / 10.0
    )


def test_evaluate_batch_rejects_wrong_input_length():
    h = ishigami_hierarchy()
    with pytest.raises(ValueError, match="expects inputs of length 3"):
        h.models[0].evaluate_batch(np.zeros((2, 2)))


def test_evaluation_determinism():
    h = quintic_hierarchy()
    x = np.array([[0.3, -1.2, 2.2]])
    a = h.models[0].evaluate_batch(x)
    b = h.models[0].evaluate_batch(x)
    assert np.array_equal(a, b)


def test_ishigami_monte_carlo_moments():
    h = ishigami_hierarchy()
    samples = draw_inputs(h, 1_000_000, 123)
    y = h.models[0].evaluate_batch(samples.inputs)[:, 0]
    assert abs(y.mean() - ishigami_mean()) < 0.02
    assert abs(np.var(y, ddof=1) - ishigami_variance()) < 0.1


def test_quintic_monte_carlo_mean():
    h = quintic_hierarchy()
    samples = draw_inputs(h, 1_000_000, 5)
    y = h.models[0].evaluate_batch(samples.inputs)[:, 0]
    # mean 0.5 exactly; MC noise at 1e6 draws is ~0.01
    assert abs(y.mean() - quintic_mean()) < 0.04
    assert abs(np.var(y, ddof=1) - quintic_variance()) / quintic_variance() < 0.05


def test_ishigami_sobol_indices_sum_structure():
    main, total = ishigami_sobol_indices()
    assert main[2] == 0.0
    assert np.all(total >= main - 1e-15)
    # main indices plus the single interaction account for the full variance
    v = ishigami_variance()
    interaction = (total[2] - main[2]) * v
    assert main.sum() * v + interaction == pytest.approx(v, rel=1e-12)


def test_synthetic_field_closed_forms():
    sigma, rho = synthetic_field_exact_moments(4)
    x = synthetic_field_grid(4)
    assert sigma[0, -1] ** 2 == pytest.approx(1.01, rel=1e-14)
    assert rho[1] == pytest.approx(1.0 / np.sqrt(1.0 + 0.01 * x**2), rel=1e-14)
    assert rho[2, 1] == pytest.approx(1.0 / math.sqrt(1.0025), rel=1e-12)  # x = 1/2


def test_synthetic_field_pilot_converges_to_closed_forms():
    n_points = 8
    h = synthetic_field_hierarchy(n_points)
    samples = draw_inputs(h, 100_000, 77)
    evals = evaluate_nested(h, samples, [100_000] * 3)
    y = [out for out in evals.outputs]
    sigma_exact, rho_exact = synthetic_field_exact_moments(n_points)
    for i in (1, 2):
        s1 = y[0] - y[0].mean(axis=0)
        si = y[i] - y[i].mean(axis=0)
        denom = np.sqrt((s1**2).sum(axis=0) * (si**2).sum(axis=0))
        rho_hat = np.where(denom > 0, (s1 * si).sum(axis=0) / np.where(denom > 0, denom, 1.0), 0.0)
        assert np.all(np.abs(rho_hat - rho_exact[i]) < 0.01)


def _broadcast_field(grid, level, s):
    """The field as broadcast products: the expression the evaluator replaced."""
    x = grid[None, :]
    out = s[:, 0:1] * np.sin(np.pi * x)
    if level <= 2:
        out = out + s[:, 1:2] * np.cos(np.pi * x)
    if level <= 1:
        out = out + 0.1 * s[:, 2:3] * x
    return out


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("width", [1, 17, 200])
@pytest.mark.parametrize("rows", [1, 327, 4000])
def test_field_model_is_bit_identical_to_broadcast_products(width, rows):
    h = synthetic_field_hierarchy(width)
    grid = synthetic_field_grid(width)
    draws = np.random.default_rng(width * rows).normal(size=(rows, 3))
    for level, model in enumerate(h.models, start=1):
        for evaluator in (model.evaluator, pickle.loads(pickle.dumps(model.evaluator))):
            for s in (draws, draws * 1e150, draws * 1e-150):
                assert _same_bits(evaluator(s), _broadcast_field(grid, level, s))


def test_field_model_gives_positive_zero_for_zero_inputs():
    # an exact-zero product is +0.0 from the evaluator; the broadcast
    # products give -0.0 where a zero input meets a basis value of the other sign
    grid = synthetic_field_grid(17)
    zeros = np.array([[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]])
    for level, model in enumerate(synthetic_field_hierarchy(17).models, start=1):
        got = model.evaluator(zeros)
        assert np.all(got == 0.0) and not np.signbit(got).any()
        assert np.array_equal(got, _broadcast_field(grid, level, zeros))
    assert np.signbit(_broadcast_field(grid, 3, zeros)[1]).all()


def test_registry_names_and_cost_override():
    for name in ("ishigami", "quintic", "synthetic-field"):
        h = get_hierarchy(name)
        assert h.label == name
    h = get_hierarchy("ishigami", costs=(2.0, 0.5, 0.25))
    assert np.allclose(h.costs, [2.0, 0.5, 0.25])
    with pytest.raises(UnknownNameError):
        get_hierarchy("borehole")
