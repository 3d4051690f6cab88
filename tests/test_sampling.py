import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import whole_draw
from mfmc.errors import EvaluationError
from mfmc.hierarchy import (
    Model,
    ModelHierarchy,
    Normal,
    Uniform,
    ishigami_hierarchy,
    synthetic_field_hierarchy,
)
from mfmc.sampling import (
    _BLOCK_ELEMENTS,
    BASE_STREAM,
    SECOND_STREAM,
    SampleSet,
    _sobol_sets,
    _row_blocks,
    build_sobol_block,
    draw_inputs,
    evaluate_nested,
    sobol_cost_factor,
)


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=40),
    extra=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_draw_inputs_prefix_property(m, extra, seed):
    h = ishigami_hierarchy()
    short = draw_inputs(h, m, seed)
    long = draw_inputs(h, m + extra, seed)
    assert np.array_equal(whole_draw(short)[0], whole_draw(long)[0][:m])


@pytest.mark.parametrize(
    "sizes",
    [[65536, 65536, 1], [13107, 13107, 1], [327, 327, 1], [43690, 21846, 43690, 1]],
    ids=["scalar", "d=3 Sobol", "200-point field", "d=3 scalar parts"],
)
def test_block_draws_equal_one_whole_draw(sizes):
    # a walk draws on the row-block grid of the outputs it feeds: 65,536
    # rows for scalar outputs (in parts of 43,690 rows at d = 3), 13,107
    # for a d = 3 Sobol block, 327 for the 200-point field; each split here
    # ends in a lone row
    dists = (Uniform(-np.pi, np.pi), Normal(0.0, 1.0), Uniform(0.0, 1.0))
    edges = np.cumsum([0, *sizes])
    n, seed = int(edges[-1]), (3, 7)
    parts = list(SampleSet(dists, seed, n, sobol=True).walk(map(slice, edges[:-1], edges[1:])))
    assert [len(part[0]) for part in parts] == sizes
    for s, stream in enumerate((BASE_STREAM, SECOND_STREAM)):
        rows = np.concatenate([part[s] for part in parts])
        assert rows.shape == (n, 3)
        for j, dist in enumerate(dists):
            gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((*seed, stream, j))))
            assert np.array_equal(rows[:, j], dist.sample(gen, n))


def test_draw_inputs_distribution_mean():
    h = ishigami_hierarchy()
    (x,) = whole_draw(draw_inputs(h, 1_000_000, 42))
    assert np.all(np.abs(x.mean(axis=0)) < 0.01)
    assert x.min() >= -np.pi and x.max() <= np.pi


def test_draw_inputs_seeds_differ():
    h = ishigami_hierarchy()
    a = whole_draw(draw_inputs(h, 3, 1))[0]
    b = whole_draw(draw_inputs(h, 3, 2))[0]
    assert not np.array_equal(a[0], b[0])


def test_draw_inputs_normal_coordinates():
    h = synthetic_field_hierarchy(3)
    (x,) = whole_draw(draw_inputs(h, 200_000, 9))
    assert np.all(np.abs(x.mean(axis=0)) < 0.02)
    assert np.all(np.abs(x.std(axis=0) - 1.0) < 0.02)


def test_evaluate_nested_shapes_and_shared_inputs():
    h = synthetic_field_hierarchy(6)
    s = draw_inputs(h, 5, 3)
    evals = evaluate_nested(h, s, [2, 5, 5])
    assert evals.outputs[0].shape == (2, 6)
    assert evals.outputs[1].shape == (5, 6)
    # the first model's rows coincide with the second model's leading rows
    direct = h.models[1].evaluate_batch(whole_draw(s)[0][:2])
    assert np.array_equal(evals.outputs[1][:2], direct)


def test_evaluate_nested_identical_prefix_means():
    h = ishigami_hierarchy()
    s = draw_inputs(h, 3, 8)
    evals = evaluate_nested(h, s, [3, 3, 3])
    y2 = evals.outputs[1]
    assert y2[:3].mean() == y2.mean()  # the telescoping difference is exactly zero


def test_realized_cost_matches_count_weighted_sum():
    h = ishigami_hierarchy()  # costs (1, 0.05, 0.001)
    s = draw_inputs(h, 9633, 4)
    evals = evaluate_nested(h, s, [7, 461, 9633])
    assert evals.cost == pytest.approx(39.683, abs=1e-12)


def test_evaluate_nested_rejects_bad_m_vectors():
    h = ishigami_hierarchy()
    s = draw_inputs(h, 10, 0)
    with pytest.raises(ValueError):
        evaluate_nested(h, s, [5, 3, 6])  # decreasing
    with pytest.raises(ValueError):
        evaluate_nested(h, s, [2, 0, 5])  # interior zero
    with pytest.raises(ValueError):
        evaluate_nested(h, s, [0, 2, 5])  # no high-fidelity samples
    evals = evaluate_nested(h, s, [2, 5, 0])  # trailing drop is fine
    assert evals.outputs[2].shape[0] == 0


def test_nested_reproducibility_bit_exact():
    h = synthetic_field_hierarchy(4)
    a = evaluate_nested(h, draw_inputs(h, 20, 11), [5, 10, 20])
    b = evaluate_nested(h, draw_inputs(h, 20, 11), [5, 10, 20])
    for ya, yb in zip(a.outputs, b.outputs):
        assert np.array_equal(ya, yb)


def test_sobol_block_swap_structure():
    h = ishigami_hierarchy()
    block = build_sobol_block(h, 6, 13)
    s, s2 = whole_draw(block)
    y1 = list(_sobol_sets(s, s2))[2]
    assert np.array_equal(y1[:, 0], s[:, 0])
    assert np.array_equal(y1[:, 1:], s2[:, 1:])
    assert not np.array_equal(s, s2)


def test_sobol_block_degenerate_identity():
    # forcing the second set equal to the base set makes every mixed set equal too
    h = ishigami_hierarchy()
    base, _ = whole_draw(build_sobol_block(h, 4, 5))
    mixed = list(_sobol_sets(base, base.copy()))[2:]
    assert len(mixed) == 3
    for yj in mixed:
        assert np.array_equal(yj, base)


def test_sobol_cost_counts_d_plus_two_blocks():
    h = ishigami_hierarchy()
    block = build_sobol_block(h, 10, 3)
    assert sobol_cost_factor(3) == 5.0
    # the block itself fixes the d + 2 runs per row: 5 * 10 * (1 + 0.05 + 0.001)
    assert evaluate_nested(h, block, [10, 10, 10]).cost == 52.55


def test_sobol_block_outputs_are_d_plus_two_contiguous_columns():
    h = ishigami_hierarchy()
    block = build_sobol_block(h, 12, 4)
    evals = evaluate_nested(h, block, [5, 12, 0])
    sets = list(_sobol_sets(*whole_draw(block)))
    for i, model in enumerate(h.models[:2]):
        out = evals.outputs[i]
        assert out.shape == (evals.m[i], 5)
        for c, inputs in enumerate(sets):
            assert out[:, c].flags.c_contiguous
            assert np.array_equal(out[:, c], model.evaluate_batch(inputs[: evals.m[i]])[:, 0])
    assert evals.outputs[2].shape == (0, 5)
    field = synthetic_field_hierarchy(n_points=3)
    with pytest.raises(ValueError):
        evaluate_nested(field, build_sobol_block(field, 4, 1), [4] * field.n_models)


class _Linear:
    def __init__(self, coef):
        self.coef = np.asarray(coef, dtype=float)

    def __call__(self, s):
        return (s @ self.coef)[:, None]


def test_prefix_mean_covariance_cancellation():
    """The correction terms are uncorrelated with any other model's mean.

    Empirical restatement of the zero-covariance identity behind the error
    formula: cov(mean_j over m2, mean_k over m1 - mean_k over m2) = 0 when
    the samples are shared and nested.
    """
    models = (
        Model(_Linear([1.0, 0.0]), 1.0, "a", vectorized=True),
        Model(_Linear([0.7, 0.3]), 0.1, "b", vectorized=True),
    )
    h = ModelHierarchy(models, (Normal(0.0, 1.0), Normal(0.0, 1.0)), 1)
    m1, m2, reps = 10, 40, 5000
    qa = np.empty(reps)
    diff = np.empty(reps)
    for r in range(reps):
        evals = evaluate_nested(h, draw_inputs(h, m2, (991, r)), [m2, m2])
        yb = evals.outputs[1][:, 0]
        qa[r] = evals.outputs[0][:, 0].mean()
        diff[r] = yb[:m1].mean() - yb.mean()
    prod = (qa - qa.mean()) * (diff - diff.mean())
    cov = prod.sum() / (reps - 1)
    stderr = prod.std(ddof=1) / np.sqrt(reps)
    assert abs(cov) < 3 * stderr


def _table_hierarchy(*tables):
    """A hierarchy whose model i returns the leading rows of ``tables[i]``."""
    models = tuple(
        Model(lambda z, t=t: t[: z.shape[0]], 1.0 / 10**i, f"table{i}", vectorized=True)
        for i, t in enumerate(tables)
    )
    return ModelHierarchy(models, (Normal(0.0, 1.0),), output_length=tables[0].shape[1])


def test_evaluate_nested_memory_beyond_outputs_is_bounded():
    table = np.random.default_rng(5).normal(size=(20_000, 200))
    h = _table_hierarchy(table)
    samples = draw_inputs(h, 20_000, 1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        evals = evaluate_nested(h, samples, [20_000])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.shares_memory(evals.outputs[0], table)
    # a one-shot finiteness mask would be 20,000 x 200 bytes = 4 MB
    assert peak < 1e6


@pytest.mark.parametrize("width", [1, 200])
@pytest.mark.parametrize("where", ["row 0", "later block start", "last row"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_nested_names_first_non_finite_sample(width, where, bad):
    rows_per_block = max(1, _BLOCK_ELEMENTS // width)
    n = 3 * rows_per_block + 7
    row = {"row 0": 0, "later block start": 2 * rows_per_block, "last row": n - 1}[where]
    table = np.ones((n, width))
    table[row, width // 2] = bad
    table[n - 1, 0] = np.nan  # a later bad value must not be the one reported
    h = _table_hierarchy(np.ones((n, width)), table)
    with pytest.raises(EvaluationError) as info:
        evaluate_nested(h, draw_inputs(h, n, 2), [n // 2, n])
    assert info.value.model_index == 1
    assert info.value.sample_index == row


def _shape_drift_case(case):
    """(hierarchy, samples) whose model 1 returns outputs of the wrong shape."""
    dists = (Normal(0.0, 1.0), Normal(0.0, 1.0))
    if case == "too few rows":
        models = (
            Model(lambda z: z[:, [0]], 1.0, "hf", vectorized=True),
            Model(lambda z: z[:5, [0]], 0.1, "short", vectorized=True),
        )
        h = ModelHierarchy(models, dists)
        return h, draw_inputs(h, 50, 1)
    if case == "narrow vector output":
        models = (
            Model(lambda z: z.copy(), 1.0, "hf", vectorized=True),
            Model(lambda z: z[:, [0]], 0.1, "narrow", vectorized=True),
        )
        h = ModelHierarchy(models, dists, output_length=2)
        return h, draw_inputs(h, 50, 1)
    models = (
        Model(lambda z: z[:, [0]], 1.0, "hf", vectorized=True),
        Model(lambda z: z.copy(), 0.1, "wide", vectorized=True),
    )
    h = ModelHierarchy(models, dists)
    return h, build_sobol_block(h, 50, 1)


@pytest.mark.parametrize("case", ["too few rows", "narrow vector output", "wide Sobol output"])
def test_evaluate_nested_names_model_with_wrong_output_shape(case):
    h, samples = _shape_drift_case(case)
    with pytest.raises(EvaluationError, match="shape") as info:
        evaluate_nested(h, samples, [50, 50])
    assert info.value.model_index == 1
    assert info.value.model_label == h.models[1].label


@pytest.mark.parametrize("width", [1, 2, 200])
def test_row_blocks_lie_on_a_fixed_grid(width):
    step = max(1, _BLOCK_ELEMENTS // width)
    for n in [1, step - 1, step, step + 1, 3 * step + 1]:
        blocks = _row_blocks(n, width)
        assert [b.start for b in blocks] == list(range(0, n, step))
        assert blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all(0 < b.stop - b.start <= step for b in blocks)
    # a prefix is cut where the whole is, up to its own end
    assert _row_blocks(2 * step + 5, width)[:2] == _row_blocks(3 * step, width)[:2]
    assert [b.stop - b.start for b in _row_blocks(3 * step + 1, width)] == [step] * 3 + [1]
    assert _row_blocks(0, width) == []
