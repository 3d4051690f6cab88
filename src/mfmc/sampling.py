"""Reproducible input sampling and nested model evaluation.

Sampling is counter-based: every (seed, stream, coordinate) triple maps to
its own Philox stream, and row r of a sample matrix always sits at the same
position of that stream. Consequences we rely on everywhere:

* prefix stability -- ``draw_inputs(h, m, seed)`` is row-for-row a prefix of
  ``draw_inputs(h, m2, seed)`` for any m2 > m;
* worker independence -- inputs are drawn up front, model evaluations are
  pure functions assembled by row index, so parallelism cannot change any
  result.

All models are evaluated on prefixes of one shared input sequence
(nested sampling); the statistics machinery depends on that sharing. The
evaluation container is :class:`NestedEvaluations`. A Sobol block is
just a wider input row: model i's outputs on it are (m[i], d + 2) columns
(base, second, mixed_1..mixed_d), and its cost convention is a plain
multiplier on the evaluation cost. :class:`PrefixSums` keeps, instead of
vector outputs, only what the expectation and the variance read of them at
given prefixes: column sums, and shifted moments (count, mean, centred sum
of squares). Both are folded row block by row block on one fixed grid, so
held outputs and streamed blocks give the same values bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EvaluationError
from .hierarchy import Model, ModelHierarchy

# Stream ids: 0 is a hierarchy's base input stream, 1 the independent second
# stream used by the Sobol block construction.
BASE_STREAM = 0
SECOND_STREAM = 1

# Elements per block of the row-blocked passes over model outputs (the
# finiteness check and the folds of column sums and moments): their working
# memory is one block, however many rows the outputs have.
_BLOCK_ELEMENTS = 65536


def _seed_tuple(seed) -> tuple[int, ...]:
    if isinstance(seed, (tuple, list)):
        return tuple(int(s) & 0xFFFFFFFFFFFFFFFF for s in seed)
    return (int(seed) & 0xFFFFFFFFFFFFFFFF,)


def _column_generator(seed, stream: int, column: int) -> np.random.Generator:
    key = _seed_tuple(seed) + (int(stream), int(column))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


@dataclass(frozen=True, eq=False)
class SampleSet:
    """An (m, d) matrix of i.i.d. input samples plus the seed that made it."""

    inputs: np.ndarray
    seed: tuple
    stream: int
    distributions: tuple

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_sets(self) -> tuple:
        return (self.inputs,)


@dataclass(eq=False)
class NestedEvaluations:
    """Per-model outputs on nested prefixes of one shared input sequence.

    ``outputs[i]`` has shape (m[i], n_out) and was produced by model i on
    the first m[i] rows of ``samples``. On a :class:`SobolSampleBlock`,
    n_out is d + 2 (base, second, mixed_1..mixed_d), stored column-major so
    each column is contiguous. The sample means needed by the telescoping
    estimators at any prefix length come from slicing these arrays; no
    re-evaluation is ever required.
    """

    outputs: list
    m: np.ndarray
    samples: SampleSet
    cost: float

    @property
    def width(self) -> int:
        return self.outputs[0].shape[1]

    def column_sum(self, model_index: int, m: int) -> np.ndarray:
        """Column sums of model ``model_index``'s outputs on the first m rows."""
        return np.add.reduce(self.outputs[model_index][:m], axis=0)

    def moments(self, model_index: int, m: int) -> _Moments:
        """Shifted moments of model ``model_index``'s outputs on the first m rows,
        folded over the held rows exactly as :class:`PrefixSums` folds streamed ones."""
        x = self.outputs[model_index][:m]
        blocks = ((rows.start, x[rows]) for rows in _row_blocks(m, x.shape[1]))
        return _fold_prefixes(blocks, {m}, (_fold_moments,), x.shape[1])[m][_fold_moments]


@dataclass(eq=False)
class PrefixSums:
    """Folded states of each model's outputs at chosen prefixes, without the outputs.

    ``sums[i, s][fold]`` is the state of ``fold`` (:func:`_fold_sum` or
    :func:`_fold_moments`) over model i's outputs on the first s rows of
    ``samples``; ``m`` and ``cost`` are as in :class:`NestedEvaluations`.
    Built by :func:`_sum_counts`, which never holds more than one row block
    of outputs.
    """

    sums: dict
    m: np.ndarray
    samples: SampleSet
    cost: float
    width: int

    def column_sum(self, model_index: int, m: int) -> np.ndarray:
        return self.sums[model_index, m][_fold_sum]

    def moments(self, model_index: int, m: int) -> _Moments:
        return self.sums[model_index, m][_fold_moments]


@dataclass(frozen=True, eq=False)
class SobolSampleBlock:
    """Base set s, independent second set s2, and the d mixed sets.

    Mixed set j equals s2 in every coordinate except coordinate j, which is
    taken from s. Evaluating one model on all blocks therefore costs
    (d + 2) evaluations per sample.
    """

    base: SampleSet
    second: SampleSet
    mixed: tuple

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def dimension(self) -> int:
        return len(self.mixed)

    @property
    def seed(self) -> tuple:
        return self.base.seed

    @property
    def input_sets(self) -> tuple:
        return (self.base.inputs, self.second.inputs, *self.mixed)


def draw_inputs(hierarchy: ModelHierarchy, m: int, seed, stream: int = BASE_STREAM) -> SampleSet:
    """Draw m rows from the hierarchy's input distribution.

    Rows are generated column-by-column from per-coordinate Philox streams,
    so the result for a given (seed, stream) is a prefix of any longer draw.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    cols = []
    for j, dist in enumerate(hierarchy.input_distributions):
        gen = _column_generator(seed, stream, j)
        cols.append(dist.sample(gen, m))
    inputs = np.column_stack(cols)
    return SampleSet(inputs, _seed_tuple(seed), stream, hierarchy.input_distributions)


def _validate_m_vec(m_vec, n_models, n_rows):
    m = np.asarray(m_vec, dtype=int)
    if m.shape != (n_models,):
        raise ValueError(f"m_vec must have one entry per model ({n_models}), got {m.shape}")
    if np.any(m < 0):
        raise ValueError("m_vec entries must be >= 0")
    nonzero = np.flatnonzero(m)
    if nonzero.size == 0 or m[0] < 1:
        raise ValueError("the high-fidelity model needs at least one sample")
    live = m[: nonzero[-1] + 1]
    if np.any(live == 0):
        raise ValueError("m_vec may only be zero for a trailing set of dropped models")
    if np.any(np.diff(live) < 0):
        raise ValueError("m_vec must be nondecreasing over evaluated models")
    if live.max() > n_rows:
        raise ValueError(f"sample set has {n_rows} rows, need {live.max()}")
    return m


def _block_rows(width: int) -> int:
    """Rows per block: about ``_BLOCK_ELEMENTS`` elements, and at least one row."""
    return max(1, _BLOCK_ELEMENTS // max(width, 1))


def _row_blocks(n_rows: int, width: int) -> list:
    """Consecutive row slices covering ``n_rows`` rows of ``width`` columns.

    The blocks start at ``range(0, n_rows, _block_rows(width))``: a fixed
    grid, so the blocks of a prefix are those of the whole but the last.
    """
    step = _block_rows(width)
    edges = [*range(0, n_rows, step), n_rows]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _evaluate_checked(
    model: Model, inputs: np.ndarray, model_index: int, width: int, start: int = 0
) -> np.ndarray:
    """One ``evaluate_batch`` call on sample rows ``start``.. onwards, checked.

    The output must have one row per input row and ``width`` columns, and
    every value must be finite (checked one row block at a time). A failure
    raises :class:`EvaluationError` naming the model and, for a non-finite
    value, the sample.
    """
    out = model.evaluate_batch(inputs)
    if out.shape != (inputs.shape[0], width):
        raise EvaluationError(
            f"model {model.label!r} (index {model_index}) returned outputs of shape "
            f"{out.shape} for {inputs.shape[0]} input rows; expected "
            f"({inputs.shape[0]}, {width})",
            model_index=model_index,
            model_label=model.label,
        )
    blocks = _row_blocks(*out.shape)
    if not blocks:
        return out
    finite = np.empty((blocks[0].stop, width), dtype=bool)
    for rows in blocks:
        ok = np.isfinite(out[rows], out=finite[: rows.stop - rows.start])
        if not ok.all():
            row = start + rows.start + int(np.flatnonzero(~ok.all(axis=1))[0])
            raise EvaluationError(
                f"model {model.label!r} (index {model_index}) produced a non-finite "
                f"output at sample {row}",
                model_index=model_index,
                model_label=model.label,
                sample_index=row,
            )
    return out


class _Moments(NamedTuple):
    """Moments of the rows folded so far, each shifted by ``shift``."""

    shift: np.ndarray  # the first row folded
    n: int
    mean: np.ndarray  # of the shifted rows
    m2: np.ndarray  # centred sum of squares


def _fold_sum(total, block: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """``total`` (None before the first block) plus the column sums of ``block``.

    The block is copied into ``buf`` under the running sum, which it carries
    in as its first row. numpy sums a C-contiguous float64 array of width
    >= 2 down axis 0 one row after another, so the result equals
    ``np.add.reduce(outputs[:s], axis=0)`` of all rows so far bit for bit.
    Width 1 is summed pairwise, which blocking would reorder; only wider
    outputs are streamed.
    """
    k = len(block)
    buf[1 : k + 1] = block
    if total is None:
        return np.add.reduce(buf[1 : k + 1], axis=0)
    buf[0] = total
    return np.add.reduce(buf[: k + 1], axis=0)


def _pairwise_row_sum(y: np.ndarray) -> np.ndarray:
    """Sum of the rows of ``y``, adding its back half onto its front half in
    place until one row is left (so ``y`` is overwritten).

    The rounding error grows with log2 of the rows, where a row-after-row
    sum of squares can drift with their number: 3e-13 relative was seen
    at 32,768 rows of outputs offset by 1e10.
    """
    k = len(y)
    while k > 1:
        half = k // 2
        y[:half] += y[k - half : k]
        k -= half
    return y[0].copy()


def _fold_moments(state, block: np.ndarray, buf: np.ndarray) -> _Moments:
    """``state`` (None before the first block) merged with the moments of ``block``.

    Every row is shifted by the first row folded, so the sums stay on the
    scale of the spread whatever the offset of the outputs. The shifted
    copy goes into ``buf``, C-contiguous whatever the block's layout; one
    pass over it gives the block's mean, a second its centred sum of
    squares (:func:`_pairwise_row_sum`). Both are merged into the running
    state by the pairwise update of Chan, Golub & LeVeque (1979).
    """
    k = len(block)
    shift = block[0].copy() if state is None else state.shift
    y = np.subtract(block, shift, out=buf[:k])
    mean = np.add.reduce(y, axis=0) / k
    np.subtract(y, mean, out=y)
    m2 = _pairwise_row_sum(np.square(y, out=y))
    if state is None:
        return _Moments(shift, k, mean, m2)
    n = state.n + k
    delta = mean - state.mean
    return _Moments(
        shift, n, state.mean + delta * (k / n), state.m2 + m2 + delta**2 * (state.n * k / n)
    )


def _fold_prefixes(blocks, stops, folds, width: int) -> dict:
    """``{s: {fold: state}}``: each fold's state over the first s rows, for s in ``stops``.

    ``blocks`` yields (start, rows) pairs on the grid of :func:`_row_blocks`,
    from row 0 to the last stop. Each block is folded into the running
    states; a stop inside a block folds the block's first rows into a copy
    of them. So a state depends only on its rows, never on the other stops
    or on where the rows came from.
    """
    buf = np.empty((_block_rows(width) + 1, width))
    states = dict.fromkeys(folds)
    out = {}
    for start, rows in blocks:
        stop = start + len(rows)
        for s in stops:
            if start < s < stop:
                out[s] = {f: f(states[f], rows[: s - start], buf) for f in folds}
        states = {f: f(states[f], rows, buf) for f in folds}
        if stop in stops:
            out[stop] = states
    return out


def _nested_cost(costs, m, cost_factor: float) -> float:
    """Cost of evaluating model i on m[i] rows, at ``cost_factor`` units per row.

    The sum runs over the evaluated models (m[i] > 0) only: a dot product
    over zero entries can group the terms differently and round otherwise.
    """
    live = np.flatnonzero(m)
    return float(np.dot(costs[live], m[live]) * cost_factor)


def _evaluate_counts(
    hierarchy: ModelHierarchy, samples, m, cost_factor: float = 1.0
) -> NestedEvaluations:
    """Model i on the first m[i] rows of ``samples``, checked; m[i] == 0 skips it.

    ``m`` is indexed like the hierarchy and already validated; the rest is
    as in :func:`evaluate_nested`.
    """
    sets = samples.input_sets
    if len(sets) > 1 and hierarchy.output_length != 1:
        raise ValueError("Sobol evaluation requires scalar-output models")
    width = hierarchy.output_length * len(sets)
    outputs = []
    for i, model in enumerate(hierarchy.models):
        if m[i] == 0:
            outputs.append(np.empty((0, width)))
        elif len(sets) == 1:
            outputs.append(_evaluate_checked(model, sets[0][: m[i]], i, width))
        else:
            out = np.empty((m[i], width), order="F")
            for c, inputs in enumerate(sets):
                out[:, c] = _evaluate_checked(model, inputs[: m[i]], i, 1)[:, 0]
            outputs.append(out)
    return NestedEvaluations(outputs, m, samples, _nested_cost(hierarchy.costs, m, cost_factor))


def _sum_counts(hierarchy: ModelHierarchy, samples: SampleSet, m, folds) -> PrefixSums:
    """:func:`_evaluate_counts` folded by each of ``folds``, never holding outputs.

    Each evaluated model is called one row block at a time, each block is
    checked and folded, and the states are kept at the model's own count
    and at the previous evaluated model's, the prefixes the telescoping
    combiner reads. One walk per model serves every fold.
    """
    width = hierarchy.output_length
    sums = {}
    prev = 0
    for i, model in enumerate(hierarchy.models):
        if m[i] == 0:
            continue
        stops = {int(m[prev]), int(m[i])}
        blocks = (
            (rows.start, _evaluate_checked(model, samples.inputs[rows], i, width, rows.start))
            for rows in _row_blocks(max(stops), width)
        )
        for stop, states in _fold_prefixes(blocks, stops, folds, width).items():
            sums[i, stop] = states
        prev = i
    return PrefixSums(sums, m, samples, _nested_cost(hierarchy.costs, m, 1.0), width)


def evaluate_nested(
    hierarchy: ModelHierarchy, samples, m_vec, cost_factor: float = 1.0
) -> NestedEvaluations:
    """Evaluate model i on the first m_vec[i] rows of ``samples``.

    ``samples`` is a :class:`SampleSet` or a :class:`SobolSampleBlock`; a
    block's (d + 2) input sets become output columns of scalar models, and
    ``cost_factor`` (see :func:`sobol_cost_factor`) scales the cost.
    m_vec must be nondecreasing over evaluated models; zeros are allowed
    only for a trailing run of dropped models. Equal consecutive entries are
    fine (the corresponding telescoping term is exactly zero downstream).
    """
    m = _validate_m_vec(m_vec, hierarchy.n_models, samples.n)
    return _evaluate_counts(hierarchy, samples, m, cost_factor)


def build_sobol_block(hierarchy: ModelHierarchy, m: int, seed) -> SobolSampleBlock:
    """Draw the base/second/mixed input sets used by Sobol index estimators."""
    if m < 2:
        raise ValueError("Sobol blocks need m >= 2")
    s = draw_inputs(hierarchy, m, seed, stream=BASE_STREAM)
    s2 = draw_inputs(hierarchy, m, seed, stream=SECOND_STREAM)
    mixed = []
    for j in range(hierarchy.input_dimension):
        yj = s2.inputs.copy()
        yj[:, j] = s.inputs[:, j]
        mixed.append(yj)
    return SobolSampleBlock(s, s2, tuple(mixed))


SOBOL_COST_CONVENTIONS = ("per-evaluation", "per-sample")


def sobol_cost_factor(dimension: int, convention: str) -> float:
    """Cost units charged per Sobol sample of one model.

    ``per-evaluation`` charges all d + 2 model runs behind each sample;
    ``per-sample`` charges a flat single evaluation per sample.
    """
    if convention == "per-evaluation":
        return float(dimension + 2)
    if convention == "per-sample":
        return 1.0
    raise ValueError(f"unknown Sobol cost convention {convention!r}")


# Kept for perfbench, which traces this name; delete it with the next
# benchmark change.


def evaluate_sobol_nested(hierarchy, block, m_vec, cost_convention="per-evaluation"):
    factor = sobol_cost_factor(block.dimension, cost_convention)
    return evaluate_nested(hierarchy, block, m_vec, factor)
