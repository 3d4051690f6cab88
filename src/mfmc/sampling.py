"""Reproducible input sampling and nested model evaluation.

Sampling is counter-based: every (seed, stream, coordinate) triple maps to
its own Philox stream, and row r of a sample matrix always sits at the same
position of that stream. Consequences we rely on everywhere:

* prefix stability -- ``draw_inputs(h, m, seed)`` is row-for-row a prefix of
  ``draw_inputs(h, m2, seed)`` for any m2 > m;
* worker independence -- inputs are drawn up front, model evaluations are
  pure functions assembled by row index, so parallelism cannot change any
  result.

All models are evaluated on prefixes of one shared input sequence (nested
sampling); the statistics machinery depends on that sharing. A Sobol block
is just a wider input row: model i's outputs on it are (m[i], d + 2)
columns (base, second, mixed_1..mixed_d), and its cost convention is a
plain multiplier on the evaluation cost.

Every statistic is read from a *fold*: a function that merges one row
block of outputs into a running state (column sums, shifted moments,
co-moments, sums of squared differences). Estimation never holds outputs:
:func:`_sum_counts` evaluates each model one row block at a time and keeps
only the folded states at the prefixes the telescoping combiner reads, in
a :class:`PrefixSums`. The pilot, which needs per-sample values, holds its
outputs in :class:`NestedEvaluations`, and reading a statistic from held
outputs runs the same folds over the same fixed grid of row blocks, so
held and streamed outputs give the same values bit for bit.
"""

from __future__ import annotations

import functools
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
    """An (m, d) matrix of i.i.d. input samples."""

    inputs: np.ndarray

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


@dataclass(eq=False)
class NestedEvaluations:
    """Per-model outputs on nested prefixes of one shared input sequence.

    ``outputs[i]`` has shape (m[i], n_out) and was produced by model i on
    the first m[i] shared input rows. On a :class:`SobolSampleBlock`,
    n_out is d + 2 (base, second, mixed_1..mixed_d), stored column-major so
    each column is contiguous.
    """

    outputs: list
    m: np.ndarray
    cost: float

    def state(self, model_index: int, m: int, fold):
        """``fold``'s state over model ``model_index``'s outputs on the first m
        rows, folded over the held rows exactly as :func:`_sum_counts` folds
        streamed ones."""
        x = self.outputs[model_index][:m]
        blocks = ((rows.start, x[rows]) for rows in _row_blocks(m, x.shape[1]))
        return _fold_prefixes(blocks, {m}, (fold,), x.shape[1])[m][fold]


@dataclass(eq=False)
class PrefixSums:
    """Folded states of each model's outputs at chosen prefixes, without the outputs.

    ``sums[i, s][fold]`` is the state of ``fold`` over model i's outputs on
    the first s input rows; ``m`` and ``cost`` are as in
    :class:`NestedEvaluations`. Built by :func:`_sum_counts`, which never
    holds more than one row block of outputs.
    """

    sums: dict
    m: np.ndarray
    cost: float

    def state(self, model_index: int, m: int, fold):
        return self.sums[model_index, m][fold]


@dataclass(frozen=True, eq=False)
class SobolSampleBlock:
    """Base set s and independent second set s2 of a Sobol block.

    Mixed set j equals s2 in every coordinate except coordinate j, which is
    taken from s. Evaluating one model on all sets therefore costs (d + 2)
    evaluations per sample. Only s and s2 are stored: the mixed sets are
    built a row block at a time as they are evaluated (:meth:`row_sets`).
    """

    base: SampleSet
    second: SampleSet

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def dimension(self) -> int:
        return self.base.inputs.shape[1]

    def row_sets(self, rows: slice):
        """``rows`` of the base, second and mixed_1..mixed_d sets, in that
        order; each mixed block is built when it is reached."""
        base, second = self.base.inputs[rows], self.second.inputs[rows]
        yield base
        yield second
        for j in range(self.dimension):
            mixed = second.copy()
            mixed[:, j] = base[:, j]
            yield mixed


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
    return SampleSet(inputs)


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


def _output_width(hierarchy: ModelHierarchy, samples) -> int:
    """Output columns of the hierarchy's models on ``samples``.

    A :class:`SobolSampleBlock`'s d + 2 sets give one column each, so its
    models must have scalar outputs.
    """
    if isinstance(samples, SobolSampleBlock):
        if hierarchy.output_length != 1:
            raise ValueError("Sobol evaluation requires scalar-output models")
        return samples.dimension + 2
    return hierarchy.output_length


def _evaluate_shaped(
    model: Model, inputs: np.ndarray, model_index: int, width: int
) -> np.ndarray:
    """One ``evaluate_batch`` call, its output checked to have one row per
    input row and ``width`` columns; a mismatch raises
    :class:`EvaluationError` naming the model."""
    out = model.evaluate_batch(inputs)
    if out.shape != (inputs.shape[0], width):
        raise EvaluationError(
            f"model {model.label!r} (index {model_index}) returned outputs of shape "
            f"{out.shape} for {inputs.shape[0]} input rows; expected "
            f"({inputs.shape[0]}, {width})",
            model_index=model_index,
            model_label=model.label,
        )
    return out


def _evaluate_rows(model: Model, samples, rows: slice, model_index: int, width: int) -> np.ndarray:
    """``model`` on sample ``rows`` of every input set, shape-checked
    (:func:`_evaluate_shaped`). The d + 2 sets of a Sobol block give one
    column each, stored column-major; each mixed set's rows are built just
    before they are evaluated."""
    if isinstance(samples, SampleSet):
        return _evaluate_shaped(model, samples.inputs[rows], model_index, width)
    out = np.empty((rows.stop - rows.start, width), order="F")
    for c, inputs in enumerate(samples.row_sets(rows)):
        out[:, c] = _evaluate_shaped(model, inputs, model_index, 1)[:, 0]
    return out


def _check_finite(out: np.ndarray, model: Model, model_index: int, start: int = 0) -> None:
    """Raise :class:`EvaluationError` naming the first non-finite row of ``out``,
    the outputs of ``model`` on sample rows ``start``.. onwards.

    The scan runs one row block at a time, so its working memory is one
    block of booleans however many rows ``out`` has.
    """
    blocks = _row_blocks(*out.shape)
    if not blocks:
        return
    finite = np.empty((blocks[0].stop, out.shape[1]), dtype=bool)
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


class _Moments(NamedTuple):
    """Moments of the rows folded so far, each shifted by ``shift``."""

    shift: np.ndarray  # the first row folded
    n: int
    mean: np.ndarray  # of the shifted rows
    m2: np.ndarray  # centred sum of squares (or of products, _fold_sobol_main)


class _Scratch:
    """The folds' working memory for rows of ``width`` values, allocated when
    a fold first asks for it and grown to the largest request. A fold that
    needs none (the first block of a column sum) allocates none, and memory
    allocated after a model's block is evaluated can reuse what the model
    freed, where a buffer held through the evaluation takes fresh pages."""

    def __init__(self, width: int):
        self.width = width
        self._flat = np.empty(0)

    def rows(self, k: int, order: str = "C") -> np.ndarray:
        """The memory of k rows as a (k, width) array in ``order``."""
        if self._flat.size < k * self.width:
            self._flat = np.empty(k * self.width)
        return self._flat[: k * self.width].reshape((k, self.width), order=order)


def _fold_sum(total, block: np.ndarray, buf: _Scratch) -> np.ndarray:
    """``total`` (None before the first block) plus the column sums of ``block``.

    A later block is copied into ``buf`` under the running sum, which it
    carries in as its first row; the first block is summed C-contiguous.
    numpy sums a C-contiguous float64 array of width >= 2 down axis 0 one
    row after another, so the result equals ``np.add.reduce(outputs[:s],
    axis=0)`` of all rows so far bit for bit. A single column is summed
    pairwise, so it equals that sum within the first block (65,536 rows)
    and adds each later block's pairwise sum.
    """
    if total is None:
        return np.add.reduce(np.ascontiguousarray(block), axis=0)
    rows = buf.rows(len(block) + 1)
    rows[1:] = block
    rows[0] = total
    return np.add.reduce(rows, axis=0)


def _pairwise_row_sum(y: np.ndarray) -> np.ndarray:
    """Sum of the rows of ``y`` (which may be overwritten), summed pairwise.

    The rounding error grows with log2 of the rows, where a row-after-row
    sum of squares can drift with their number: 3e-13 relative was seen
    at 32,768 rows of outputs offset by 1e10. numpy sums a single column
    (any contiguous column) pairwise itself, but row-major rows of width
    >= 2 one row after another, so those are summed by adding the back
    half onto the front half in place until one row is left.
    """
    if y.flags.f_contiguous:
        return np.add.reduce(y, axis=0)
    k = len(y)
    while k > 1:
        half = k // 2
        y[:half] += y[k - half : k]
        k -= half
    return y[0].copy()


def _fold_moments(state, block: np.ndarray, buf: _Scratch) -> _Moments:
    """``state`` (None before the first block) merged with the moments of ``block``.

    The rows are shifted so the sums stay on the scale of the spread
    whatever the offset of the outputs; the shifted copy goes into ``buf``,
    C-contiguous whatever the block's layout. The first block is shifted
    by its first row, which stays the state's ``shift``, and centred on its
    mean in a second pass; that mean is summed pairwise
    (:func:`_pairwise_row_sum`), since its error enters every later merge.
    Every later block is shifted in one subtract by the running mean ``c``;
    from the sum ``s1`` and the pairwise sum of squares of the shifted rows
    ``y``, its centred sum of squares is ``sum(y**2) - s1 * (s1 / k)`` and
    its mean ``c + s1 / k``. Near the running mean, ``s1`` is small and the
    difference loses few digits. The block is merged into the state by the
    pairwise update of Chan, Golub & LeVeque (1979).
    """
    k = len(block)
    if state is None:
        shift = block[0].copy()
        y = np.subtract(block, shift, out=buf.rows(k))
        mean = _pairwise_row_sum(y if y.flags.f_contiguous else y.copy()) / k
        np.subtract(y, mean, out=y)
        return _Moments(shift, k, mean, _pairwise_row_sum(np.square(y, out=y)))
    c = state.shift + state.mean
    y = np.subtract(block, c, out=buf.rows(k))
    s1 = np.add.reduce(y, axis=0)
    mean = (c - state.shift) + s1 / k
    m2 = _pairwise_row_sum(np.square(y, out=y)) - s1 * (s1 / k)
    n = state.n + k
    delta = mean - state.mean
    return _Moments(
        state.shift,
        n,
        state.mean + delta * (k / n),
        state.m2 + m2 + delta**2 * (state.n * k / n),
    )


# A Sobol block's columns are its input sets: base (0), second (1) and
# mixed_1..mixed_d (2..). Its folds work column-major, since numpy loops
# over a (k, d + 2) row-major block one short row at a time (about ten
# times slower at d = 3), and sums each contiguous column pairwise.


def _fold_sobol_main(state, block: np.ndarray, buf: _Scratch) -> _Moments:
    """``state`` (None before the first block) merged with the co-moments of
    a Sobol block's base column with each mixed column: ``m2[j]`` is
    sum((base - mean) * (mixed_j - mean)), and ``mean`` covers every column.

    The block is shifted and merged as in :func:`_fold_moments`, with the
    products of the base column and the mixed columns in place of the
    squares: a later block's centred sum of products is
    ``sum(y_base * y_j) - s1_base * (s1_j / k)``, and the merge adds
    ``delta_base * delta_j * n_a * k / n``.
    """
    k = len(block)
    y = buf.rows(k, "F")
    if state is None:
        shift = block[0].copy()
        np.subtract(block, shift, out=y)
        mean = np.add.reduce(y, axis=0) / k
        np.subtract(y, mean, out=y)
        m2 = np.add.reduce(np.multiply(y[:, 2:], y[:, :1], out=y[:, 2:]), axis=0)
        return _Moments(shift, k, mean, m2)
    c = state.shift + state.mean
    np.subtract(block, c, out=y)
    s1 = np.add.reduce(y, axis=0)
    mean = (c - state.shift) + s1 / k
    m2 = np.add.reduce(np.multiply(y[:, 2:], y[:, :1], out=y[:, 2:]), axis=0) - s1[2:] * (s1[0] / k)
    n = state.n + k
    delta = mean - state.mean
    return _Moments(
        state.shift,
        n,
        state.mean + delta * (k / n),
        state.m2 + m2 + delta[2:] * delta[0] * (state.n * k / n),
    )


def _fold_sobol_total(total, block: np.ndarray, buf: _Scratch) -> np.ndarray:
    """``total`` (None before the first block) plus the column sums of
    ``(block - second)**2`` for a Sobol block: sum((second - mixed_j)**2)
    in column j + 2. Column 0 (base minus second) is kept so that every
    column enters the state (:func:`_finite_state`). Each block is summed
    pairwise, column-major."""
    k = len(block)
    y = np.subtract(block, block[:, 1:2], out=buf.rows(k, "F"))
    s = np.add.reduce(np.square(y, out=y), axis=0)
    return s if total is None else total + s


def _finite_state(state) -> bool:
    """Whether a fold's state is finite: the sums of :func:`_fold_sum` and
    :func:`_fold_sobol_total`, the mean of :func:`_fold_moments`. Every
    column of the rows folded enters that state, and a NaN or an infinity
    makes its column NaN or infinite, so a finite state proves the rows
    finite. A non-finite one may still come from finite rows whose sum
    overflowed."""
    return bool(np.isfinite(state.mean if isinstance(state, _Moments) else state).all())


def _fold_prefixes(blocks, stops, folds, width: int, check=None) -> dict:
    """``{s: {fold: state}}``: each fold's state over the first s rows, for s in ``stops``.

    ``blocks`` yields (start, rows) pairs on the grid of :func:`_row_blocks`,
    from row 0 to the last stop. Each block is folded into the running
    states; a stop inside a block folds the block's first rows into a copy
    of them. So a state depends only on its rows, never on the other stops
    or on where the rows came from.

    ``check(rows, start=start)``, if given, runs on a block only when a
    state it was folded into is not finite (:func:`_finite_state`), so
    finite rows are never scanned element by element. The fold's
    arithmetic on a bad block raises no warning (``inf - inf``); ``check``
    reports the block.
    """
    buf = _Scratch(width)
    states = dict.fromkeys(folds)
    out = {}
    for start, rows in blocks:
        stop = start + len(rows)
        with np.errstate(invalid="ignore"):
            for s in stops:
                if start < s < stop:
                    out[s] = {f: f(states[f], rows[: s - start], buf) for f in folds}
            states = {f: f(states[f], rows, buf) for f in folds}
        if check is not None and not all(map(_finite_state, states.values())):
            check(rows, start=start)
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
    width = _output_width(hierarchy, samples)
    outputs = []
    for i, model in enumerate(hierarchy.models):
        if m[i] == 0:
            outputs.append(np.empty((0, width)))
            continue
        out = _evaluate_rows(model, samples, slice(0, m[i]), i, width)
        _check_finite(out, model, i)
        outputs.append(out)
    return NestedEvaluations(outputs, m, _nested_cost(hierarchy.costs, m, cost_factor))


def _evaluated_blocks(model: Model, samples, model_index: int, n_rows: int, width: int, transform):
    """(start, outputs) of ``model`` on the first ``n_rows`` sample rows, one
    block of the grid of :func:`_row_blocks` at a time.

    With ``transform``, each block is scanned for finiteness
    (:func:`_check_finite`) and then mapped by ``transform(model_index,
    block)``, which must map each row on its own, as
    ``regression.GaussianProcessBridge`` predicts.
    """
    for rows in _row_blocks(n_rows, width):
        out = _evaluate_rows(model, samples, rows, model_index, width)
        if transform is not None:
            _check_finite(out, model, model_index, rows.start)
            out = transform(model_index, out)
        yield rows.start, out


def _sum_counts(
    hierarchy: ModelHierarchy, samples, m, folds, cost_factor: float = 1.0, transform=None
) -> PrefixSums:
    """:func:`_evaluate_counts` folded by each of ``folds``, never holding outputs.

    Each evaluated model is called one row block at a time
    (:func:`_evaluated_blocks`, which applies ``transform``); each block's
    shape is checked at evaluation, and the block is folded. Its finiteness
    is read off the folded states: only a block whose state is not finite
    is scanned (:func:`_check_finite`), which names the first non-finite
    sample as the held path does, or finds finite rows whose sums
    overflowed and lets them fold on. The states are kept at the model's
    own count and at the previous evaluated model's, the prefixes the
    telescoping combiner reads. One walk per model serves every fold.
    """
    width = _output_width(hierarchy, samples)
    sums = {}
    prev = 0
    for i, model in enumerate(hierarchy.models):
        if m[i] == 0:
            continue
        stops = {int(m[prev]), int(m[i])}
        blocks = _evaluated_blocks(model, samples, i, max(stops), width, transform)
        check = functools.partial(_check_finite, model=model, model_index=i)
        for stop, states in _fold_prefixes(blocks, stops, folds, width, check).items():
            sums[i, stop] = states
        prev = i
    return PrefixSums(sums, m, _nested_cost(hierarchy.costs, m, cost_factor))


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
    """Draw the base and second input sets of a Sobol block (the mixed sets
    are built from them as they are evaluated)."""
    if m < 2:
        raise ValueError("Sobol blocks need m >= 2")
    s = draw_inputs(hierarchy, m, seed, stream=BASE_STREAM)
    s2 = draw_inputs(hierarchy, m, seed, stream=SECOND_STREAM)
    return SobolSampleBlock(s, s2)


def sobol_cost_factor(dimension: int) -> float:
    """Cost units charged per Sobol sample of one model: the d + 2 model
    runs behind it."""
    return float(dimension + 2)


# Kept for perfbench, which traces this name; delete it with the next
# benchmark change.


def evaluate_sobol_nested(hierarchy, block, m_vec):
    return evaluate_nested(hierarchy, block, m_vec, sobol_cost_factor(block.dimension))
