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
multiplier on the evaluation cost. :class:`PrefixSums` keeps only the
column sums of vector outputs at given prefixes, folded row block by row
block, for statistics that read nothing else (the expectation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError
from .hierarchy import Model, ModelHierarchy

# Stream ids: 0 is a hierarchy's base input stream, 1 the independent second
# stream used by the Sobol block construction.
BASE_STREAM = 0
SECOND_STREAM = 1

# Elements per block of the row-blocked passes over model outputs (the
# finiteness check and the column-sum fold here, the variance in
# ``estimators``): their working memory is one block, however many rows the
# outputs have.
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

    def column_sum(self, model_index: int, m: int) -> np.ndarray:
        """Column sums of model ``model_index``'s outputs on the first m rows."""
        return np.add.reduce(self.outputs[model_index][:m], axis=0)


@dataclass(eq=False)
class PrefixSums:
    """Column sums of each model's outputs at chosen prefixes, without the outputs.

    ``sums[i, s]`` is the column sum of model i's outputs on the first s
    rows of ``samples``; ``m`` and ``cost`` are as in
    :class:`NestedEvaluations`. Built by :func:`_fold_column_sums`, which
    never holds more than one row block of outputs.
    """

    sums: dict
    m: np.ndarray
    samples: SampleSet
    cost: float

    def column_sum(self, model_index: int, m: int) -> np.ndarray:
        return self.sums[model_index, m]


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


def _row_blocks(n_rows: int, width: int, cuts=()) -> list:
    """Consecutive row slices covering ``n_rows`` rows of ``width`` columns.

    Each block holds at most about ``_BLOCK_ELEMENTS`` elements and at least
    one row. Blocks also end at every row count in ``cuts``. Without cuts
    the first block is the longest, so it sizes a reusable buffer.
    """
    step = max(1, _BLOCK_ELEMENTS // max(width, 1))
    edges = sorted({*range(0, n_rows, step), *cuts, n_rows})
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


def _fold_column_sums(
    model: Model, inputs: np.ndarray, model_index: int, width: int, stops
) -> dict:
    """Column sums of the model's outputs on ``inputs[:s]`` for every s in ``stops``.

    The model is evaluated one row block at a time, blocks end at every
    stop, and each checked block is folded into a running sum that it
    carries in as its first row. numpy sums a C-contiguous float64 array of
    width >= 2 down axis 0 one row after another, so when the evaluator
    returns such blocks a sum equals ``np.add.reduce(outputs[:s], axis=0)``
    of one whole call bit for bit. Width 1 is summed pairwise, which
    blocking would reorder; callers fold only wider outputs.
    """
    blocks = _row_blocks(max(stops), width, stops)
    buf = np.empty((max(b.stop - b.start for b in blocks) + 1, width))
    sums = {}
    for rows in blocks:
        out = _evaluate_checked(model, inputs[rows], model_index, width, rows.start)
        n = rows.stop - rows.start
        buf[1 : n + 1] = out
        first = 1 if rows.start == 0 else 0  # the first block has no running sum yet
        buf[0] = np.add.reduce(buf[first : n + 1], axis=0)
        if rows.stop in stops:
            sums[rows.stop] = buf[0].copy()
    return sums


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


def _sum_counts(hierarchy: ModelHierarchy, samples: SampleSet, m) -> PrefixSums:
    """:func:`_evaluate_counts` folded into column sums, never holding outputs.

    Each evaluated model is summed at its own count and at the previous
    evaluated model's, the prefixes the telescoping combiner reads.
    """
    sums = {}
    prev = 0
    for i, model in enumerate(hierarchy.models):
        if m[i] == 0:
            continue
        stops = {int(m[prev]), int(m[i])}
        folded = _fold_column_sums(model, samples.inputs, i, hierarchy.output_length, stops)
        for stop, total in folded.items():
            sums[i, stop] = total
        prev = i
    return PrefixSums(sums, m, samples, _nested_cost(hierarchy.costs, m, 1.0))


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
