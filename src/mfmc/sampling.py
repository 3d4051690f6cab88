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
one evaluation container is :class:`NestedEvaluations`. A Sobol block is
just a wider input row: model i's outputs on it are (m[i], d + 2) columns
(base, second, mixed_1..mixed_d), and its cost convention is a plain
multiplier on the evaluation cost.
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


def _evaluate_prefix(model: Model, inputs: np.ndarray, model_index: int) -> np.ndarray:
    out = model.evaluate_batch(inputs)
    bad = ~np.all(np.isfinite(out), axis=1)
    if np.any(bad):
        row = int(np.flatnonzero(bad)[0])
        raise EvaluationError(
            f"model {model.label!r} (index {model_index}) produced a non-finite "
            f"output at sample {row}",
            model_index=model_index,
            model_label=model.label,
            sample_index=row,
        )
    return out


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
    sets = samples.input_sets
    if len(sets) > 1 and hierarchy.output_length != 1:
        raise ValueError("Sobol evaluation requires scalar-output models")
    width = hierarchy.output_length * len(sets)
    outputs = []
    for i, model in enumerate(hierarchy.models):
        if m[i] == 0:
            outputs.append(np.empty((0, width)))
        elif len(sets) == 1:
            outputs.append(_evaluate_prefix(model, sets[0][: m[i]], i))
        else:
            out = np.empty((m[i], width), order="F")
            for c, inputs in enumerate(sets):
                out[:, c] = _evaluate_prefix(model, inputs[: m[i]], i)[:, 0]
            outputs.append(out)
    cost = float(np.dot(hierarchy.costs, m) * cost_factor)
    return NestedEvaluations(outputs, m, samples, cost)


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
