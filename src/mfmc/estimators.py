"""Statistic plugins, their folds, and the one telescoping multifidelity combiner.

A statistic plugin is registered in :data:`STATISTICS` under its
``label``; ``min_samples`` is the fewest samples its single-level
estimator reads and ``needs_sobol_block`` says whether it reads a Sobol
block. Beyond those it bundles three things:

* ``fold`` -- how one row block of a model's outputs merges into a running
  state. Each fold is defined here beside its plugin (:func:`_fold_sum`,
  :func:`_fold_moments` and the two Sobol folds); ``sampling`` walks the
  rows and calls it. A state may be any array or tuple of arrays, so long
  as every column of the rows folded enters it: a finite state then
  proves the rows finite (``sampling._finite_states``);
* ``single_level`` -- the plain estimator of the statistic from one model
  on its first m samples (a mean, an unbiased variance, a Sobol index
  vector, ...), read from that fold's state alone;
* ``pilot_contributions`` -- a per-sample scalarization of the same
  statistic, used only to estimate the variances/correlations that drive
  the sample allocation.

The multifidelity estimate of any statistic (:func:`mfmc_statistic`) is the
high-fidelity single-level estimate plus, for each cheaper model, a
weighted difference of that model's single-level estimates at its own
sample count and at the previous model's count. Because all models see
prefixes of one shared input sequence, those differences are zero-mean
corrections and the combination stays unbiased whenever the single-level
estimator is. Every estimate is made from :func:`sum_for_plan`, which folds
each model's outputs one row block at a time and never holds them. Bridges
and Sobol blocks only change what is folded: a fitted bridge maps each
low-fidelity block onto the high-fidelity scale (:func:`_bridge_block`, as
:func:`apply_bridges` does to held outputs), and a Sobol block's outputs
carry d + 2 columns (base, second, mixed_1..mixed_d).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotFittedError
from .hierarchy import ModelHierarchy
from .sampling import (
    NestedEvaluations,
    PrefixSums,
    _evaluate_counts,
    _Scratch,
    _sum_counts,
    _validate_m_vec,
)

# ---------------------------------------------------------------------------
# Statistic plugins
# ---------------------------------------------------------------------------


def _check_two(m: int, label: str) -> None:
    if m < 2:
        raise ValueError(f"{label} needs at least 2 samples")


def _fold_sum(total, block: np.ndarray, buf: _Scratch) -> np.ndarray:
    """``total`` (None before the first block) plus the column sums of ``block``.

    The first block is summed C-contiguous. numpy sums a C-contiguous
    float64 array of width >= 2 down axis 0 one row after another, so a
    later such block, if writeable, is summed in place with the running
    sum added into its first row for the call (the row is put back after);
    any other later block is copied into ``buf`` under the running sum,
    which it carries in as its first row. Either way the result equals
    ``np.add.reduce(outputs[:s], axis=0)`` of all rows so far bit for bit.
    A single column is summed pairwise, so it equals that sum within the
    first block (65,536 rows) and adds each later block's pairwise sum.
    """
    if total is None:
        return np.add.reduce(np.ascontiguousarray(block), axis=0)
    if block.shape[1] >= 2 and block.flags.c_contiguous and block.flags.writeable:
        first = block[0].copy()
        try:
            np.add(total, first, out=block[0])
            return np.add.reduce(block, axis=0)
        finally:
            block[0] = first
    rows = buf.rows(len(block) + 1)
    rows[1:] = block
    rows[0] = total
    return np.add.reduce(rows, axis=0)


class ExpectationStatistic:
    """Per-component mean: the column sum (:func:`_fold_sum`) over m."""

    label = "expectation"
    min_samples = 1
    needs_sobol_block = False
    fold = staticmethod(_fold_sum)

    def single_level(self, evals, model_index: int, m: int) -> np.ndarray:
        return evals.state(model_index, m, self.fold) / m

    def pilot_contributions(self, evals, model_index: int, n: int) -> np.ndarray:
        return np.asarray(evals.outputs[model_index][:n], dtype=float)


class _Moments(NamedTuple):
    """Moments of the rows folded so far, each shifted by ``shift``."""

    shift: np.ndarray  # the first row folded
    n: int
    mean: np.ndarray  # of the shifted rows
    m2: np.ndarray  # centred sum of squares (or of products, _fold_sobol_main)


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
    Every later block is copied into ``buf`` and shifted there in place by
    the running mean ``c`` (an in-place subtract streams two arrays, where
    one into ``buf`` streams three); from the sum ``s1`` and the pairwise
    sum of squares of the shifted rows
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
    y = buf.rows(k)
    np.copyto(y, block)
    np.subtract(y, c, out=y)
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


class VarianceStatistic:
    """Per-component unbiased variance, from shifted moments folded in row
    blocks (:func:`_fold_moments`): the first block is shifted by the
    model's first output row and centred on its mean, each later block is
    shifted by the running mean, and each is merged into the running
    moments (Chan, Golub & LeVeque, 1979). The working memory is two
    blocks however large m grows, and the shift keeps the digits ``np.var``
    loses to a large offset.
    """

    label = "variance"
    min_samples = 2
    needs_sobol_block = False
    fold = staticmethod(_fold_moments)

    def single_level(self, evals, model_index: int, m: int) -> np.ndarray:
        _check_two(m, self.label)
        return evals.state(model_index, m, self.fold).m2 / (m - 1)

    def pilot_contributions(self, evals, model_index: int, n: int) -> np.ndarray:
        # Squared deviation from the model's own pilot mean: a per-sample
        # proxy whose fluctuations track the variance estimator's.
        values = evals.outputs[model_index][:n]
        return (values - values.mean(axis=0)) ** 2


# A Sobol block's columns are its input sets: base (0), second (1) and
# mixed_1..mixed_d (2..). Its folds work column-major, since numpy loops
# over a (k, d + 2) row-major block one short row at a time (about ten
# times slower at d = 3), and sums each contiguous column pairwise.


def _sobol_columns(evals, model_index: int, m: int):
    """(base, second, [mixed_1..mixed_d]) prefixes of one model's held block outputs."""
    out = evals.outputs[model_index][:m]
    return out[:, 0], out[:, 1], [out[:, c] for c in range(2, out.shape[1])]


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


class SobolMainStatistic:
    """All d main-effect indices, treated as one vector-valued statistic.

    V_j is the unbiased sample covariance of the base outputs with the
    mixed_j outputs, (1/(m-1)) sum((b - mean b)(y_j - mean y_j)) (Janon et
    al., ESAIM: P&S 18, 2014; Owen, ACM TOMACS 23(2), 2013). It is
    invariant to a shift of the outputs, as its centred pilot
    contributions are, so the plan's predicted MSE describes it.
    """

    label = "sobol-main"
    min_samples = 2
    needs_sobol_block = True
    fold = staticmethod(_fold_sobol_main)

    def single_level(self, evals, model_index: int, m: int) -> np.ndarray:
        _check_two(m, self.label)
        return evals.state(model_index, m, self.fold).m2 / (m - 1)

    def pilot_contributions(self, evals, model_index: int, n: int) -> np.ndarray:
        base, _, mixed = _sobol_columns(evals, model_index, n)
        out = np.empty((n, len(mixed)))
        bc = base - base.mean()
        for j, yj in enumerate(mixed):
            out[:, j] = bc * (yj - yj.mean())
        return out


def _fold_sobol_total(total, block: np.ndarray, buf: _Scratch) -> np.ndarray:
    """``total`` (None before the first block) plus the column sums of
    ``(block - second)**2`` for a Sobol block: sum((second - mixed_j)**2)
    in column j + 2. Column 0 (base minus second) is kept so that every
    column enters the state (``sampling._finite_states``). Each block is
    summed pairwise, column-major."""
    k = len(block)
    y = np.subtract(block, block[:, 1:2], out=buf.rows(k, "F"))
    s = np.add.reduce(np.square(y, out=y), axis=0)
    return s if total is None else total + s


class SobolTotalStatistic:
    """All d total-effect indices as one vector-valued statistic:
    T_j = sum((second - mixed_j)**2) / (2m)."""

    label = "sobol-total"
    min_samples = 2
    needs_sobol_block = True
    fold = staticmethod(_fold_sobol_total)

    def single_level(self, evals, model_index: int, m: int) -> np.ndarray:
        return evals.state(model_index, m, self.fold)[2:] / (2.0 * m)

    def pilot_contributions(self, evals, model_index: int, n: int) -> np.ndarray:
        _, second, mixed = _sobol_columns(evals, model_index, n)
        out = np.empty((n, len(mixed)))
        for j, yj in enumerate(mixed):
            out[:, j] = 0.5 * (second - yj) ** 2
        return out


# Keyed by each plugin's label. A statistic's position here picks its
# estimation stream (study._Replicate.group), so new statistics are
# appended: one inserted would change the estimates of those after it.
STATISTICS = {stat.label: stat for stat in (
    ExpectationStatistic(), VarianceStatistic(), SobolMainStatistic(), SobolTotalStatistic())}


# ---------------------------------------------------------------------------
# The multifidelity combiner
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class EstimateReport:
    """One multifidelity estimate."""

    value: np.ndarray


def mfmc_statistic(evals: PrefixSums | NestedEvaluations, plan, statistic) -> EstimateReport:
    """Telescoping multifidelity estimate of a plug-in statistic.

    ``evals`` gives the folded state of ``statistic`` for each model at the
    prefixes the plan reads: folded while streamed (:func:`sum_for_plan`),
    or folded from held outputs on reading. The plan should have been
    computed from pilot statistics of the same outputs and statistic.
    """
    if plan.m[0] < statistic.min_samples:
        raise ValueError(
            f"{statistic.label} needs at least {statistic.min_samples} samples per level"
        )
    chain = plan.chain
    for i in chain:
        if evals.m[i] < plan.m[i]:
            raise ValueError(
                f"evaluations for model {i} cover {evals.m[i]} samples, plan needs {plan.m[i]}"
            )
    level = statistic.single_level
    est = np.atleast_1d(np.asarray(level(evals, chain[0], int(plan.m[0])), dtype=float))
    for prev, i in zip(chain, chain[1:]):
        if plan.m[i] == plan.m[prev]:
            continue  # identical prefixes: the correction is exactly zero
        hi = np.atleast_1d(level(evals, i, int(plan.m[i])))
        lo = np.atleast_1d(level(evals, i, int(plan.m[prev])))
        est = est + plan.alpha[i] * (hi - lo)
    return EstimateReport(est)


def _bridge_block(bridges, model_index: int, raw: np.ndarray) -> np.ndarray:
    """Model ``model_index``'s outputs ``raw`` on the high-fidelity scale.

    ``bridges[i-1]`` maps model i; the high-fidelity outputs pass through
    untouched. Only scalar outputs can be bridged.
    """
    if model_index == 0:
        return raw
    if raw.shape[1] != 1:
        raise ValueError("bridged estimation supports scalar outputs only")
    bridge = bridges[model_index - 1]
    if bridge is None or not bridge.fitted:
        raise NotFittedError(f"no fitted bridge for model index {model_index}")
    return bridge.predict_mean(raw[:, 0])[:, None]


def apply_bridges(evals: NestedEvaluations, bridges) -> NestedEvaluations:
    """Map each low-fidelity model's held outputs through its fitted bridge
    (:func:`_bridge_block`); models the evaluation skipped stay empty.

    The telescoping corrections stay zero-mean, so estimates from bridged
    outputs stay unbiased however rough the bridges are.
    """
    outputs = [
        raw if raw.shape[0] == 0 else _bridge_block(bridges, i, raw)
        for i, raw in enumerate(evals.outputs)
    ]
    return NestedEvaluations(outputs, evals.m, evals.cost)


def _plan_counts(hierarchy: ModelHierarchy, plan, samples) -> np.ndarray:
    """The plan's counts indexed like the hierarchy, 0 where a model is skipped,
    with the chain's counts checked against the sample rows."""
    chain = plan.chain
    m = np.zeros(hierarchy.n_models, dtype=int)
    m[chain] = _validate_m_vec(plan.m[chain], len(chain), samples.n)
    return m


def sum_for_plan(hierarchy: ModelHierarchy, plan, samples, statistics, bridges=None) -> PrefixSums:
    """What :func:`mfmc_statistic` reads of each of ``statistics`` from a plan,
    without outputs.

    Each retained model is evaluated on ``samples`` (a ``SampleSet``; a
    Sobol draw's d + 2 input sets give d + 2 columns) one row block at a
    time, its rows drawn as it goes, and each block is folded by every
    statistic's ``fold`` into its state at the prefixes the combiner reads;
    no model's inputs or outputs are ever held whole, and each model runs
    once per row however many statistics read it. A block row is charged
    its d + 2 runs (``sampling.sobol_cost_factor``). With ``bridges``
    (``bridges[i-1]`` for model i), each checked low-fidelity block is
    mapped onto the high-fidelity scale once, before it is folded. Costs,
    error checks and values are those of folding the held outputs of
    :func:`evaluate_for_plan` (through :func:`apply_bridges`), bit for bit.
    """
    m = _plan_counts(hierarchy, plan, samples)
    transform = None if bridges is None else functools.partial(_bridge_block, bridges)
    return _sum_counts(hierarchy, samples, m, [stat.fold for stat in statistics], transform)


# Kept for perfbench, which calls or traces these names; delete them with the
# next benchmark change.


def evaluate_for_plan(hierarchy: ModelHierarchy, plan, samples) -> NestedEvaluations:
    """Evaluate and hold exactly the models and sample counts an allocation plan asks for.

    ``samples`` and the cost are as in :func:`sum_for_plan`. Models
    the plan dropped are skipped entirely (they may sit anywhere in the
    hierarchy); the returned object is indexed like the full hierarchy
    with empty arrays at dropped positions.
    """
    m = _plan_counts(hierarchy, plan, samples)
    return _evaluate_counts(hierarchy, samples, m)


def mfmc_expectation(evals, plan):
    return mfmc_statistic(evals, plan, STATISTICS["expectation"])


def mfmc_nonlinear(evals, plan, bridges, statistic=STATISTICS["expectation"]):
    return mfmc_statistic(apply_bridges(evals, bridges), plan, statistic)


def evaluate_sobol_for_plan(hierarchy, plan, block):
    return evaluate_for_plan(hierarchy, plan, block)
