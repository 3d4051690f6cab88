"""Statistic plugins and the one telescoping multifidelity combiner.

A statistic plugin bundles three things:

* ``fold`` -- how one row block of a model's outputs merges into a running
  state (``sampling._fold_sum``, ``_fold_moments`` and the two Sobol
  folds);
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

import numpy as np

from .errors import NotFittedError
from .hierarchy import ModelHierarchy
from .sampling import (
    NestedEvaluations,
    PrefixSums,
    _evaluate_counts,
    _fold_moments,
    _fold_sobol_main,
    _fold_sobol_total,
    _fold_sum,
    _sum_counts,
    _validate_m_vec,
    sobol_cost_factor,
)

# ---------------------------------------------------------------------------
# Statistic plugins
# ---------------------------------------------------------------------------


def _check_two(m: int, label: str) -> None:
    if m < 2:
        raise ValueError(f"{label} needs at least 2 samples")


class ExpectationStatistic:
    """Per-component mean: the column sum (``sampling._fold_sum``) over m."""

    label = "expectation"
    min_samples = 1
    needs_sobol_block = False
    fold = staticmethod(_fold_sum)

    def single_level(self, evals, model_index: int, m: int) -> np.ndarray:
        return evals.state(model_index, m, self.fold) / m

    def pilot_contributions(self, evals, model_index: int, n: int) -> np.ndarray:
        return np.asarray(evals.outputs[model_index][:n], dtype=float)


class VarianceStatistic:
    """Per-component unbiased variance, from shifted moments folded in row
    blocks (``sampling._fold_moments``): the first block is shifted by the
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


def _sobol_columns(evals, model_index: int, m: int):
    """(base, second, [mixed_1..mixed_d]) prefixes of one model's held block outputs."""
    out = evals.outputs[model_index][:m]
    return out[:, 0], out[:, 1], [out[:, c] for c in range(2, out.shape[1])]


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


STATISTICS = {
    "expectation": ExpectationStatistic(),
    "variance": VarianceStatistic(),
    "sobol-main": SobolMainStatistic(),
    "sobol-total": SobolTotalStatistic(),
}


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


def sum_for_plan(
    hierarchy: ModelHierarchy, plan, samples, statistic, cost_factor: float = 1.0, bridges=None
) -> PrefixSums:
    """What :func:`mfmc_statistic` reads of ``statistic`` from a plan, without outputs.

    Each retained model is evaluated on ``samples`` (a ``SampleSet``, or a
    ``SobolSampleBlock`` whose d + 2 input sets are evaluated per row block
    into d + 2 columns) one row block at a time, and each block is folded
    by ``statistic.fold`` into its state at the prefixes the combiner
    reads; no model's outputs are ever held whole. ``cost_factor`` (see
    ``sampling.sobol_cost_factor``) scales the cost. With ``bridges``
    (``bridges[i-1]`` for model i), each checked low-fidelity block is
    mapped onto the high-fidelity scale before it is folded. Costs, error
    checks and values are those of folding the held outputs of
    :func:`evaluate_for_plan` (through :func:`apply_bridges`), bit for bit.
    """
    m = _plan_counts(hierarchy, plan, samples)
    transform = None if bridges is None else functools.partial(_bridge_block, bridges)
    return _sum_counts(hierarchy, samples, m, (statistic.fold,), cost_factor, transform)


# Kept for perfbench, which calls or traces these names; delete them with the
# next benchmark change.


def evaluate_for_plan(
    hierarchy: ModelHierarchy, plan, samples, cost_factor: float = 1.0
) -> NestedEvaluations:
    """Evaluate and hold exactly the models and sample counts an allocation plan asks for.

    ``samples`` and ``cost_factor`` are as in :func:`sum_for_plan`. Models
    the plan dropped are skipped entirely (they may sit anywhere in the
    hierarchy); the returned object is indexed like the full hierarchy
    with empty arrays at dropped positions.
    """
    m = _plan_counts(hierarchy, plan, samples)
    return _evaluate_counts(hierarchy, samples, m, cost_factor)


def mfmc_expectation(evals, plan):
    return mfmc_statistic(evals, plan, STATISTICS["expectation"])


def mfmc_nonlinear(evals, plan, bridges, statistic=STATISTICS["expectation"]):
    return mfmc_statistic(apply_bridges(evals, bridges), plan, statistic)


def evaluate_sobol_for_plan(hierarchy, plan, block):
    return evaluate_for_plan(hierarchy, plan, block, sobol_cost_factor(block.dimension))
