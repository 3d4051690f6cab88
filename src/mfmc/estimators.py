"""Statistic plugins and the one telescoping multifidelity combiner.

A statistic plugin bundles two things:

* ``single_level`` -- the plain estimator of the statistic from one model's
  outputs (a mean, an unbiased variance, a Sobol index vector, ...);
* ``pilot_contributions`` -- a per-sample scalarization of the same
  statistic, used only to estimate the variances/correlations that drive
  the sample allocation.

The multifidelity estimate of any statistic (:func:`mfmc_statistic`) is the
high-fidelity single-level estimate plus, for each cheaper model, a
weighted difference of that model's single-level estimates at its own
sample count and at the previous model's count. Because all models see
prefixes of one shared input sequence, those differences are zero-mean
corrections and the combination stays unbiased whenever the single-level
estimator is. Regression bridges and Sobol blocks only change what the
per-model outputs are: :func:`apply_bridges` maps low-fidelity outputs onto
the high-fidelity scale, and a Sobol block's outputs carry d + 2 columns
(base, second, mixed_1..mixed_d) that the Sobol plugins read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotFittedError
from .hierarchy import ModelHierarchy
from .sampling import (
    NestedEvaluations,
    PrefixSums,
    _evaluate_counts,
    _fold_moments,
    _fold_sum,
    _sum_counts,
    _validate_m_vec,
    sobol_cost_factor,
)


def single_level_variance(samples) -> float:
    """Unbiased sample variance of a 1-D sample vector."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] < 2:
        raise ValueError("variance needs at least 2 samples")
    return float(np.var(samples, ddof=1))


def sobol_single_level(base, second, mixed, j: int):
    """Main- and total-effect estimates for coordinate j from one model.

    ``base``, ``second`` and ``mixed[j]`` are the model's outputs on the
    corresponding Sobol input sets, all of the same length m >= 2. Returns
    the variance-scaled (unnormalized) pair (V_j, T_j).
    """
    # ``b @ yj`` rounds differently on strided views, so work on contiguous data.
    b = np.ascontiguousarray(base, dtype=float)
    s2 = np.asarray(second, dtype=float)
    yj = np.ascontiguousarray(mixed[j], dtype=float)
    m = b.shape[0]
    if m < 2 or s2.shape[0] != m or yj.shape[0] != m:
        raise ValueError("Sobol estimation needs matching blocks with m >= 2")
    mu_half = 0.5 * (b.mean() + s2.mean())
    v_half = 0.25 * (np.var(b, ddof=1) + np.var(s2, ddof=1))
    vj = 2.0 / (2.0 * m - 1.0) * (b @ yj - m * mu_half**2 + v_half)
    tj = float(np.sum((s2 - yj) ** 2) / (2.0 * m))
    return float(vj), tj


def sobol_indices_single_level(base, second, mixed):
    """All main/total estimates plus normalized versions for one model.

    Normalization divides by the unbiased variance of the base block. The
    raw values are the quantities the multifidelity machinery combines; the
    normalized ones are what gets compared against textbook index values.
    """
    d = len(mixed)
    main = np.empty(d)
    total = np.empty(d)
    for j in range(d):
        main[j], total[j] = sobol_single_level(base, second, mixed, j)
    v = single_level_variance(base)
    return {
        "main": main,
        "total": total,
        "variance": v,
        "main_normalized": main / v,
        "total_normalized": total / v,
    }


# ---------------------------------------------------------------------------
# Statistic plugins
# ---------------------------------------------------------------------------


class ExpectationStatistic:
    """Per-component mean.

    ``single_level`` reads only a column sum at a prefix, which a
    :class:`~mfmc.sampling.PrefixSums` supplies without holding the outputs
    (``fold``); on :class:`~mfmc.sampling.NestedEvaluations` it equals
    ``outputs[:m].mean(axis=0)`` bit for bit.
    """

    label = "expectation"
    min_samples = 1
    needs_sobol_block = False
    fold = staticmethod(_fold_sum)

    def single_level(self, evals, model_index: int, m: int) -> np.ndarray:
        return evals.column_sum(model_index, m) / m

    def pilot_contributions(self, evals, model_index: int, n: int) -> np.ndarray:
        return np.asarray(evals.outputs[model_index][:n], dtype=float)


class VarianceStatistic:
    """Per-component unbiased variance.

    Scalar outputs keep ``np.var(outputs[:m], axis=0, ddof=1)``. Wider
    outputs are folded in row blocks (``sampling._fold_moments``): the
    first block is shifted by the model's first output row and centred on
    its mean, each later block is shifted by the running mean, and each is
    merged into the running moments (Chan, Golub & LeVeque, 1979). So a
    :class:`~mfmc.sampling.PrefixSums` supplies the state without holding
    the outputs (``fold``), and on held outputs the same fold runs over the
    held rows, with the same value bit for bit whatever their memory
    layout. The working memory is two blocks however large m grows, and
    the shift keeps the digits ``np.var`` loses to a large offset.
    """

    label = "variance"
    min_samples = 2
    needs_sobol_block = False
    fold = staticmethod(_fold_moments)

    def single_level(self, evals, model_index: int, m: int) -> np.ndarray:
        if m < 2:
            raise ValueError("variance needs at least 2 samples")
        if evals.width == 1:
            # never streamed: numpy sums one column pairwise, and np.var stays
            # the scalar estimate
            return np.var(evals.outputs[model_index][:m], axis=0, ddof=1)
        return evals.moments(model_index, m).m2 / (m - 1)

    def pilot_contributions(self, evals, model_index: int, n: int) -> np.ndarray:
        # Squared deviation from the model's own pilot mean: a per-sample
        # proxy whose fluctuations track the variance estimator's.
        values = evals.outputs[model_index][:n]
        return (values - values.mean(axis=0)) ** 2


def _sobol_columns(evals, model_index: int, m: int):
    """(base, second, [mixed_1..mixed_d]) prefixes of one model's block outputs."""
    out = evals.outputs[model_index][:m]
    return out[:, 0], out[:, 1], [out[:, c] for c in range(2, out.shape[1])]


class SobolMainStatistic:
    """All d main-effect indices, treated as one vector-valued statistic."""

    label = "sobol-main"
    min_samples = 2
    needs_sobol_block = True
    fold = None

    def single_level(self, evals, model_index: int, m: int) -> np.ndarray:
        base, second, mixed = _sobol_columns(evals, model_index, m)
        return np.array(
            [sobol_single_level(base, second, mixed, j)[0] for j in range(len(mixed))]
        )

    def pilot_contributions(self, evals, model_index: int, n: int) -> np.ndarray:
        base, _, mixed = _sobol_columns(evals, model_index, n)
        out = np.empty((n, len(mixed)))
        bc = base - base.mean()
        for j, yj in enumerate(mixed):
            out[:, j] = bc * (yj - yj.mean())
        return out


class SobolTotalStatistic:
    """All d total-effect indices as one vector-valued statistic."""

    label = "sobol-total"
    min_samples = 2
    needs_sobol_block = True
    fold = None

    def single_level(self, evals, model_index: int, m: int) -> np.ndarray:
        _, second, mixed = _sobol_columns(evals, model_index, m)
        return np.array([np.sum((second - yj) ** 2) / (2.0 * m) for yj in mixed])

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
    """One multifidelity estimate with the bookkeeping needed to reproduce it."""

    statistic: str
    value: np.ndarray
    predicted_mse: float
    realized_cost: float
    plan: object
    mode: str = "linear"
    seed: tuple | None = None

    def to_dict(self):
        return {
            "statistic": self.statistic,
            "value": [float(v) for v in np.atleast_1d(self.value)],
            "predicted_mse": float(self.predicted_mse),
            "realized_cost": float(self.realized_cost),
            "mode": self.mode,
            "seed": list(self.seed) if self.seed is not None else None,
            "plan": self.plan.to_dict() if hasattr(self.plan, "to_dict") else None,
        }


def mfmc_statistic(evals: NestedEvaluations, plan, statistic) -> EstimateReport:
    """Telescoping multifidelity estimate of a plug-in statistic.

    ``evals`` holds each model's outputs -- raw, bridged through
    :func:`apply_bridges`, or Sobol-block columns. The plan should have been
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
    return EstimateReport(
        statistic=statistic.label,
        value=est,
        predicted_mse=plan.predicted_mse,
        realized_cost=evals.cost,
        plan=plan,
        seed=getattr(evals.samples, "seed", None),
    )


def apply_bridges(evals: NestedEvaluations, bridges) -> NestedEvaluations:
    """Map each low-fidelity model's outputs through its fitted bridge.

    ``bridges[i-1]`` handles model i. The high-fidelity outputs pass through
    untouched. Only scalar-output hierarchies are supported. The telescoping
    corrections stay zero-mean, so estimates from bridged outputs stay
    unbiased however rough the bridges are.
    """
    outputs = [np.array(evals.outputs[0])]
    for i in range(1, len(evals.outputs)):
        raw = evals.outputs[i]
        if raw.shape[0] == 0:
            outputs.append(np.array(raw))
            continue
        if raw.shape[1] != 1:
            raise ValueError("bridged estimation supports scalar outputs only")
        bridge = bridges[i - 1]
        if bridge is None or not bridge.fitted:
            raise NotFittedError(f"no fitted bridge for model index {i}")
        outputs.append(bridge.predict_mean(raw[:, 0])[:, None])
    return NestedEvaluations(outputs, evals.m, evals.samples, evals.cost)


def _plan_counts(hierarchy: ModelHierarchy, plan, samples) -> np.ndarray:
    """The plan's counts indexed like the hierarchy, 0 where a model is skipped,
    with the chain's counts checked against the sample rows."""
    chain = plan.chain
    m = np.zeros(hierarchy.n_models, dtype=int)
    m[chain] = _validate_m_vec(plan.m[chain], len(chain), samples.n)
    return m


def evaluate_for_plan(
    hierarchy: ModelHierarchy, plan, samples, cost_factor: float = 1.0
) -> NestedEvaluations:
    """Evaluate exactly the models and sample counts an allocation plan asks for.

    ``samples`` and ``cost_factor`` are as in :func:`evaluate_nested`.
    Models the plan dropped are skipped entirely (they may sit anywhere in
    the hierarchy); the returned object is indexed like the full hierarchy
    with empty arrays at dropped positions.
    """
    m = _plan_counts(hierarchy, plan, samples)
    return _evaluate_counts(hierarchy, samples, m, cost_factor)


def sum_for_plan(hierarchy: ModelHierarchy, plan, samples, statistic) -> PrefixSums:
    """What :func:`mfmc_statistic` reads of ``statistic`` from a plan, without outputs.

    ``statistic`` must have a ``fold`` (the expectation or the variance),
    and the outputs must be at least 2 wide. Each retained model is
    evaluated on plain ``samples`` one row block at a time and folded into
    its state at the prefixes the combiner reads; no model's outputs are
    ever held whole. Costs and error checks are those of
    :func:`evaluate_for_plan`, and the estimate is the same bit for bit
    (see ``sampling._fold_sum`` and ``sampling._fold_moments``).
    """
    if statistic.fold is None or hierarchy.output_length < 2:
        raise ValueError(
            f"only a statistic with a fold on outputs at least 2 wide streams, not "
            f"{statistic.label} on {hierarchy.output_length}-wide outputs; use evaluate_for_plan"
        )
    m = _plan_counts(hierarchy, plan, samples)
    return _sum_counts(hierarchy, samples, m, (statistic.fold,))


# Kept for perfbench, which calls or traces these names; delete them with the
# next benchmark change.


def mfmc_expectation(evals, plan):
    return mfmc_statistic(evals, plan, STATISTICS["expectation"])


def mfmc_nonlinear(evals, plan, bridges, statistic=STATISTICS["expectation"]):
    report = mfmc_statistic(apply_bridges(evals, bridges), plan, statistic)
    report.mode = "nonlinear"
    return report


def evaluate_sobol_for_plan(hierarchy, plan, block, cost_convention="per-evaluation"):
    factor = sobol_cost_factor(block.dimension, cost_convention)
    return evaluate_for_plan(hierarchy, plan, block, factor)
