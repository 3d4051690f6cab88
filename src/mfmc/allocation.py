"""Budget-constrained sample allocation across a model hierarchy.

Given per-model deviations sigma_i and correlations rho_i against the
high-fidelity model, the mean squared error of the telescoping estimator
with coefficients alpha and nondecreasing sample counts m is

    E(alpha, m) = sigma_1^2 / m_1
                  + sum_i (1/m_{i-1} - 1/m_i) (alpha_i^2 sigma_i^2
                                               - 2 alpha_i rho_i sigma_1 sigma_i).

Minimizing over alpha gives alpha_i = rho_i sigma_1 / sigma_i per
component; minimizing over m under a cost budget sum_i w_i m_i = B gives
sample-count ratios

    r_i = sqrt( w_1 (rho_i^2 - rho_{i+1}^2) / (w_i (1 - rho_2^2)) ),

with rho_1 = 1 and rho_{K+1} = 0, and m_1 = B / sum_i w_i r_i. The closed
form only exists when the squared correlations decrease strictly along the
hierarchy and each cost drop outpaces the correlation drop (equivalently,
the r_i increase strictly). Models breaking those conditions are dropped:
this module picks, among all admissible chains (the high-fidelity model
plus a subset of companions, in index order), the one whose rounded
integer plan has the smallest error, then the smallest cost, then the
fewest models, then the smallest subset mask, then the lexicographically
smallest counts.

Rounding every admissible chain would cost 2^(K-1) roundings. Instead, one
depth-first branch-and-bound (``_best_plan``) picks the chain and its
counts together, each level fixing the next model and the current model's
count. With the head of a plan fixed, the rest does no better than its
continuous optimum: the partial error plus sigma-bar^2 S^2 / (remaining
budget), with S the sum of sqrt(w_j gap_j) over the later levels, bounds
every completion. S runs over consecutive pairs of the chain and
admissibility is a test on consecutive triples, so an exact O(K^3)
backward DP over (previous, current) model pairs gives its smallest
value. Next models are tried in order of that bound and counts
walk outward from their conditional continuous optimum, so the first dive
follows the continuous optimum down to the first incumbent; a branch ends
once its bound passes the best plan found, with a relative margin so that
plans tying it are still ranked. The plan is therefore the exact integer
optimum, with no cap on K, unless the search reaches its visit limit,
which only counts beyond about 1e8 do.

Vector-valued outputs reduce to the scalar problem through weighted
aggregates: sigma-bar^2 sums the per-component high-fidelity variances and
rho-bar_i^2 is the variance-weighted average of the squared correlations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateStatsError, InfeasibleBudgetError
from .pilot import PilotStats


@dataclass(frozen=True)
class CostModel:
    """Per-evaluation costs, one entry per model; model 0 is the cost unit."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1 or np.any(w <= 0):
            raise ValueError("costs must be a 1-D vector of positive values")
        object.__setattr__(self, "w", w)

    @property
    def n_models(self) -> int:
        return self.w.shape[0]


@dataclass(eq=False)
class AggregatedStats:
    """Scalar reduction of vector-valued pilot statistics.

    ``rho_bar_sq[i]`` is the weighted average of model i's squared
    correlations, weighted by the high-fidelity per-component variance and
    the integration weights; entry 0 is exactly 1.
    """

    sigma_bar_sq: float
    rho_bar_sq: np.ndarray
    source: PilotStats | None = None

    @property
    def n_models(self) -> int:
        return self.rho_bar_sq.shape[0]


@dataclass(eq=False)
class AllocationPlan:
    """Integer sample counts and combination coefficients for one budget.

    ``m[i]`` is 0 exactly when model i was dropped; over retained models the
    counts are nondecreasing and their total cost never exceeds the budget.
    ``alpha`` has one row per model and one column per output component
    (row 0 is all ones). ``m_real`` keeps the pre-rounding counts.
    """

    m: np.ndarray
    alpha: np.ndarray | None
    retained: np.ndarray
    predicted_mse: float
    budget: float
    budget_used: float
    r: np.ndarray
    m_real: np.ndarray

    @property
    def chain(self) -> list:
        """Indices of the models the plan evaluates, in hierarchy order.

        A model is in the chain when it is retained with a count of at least
        one; the first entry is always the high-fidelity model 0.
        """
        chain = [i for i in range(len(self.m)) if self.retained[i] and self.m[i] > 0]
        if not chain or chain[0] != 0:
            raise ValueError("plan must retain the high-fidelity model with m >= 1")
        return chain

    def to_dict(self):
        return {
            "m": [int(v) for v in self.m],
            "alpha": None if self.alpha is None else [list(map(float, row)) for row in self.alpha],
            "retained": [bool(b) for b in self.retained],
            "predicted_mse": float(self.predicted_mse),
            "budget": float(self.budget),
            "budget_used": float(self.budget_used),
            "r": [float(v) if np.isfinite(v) else None for v in self.r],
            "m_real": [float(v) for v in self.m_real],
        }

    @classmethod
    def from_dict(cls, d) -> "AllocationPlan":
        return cls(
            m=np.array(d["m"], dtype=int),
            alpha=None if d["alpha"] is None else np.array(d["alpha"], dtype=float),
            retained=np.array(d["retained"], dtype=bool),
            predicted_mse=float(d["predicted_mse"]),
            budget=float(d["budget"]),
            budget_used=float(d["budget_used"]),
            r=np.array([np.nan if v is None else v for v in d["r"]], dtype=float),
            m_real=np.array(d["m_real"], dtype=float),
        )

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path) -> "AllocationPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))


def aggregate_vector_stats(stats: PilotStats, weights=None) -> AggregatedStats:
    """Collapse per-component statistics into the scalar aggregates.

    Degenerate components (zero high-fidelity variance) are excluded; it is
    an error for every component to be degenerate.
    """
    p = stats.n_components
    weights = np.ones(p) if weights is None else np.asarray(weights, dtype=float)
    if weights.shape != (p,) or np.any(weights <= 0):
        raise ValueError("weights must be strictly positive, one per component")
    valid = ~stats.degenerate
    if not np.any(valid):
        raise DegenerateStatsError("all output components have zero variance")
    var1 = stats.sigma[0, valid] ** 2
    w = weights[valid]
    sigma_bar_sq = float(np.sum(var1 * w))
    rho_bar_sq = np.empty(stats.n_models)
    rho_bar_sq[0] = 1.0
    for i in range(1, stats.n_models):
        rho_bar_sq[i] = float(np.sum(stats.rho[i, valid] ** 2 * var1 * w)) / sigma_bar_sq
    return AggregatedStats(sigma_bar_sq, rho_bar_sq, source=stats)


def _as_aggregated(stats, weights=None) -> AggregatedStats:
    if isinstance(stats, AggregatedStats):
        return stats
    return aggregate_vector_stats(stats, weights)


def _chain_ratios(rho_sq_chain, w_chain):
    """Sample-count ratios r for one candidate chain, or None if inadmissible."""
    v = np.asarray(rho_sq_chain, dtype=float)
    gaps = v - np.append(v[1:], 0.0)
    if np.any(gaps <= 0.0):
        return None
    denom = w_chain * (1.0 - v[1]) if v.size > 1 else w_chain * gaps[0]
    r = np.sqrt(w_chain[0] * gaps / denom)
    if np.any(np.diff(r) <= 0.0):
        return None
    return r


def _alpha_matrix(stats, retained):
    """Per-component coefficients rho_i sigma_1 / sigma_i for retained models."""
    if isinstance(stats, AggregatedStats):
        stats = stats.source
    if stats is None:
        return None
    k, p = stats.n_models, stats.n_components
    alpha = np.zeros((k, p))
    alpha[0] = 1.0
    s1 = stats.sigma[0]
    for i in range(1, k):
        if not retained[i]:
            continue
        si = stats.sigma[i]
        with np.errstate(invalid="ignore", divide="ignore"):
            a = stats.rho[i] * s1 / si
        a[~np.isfinite(a)] = 0.0
        alpha[i] = a
    return alpha


# Relative slack for comparing float bounds with float errors and costs:
# far above the rounding of a sum over a few dozen terms, far below any
# difference that matters.
_SLACK = 1e-9

# Relative slack for comparing a count's bound with the incumbent's error.
# Both sum the same float terms up to the bound's tail term, which is off
# by a few dozen ulps of itself times budget / remaining budget, since the
# remaining budget is a float difference. A looser slack would make the
# search walk every count whose bound is that close: at counts of 1e9,
# thousands per level.
_ROUND_SLACK = 1e-14

# Most partial plans (a chain head with its counts fixed) one search
# visits: about 0.2 s on one core. The benchmark's plans need at most 129,
# and 10,000 random problems of up to 16 models, budgets up to 3,000 and
# costs down to 1e-4 at most 1,017. Counts beyond about 1e8 can need more:
# there a unit step in a count moves the error by less than the budget the
# last level's floor leaves over, so the search would walk thousands of
# counts per level to fit that leftover, for a gain under 1e-12 of the
# error. The search then keeps its incumbent.
_MAX_VISITS = 100_000


def _may_rise(slope_before, slope_after):
    """Whether consecutive ratios can increase, judged on the slopes with
    slack, so every chain ``_chain_ratios`` accepts despite its rounding
    passes; ``_chain_ratios`` still has the final word on each chain."""
    return slope_before < slope_after * (1.0 + _SLACK)


def _best_plan(rho_bar_sq, w, sigma_bar_sq, budget, min_samples):
    """Best integer plan over all admissible chains, by one depth-first
    branch-and-bound over the next model and the current model's count.

    Chains are paths 0 -> ... -> end over increasing model indices with
    strictly decreasing squared correlations (``end`` stands for rho^2 = 0).
    Edge a -> b carries the gap g = v_a - v_b, the term sqrt(w_a g) of S and
    the slope g / w_a, which is r_a^2 up to a per-chain factor, so the
    ratios increase exactly when the slopes do. Plans rank by (error, cost,
    chain length, subset mask, counts). Returns ``(chain, r, m, m_real)``,
    or None when no plan fits the budget.
    """
    nodes = [0] + [
        i
        for i in range(1, len(rho_bar_sq))
        if np.isfinite(rho_bar_sq[i]) and 0.0 < rho_bar_sq[i] < 1.0
    ]
    end = len(nodes)
    v = np.concatenate([[1.0], rho_bar_sq[nodes[1:]], [0.0]])
    wn = np.append(w[nodes], 0.0)
    gap = v[:, None] - v[None, :]
    edge = np.triu(gap > 0.0, 1)
    edge[end] = False
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(edge, np.sqrt(wn[:, None] * gap), np.inf)
        slope = np.where(edge, gap / wn[:, None], np.nan)
    # rest[a, b]: smallest sum of the terms after edge a -> b
    rest = np.full((end + 1, end + 1), np.inf)
    rest[:, end] = 0.0
    for b in range(end - 1, 0, -1):
        turn = _may_rise(slope[:, b, None], slope[None, b, :])
        rest[:, b] = np.where(turn, step[b] + rest[b], np.inf).min(axis=1)

    tol = budget * (1.0 + 1e-12) + 1e-12  # the most a plan may cost
    # Edge a -> b fixes level a's coefficient c and the smallest tail
    # sigma-bar rest[a, b] of the later levels; every plan through it has
    # error at least the partial error before a plus weight / remaining
    # budget. Each row lists the b that can follow a in order of weight.
    follows = edge & (rest < np.inf)
    coef = sigma_bar_sq * gap
    tail = math.sqrt(sigma_bar_sq) * rest
    with np.errstate(invalid="ignore"):
        weight = np.where(follows, (np.sqrt(coef * wn[:, None]) + tail) ** 2, np.inf)
    weight[:, end] = np.where(follows[:, end], coef[:, end] * wn, np.inf)
    order = np.argsort(weight, axis=1, kind="stable").tolist()
    n_follows = follows.sum(axis=1).tolist()
    weight, coef, tail, slopes = weight.tolist(), coef.tolist(), tail.tolist(), slope.tolist()
    w_node = wn.tolist()
    moves = {}  # (p, a) -> (weight, b, coefficient, tail) of each b that may follow p -> a

    def next_models(p, a):
        if (p, a) not in moves:
            moves[p, a] = [
                (weight[a][b], b, coef[a][b], tail[a][b])
                for b in order[a][: n_follows[a]]
                if a == 0 or _may_rise(slopes[p][a], slopes[a][b])
            ]
        return moves[p, a]

    path, counts = [0], []
    ratios = {}  # subset mask -> ratios, or None when inadmissible
    best = None  # ranking key of the best plan
    visits = 0

    def finish(err, cost, m):
        # rank the plan of the current path and counts, ending with count m
        nonlocal best
        chain = [nodes[i] for i in path]
        key = (err, cost, len(chain), sum(1 << i for i in chain), (*counts, m))
        if best is not None and key >= best:
            return
        if key[3] not in ratios:
            v_chain = np.concatenate([[1.0], rho_bar_sq[chain[1:]]])
            ratios[key[3]] = _chain_ratios(v_chain, w[chain])
        if ratios[key[3]] is not None:
            best = key

    def descend(options, a, lo, spent, err):
        # extend the plan whose chain ends at a, with every count before a's
        # fixed and a's count at least lo; options are next_models of the
        # chain's last edge
        nonlocal visits
        visits += 1
        rem = tol - spent
        if rem <= 0.0:
            return
        w_a = w_node[a]
        for weight, b, c, t in options:
            if best is not None and (err + weight / rem) * (1.0 - _SLACK) > best[0]:
                return
            if b == end:
                # the error falls as m_a grows: take the largest count it can pay
                m = int(rem // w_a)
                while m >= lo and spent + w_a * m > tol:
                    m -= 1
                while spent + w_a * (m + 1) <= tol:
                    m += 1
                if m >= lo and (best is None or err + c / m <= best[0]):
                    finish(err + c / m, spent + w_a * m, m)
                continue
            # every later count is at least m_a, so m_a (w_a + w_b) <= rem
            hi = int(rem // (w_a + w_node[b]))
            if hi < lo:
                continue

            def bound(m):
                # the lower bound less its rounding allowance (_ROUND_SLACK)
                spare = rem - w_a * m
                if spare <= 0.0:
                    return math.inf
                later = t * t / spare
                low = err + c / m + later
                return low - _ROUND_SLACK * (low + later * tol / spare)

            # the bound is convex in m_a: walk outward from the conditional
            # continuous optimum, the smaller bound first, and end each
            # direction at the first count the bound rules out
            star = rem / (w_a + t * math.sqrt(w_a / c))
            down = min(max(math.floor(star), lo), hi)
            up = down + 1
            low_down, low_up = bound(down), bound(up) if up <= hi else math.inf
            after = next_models(a, b)
            path.append(b)
            while True:
                m, low = (down, low_down) if low_down <= low_up else (up, low_up)
                if low == math.inf or (best is not None and low > best[0]):
                    break
                counts.append(m)
                descend(after, b, m, spent + w_a * m, err + c / m)
                counts.pop()
                if visits >= _MAX_VISITS:
                    break
                if m == down:
                    down -= 1
                    low_down = bound(down) if down >= lo else math.inf
                else:
                    up += 1
                    low_up = bound(up) if up <= hi else math.inf
            path.pop()
            if visits >= _MAX_VISITS:
                return

    descend(next_models(0, 0), 0, min_samples, 0.0, 0.0)
    if best is None:
        return None
    mask, m_chain = best[3], best[4]
    chain = [i for i in range(len(rho_bar_sq)) if mask >> i & 1]
    r_chain = ratios[mask]
    m1 = budget / float(np.dot(w[chain], r_chain))
    return chain, r_chain, np.array(m_chain), m1 * r_chain


def optimal_allocation(
    stats, costs: CostModel, budget: float, weights=None, min_samples: int = 1
) -> AllocationPlan:
    """Solve the budget-constrained error minimization and round to integers.

    Parameters
    ----------
    stats : PilotStats or AggregatedStats
        Per-component or pre-aggregated deviations/correlations.
    costs : CostModel
        Per-evaluation costs aligned with the models behind ``stats``.
    budget : float
        Total cost allowance, in the same units as the costs.
    weights : array, optional
        Component integration weights (vector-valued statistics only).
    min_samples : int
        Floor for the high-fidelity count (statistics such as the variance
        need at least two samples per level).
    """
    agg = _as_aggregated(stats, weights)
    w = costs.w
    if agg.n_models != costs.n_models:
        raise ValueError("stats and costs disagree on the number of models")
    if budget < w[0] * min_samples:
        raise InfeasibleBudgetError(
            f"budget {budget} cannot pay for {min_samples} high-fidelity sample(s) "
            f"at cost {w[0]}"
        )
    if not 0.0 < agg.sigma_bar_sq < np.inf:
        raise DegenerateStatsError(
            f"aggregated high-fidelity variance must be positive and finite, "
            f"got {agg.sigma_bar_sq}"
        )
    # Chains and counts are searched together: the continuous objective
    # alone cannot rank chains, since at small budgets a cheap companion can
    # soak up fractional budget that plain sampling would waste. Ties in
    # (error, cost, chain length) go to the lowest subset mask, the chain a
    # full enumeration in mask order would meet first.
    best = _best_plan(agg.rho_bar_sq, w, agg.sigma_bar_sq, budget, min_samples)
    if best is None:
        # even the bare high-fidelity chain failed, which the budget
        # precondition rules out for any sane min_samples
        raise InfeasibleBudgetError(
            f"budget {budget} cannot pay for {min_samples} high-fidelity sample(s)"
        )
    chain, r_chain, m_chain, m_real_chain = best

    k = costs.n_models
    retained = np.zeros(k, dtype=bool)
    retained[chain] = True
    m = np.zeros(k, dtype=int)
    m[chain] = m_chain
    m_real = np.zeros(k)
    m_real[chain] = m_real_chain
    r = np.full(k, np.nan)
    r[chain] = r_chain
    alpha = _alpha_matrix(stats, retained)
    plan = AllocationPlan(
        m=m,
        alpha=alpha,
        retained=retained,
        predicted_mse=np.nan,
        budget=float(budget),
        budget_used=float(np.dot(w, m)),
        r=r,
        m_real=m_real,
    )
    plan.predicted_mse = predicted_mse(plan, stats, weights)
    return plan


def predicted_mse(plan: AllocationPlan, stats, weights=None) -> float:
    """Error formula for the plan's counts, at the plan's coefficients.

    With full per-component statistics the quadratic form is evaluated with
    the plan's (possibly non-optimal) alpha; with pre-aggregated statistics
    the optimal-coefficient form is used. Vector outputs are combined with
    the integration weights.
    """
    chain = plan.chain
    m = plan.m
    if isinstance(stats, AggregatedStats) or plan.alpha is None:
        agg = _as_aggregated(stats, weights)
        total = agg.sigma_bar_sq / m[0]
        for prev, i in zip(chain, chain[1:]):
            total -= (1.0 / m[prev] - 1.0 / m[i]) * agg.rho_bar_sq[i] * agg.sigma_bar_sq
        return float(total)
    p = stats.n_components
    weights = np.ones(p) if weights is None else np.asarray(weights, dtype=float)
    valid = ~stats.degenerate
    s1 = stats.sigma[0]
    per_comp = s1**2 / m[0]
    for prev, i in zip(chain, chain[1:]):
        a = plan.alpha[i]
        term = a**2 * stats.sigma[i] ** 2 - 2.0 * a * np.where(
            np.isfinite(stats.rho[i]), stats.rho[i], 0.0
        ) * s1 * stats.sigma[i]
        per_comp = per_comp + (1.0 / m[prev] - 1.0 / m[i]) * term
    return float(np.sum(per_comp[valid] * weights[valid]))


def budget_for_tolerance(stats, costs: CostModel, epsilon: float, weights=None) -> float:
    """Smallest budget whose optimally-allocated error meets epsilon^2.

    The leading w_1 factor makes the single-model case reduce to the exact
    plain-sampling cost w_1 sigma^2 / epsilon^2.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    agg = _as_aggregated(stats, weights)
    v = np.clip(agg.rho_bar_sq, 0.0, 1.0)
    gaps = np.maximum(v - np.append(v[1:], 0.0), 0.0)
    s = float(np.sum(np.sqrt(costs.w / costs.w[0] * gaps)))
    return float(costs.w[0] * (np.sqrt(agg.sigma_bar_sq) / epsilon * s) ** 2)
