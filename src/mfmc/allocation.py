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
fewest models, then the smallest subset mask.

Rounding every admissible chain would cost 2^(K-1) roundings. Instead, a
chain's continuous optimum sigma-bar^2 S^2 / B, with
S = sum_i sqrt(w_i gap_i), bounds its integer error from below; the bound
used here is tighter still, because m_1 must be an integer no smaller than
the count floor and no larger than the budget over the chain's total cost.
S is a sum over consecutive pairs of the chain and admissibility is a test
on consecutive triples, so a best-first search over (previous, current)
model pairs, guided by an exact O(K^3) backward DP of the smallest
remaining part of S, meets chains in nondecreasing bound. Each chain it
meets is checked and rounded exactly as a full enumeration would; the
search stops once the bound exceeds the best error found, with a relative
margin so that chains tying the best are still rounded. Model selection is
therefore exact and has no cap on K: it costs O(K^3) plus one rounding per
chain whose bound can still beat the best plan, usually one or a few.

The rounding of a chain is exact as well: a depth-first branch-and-bound
(``_round_chain``) finds the nondecreasing integer counts with the smallest
error within the budget, ties going to the smaller cost and then to the
lexicographically smallest counts. It bounds each partial plan by the same
Lagrangian, applied to the levels still open.

Vector-valued outputs reduce to the scalar problem through weighted
aggregates: sigma-bar^2 sums the per-component high-fidelity variances and
rho-bar_i^2 is the variance-weighted average of the squared correlations.
"""

from __future__ import annotations

import heapq
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

# Relative slack for comparing a rounding bound with an incumbent's error.
# Both sum the same float terms up to the bound's tail term, which is off
# by a few dozen ulps of itself times budget / remaining budget, since the
# remaining budget is a float difference. A looser slack would make the
# search walk every count whose bound is that close: at counts of 1e9,
# thousands per level.
_ROUND_SLACK = 1e-14

# Most partial plans one rounding visits (about 0.25 s). The benchmark's
# chains need at most 54, and 7,950 random admissible chains of up to 10
# models, budgets up to 3,000 and costs down to 1e-4 at most 12,387. Counts
# beyond about 1e8 can need more: there a unit step in a count moves the
# error by less than the budget the last level's floor leaves over, so the
# search would walk thousands of counts per level to fit that leftover,
# for a gain under 1e-12 of the error. The search then keeps its incumbent.
_ROUND_NODES = 100_000


def _round_chain(coeffs, w_chain, budget, min_samples):
    """Exact integer counts of one chain, by depth-first branch-and-bound.

    Minimizes the error sum_i c_i / m_i over integers
    min_samples <= m_1 <= ... <= m_k whose cost sum_i w_i m_i stays within
    the budget (plus a 1e-12 relative allowance for float rounding); ties
    go to the smaller cost, then to the lexicographically smallest counts.
    Works on plain floats and ints. Returns (error, cost, counts), or None
    when even the smallest counts exceed the budget.

    With m_1..m_i fixed, the later levels do no better than their
    continuous optimum, so the partial error plus
    (sum_{j>i} sqrt(c_j w_j))^2 / (remaining budget) bounds every
    completion from below. That bound is convex in m_i, so the m_i that can
    still win form an interval around its minimizer, the conditional
    continuous optimum. The search walks the interval outward from there,
    the smaller bound first, and ends each direction at the first value the
    bound rules out; the first dive follows the continuous optimum down to
    the first incumbent. The last level is closed form: the error falls as
    m_k grows, so m_k is the largest count the budget allows. The search is
    exact unless it visits ``_ROUND_NODES`` partial plans, which only
    counts beyond about 1e8 need.
    """
    n = len(coeffs)
    tol = budget * (1.0 + 1e-12) + 1e-12
    tail = [0.0] * (n + 1)  # tail[i]: sum of sqrt(c_j w_j) over j >= i
    heavy = [0.0] * (n + 1)  # heavy[i]: sum of w_j over j >= i
    for i in range(n - 1, -1, -1):
        tail[i] = tail[i + 1] + math.sqrt(coeffs[i] * w_chain[i])
        heavy[i] = heavy[i + 1] + w_chain[i]
    c_last, w_last = coeffs[-1], w_chain[-1]
    counts = [0] * n
    best = None
    visits = 0

    def descend(i, lo, spent, err):
        nonlocal best, visits
        visits += 1
        rem = tol - spent
        if i == n - 1:
            m = int(rem // w_last)
            while m >= lo and spent + w_last * m > tol:
                m -= 1
            while spent + w_last * (m + 1) <= tol:
                m += 1
            if m < lo:
                return
            counts[i] = m
            found = (err + c_last / m, spent + w_last * m, counts)
            if best is None or found < best:
                best = (*found[:2], counts.copy())
            return
        # every later count is at least m_i, so m_i * heavy[i] <= rem
        hi = int(rem // heavy[i])
        if hi < lo:
            return
        c, w, t = coeffs[i], w_chain[i], tail[i + 1]

        def bound(m):
            # the lower bound less its rounding allowance (_ROUND_SLACK)
            spare = rem - w * m
            if spare <= 0.0:
                return math.inf
            rest = t * t / spare
            low = err + c / m + rest
            return low - _ROUND_SLACK * (low + rest * tol / spare)

        star = rem / (w + t * math.sqrt(w / c))
        down = min(max(math.floor(star), lo), hi)
        up = down + 1
        low_down, low_up = bound(down), bound(up) if up <= hi else math.inf
        while True:
            m, low = (down, low_down) if low_down <= low_up else (up, low_up)
            if low == math.inf or (best is not None and low > best[0]):
                return
            counts[i] = m
            descend(i + 1, m, spent + w * m, err + c / m)
            if visits >= _ROUND_NODES:
                return
            if m == down:
                down -= 1
                low_down = bound(down) if down >= lo else math.inf
            else:
                up += 1
                low_up = bound(up) if up <= hi else math.inf

    descend(0, min_samples, 0.0, 0.0)
    return best


def _may_rise(slope_before, slope_after):
    """Whether consecutive ratios can increase, judged on the slopes with
    slack, so every chain ``_chain_ratios`` accepts despite its rounding
    passes; ``_chain_ratios`` still has the final word on each chain."""
    return slope_before < slope_after * (1.0 + _SLACK)


def _best_chain(rho_bar_sq, w, sigma_bar_sq, budget, min_samples):
    """Best rounded plan over all admissible chains, by best-first search.

    Chains are paths 0 -> ... -> end over increasing model indices with
    strictly decreasing squared correlations (``end`` stands for rho^2 = 0).
    Edge a -> b carries the gap g = v_a - v_b, the term sqrt(w_a g) of S and
    the slope g / w_a, which is r_a^2 up to a per-chain factor, so the
    ratios increase exactly when the slopes do. Returns
    ``(key, chain, r, m, m_real)`` with key
    ``(mse, cost, len(chain), subset mask)``, or None.
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

    # _round_chain accepts plans costing up to tol; widen it once more so
    # float rounding in costs and sums cannot make the bound too high.
    tol = budget * (1.0 + 1e-12) + 1e-12
    ceiling = tol * (1.0 + _SLACK)
    w0 = float(w[0])

    def bound(first_gap, later, weight):
        # Error floor of integer plans whose chain starts with gap first_gap,
        # whose later terms of S sum to at least ``later`` and whose costs sum
        # to at least ``weight``: counts are nondecreasing, so m_1 is an
        # integer in [min_samples, ceiling / weight], and for each such m_1
        # the later levels do no better than their continuous optimum.
        top = math.floor(ceiling / weight)
        if top < min_samples:
            return math.inf
        if later == 0.0:
            return sigma_bar_sq * first_gap / top
        head = math.sqrt(w0 * first_gap)
        m_star = ceiling * head / (w0 * (head + later))
        floor_star = min(max(math.floor(m_star), min_samples), top)
        lowest = math.inf
        for m1 in (floor_star, min(floor_star + 1, top)):
            spare = ceiling - w0 * m1
            if spare > 0.0:
                lowest = min(lowest, first_gap / m1 + later**2 / spare)
        return sigma_bar_sq * lowest

    # entries: bound, tie-breaker, path of node positions, later part of S
    # so far, cost sum so far; the root is model 0 alone
    heap = [(0.0, 0, (0,), 0.0, w0)]
    pushed = 1
    best = None
    while heap:
        lb, _, path, later, weight = heapq.heappop(heap)
        if best is not None and lb * (1.0 - _SLACK) > best[0][0]:
            break
        b = path[-1]
        if b == end:
            chain = [nodes[p] for p in path[:-1]]
            found = _solve_chain(chain, rho_bar_sq, w, sigma_bar_sq, budget, min_samples)
            if found is not None and (best is None or found[0] < best[0]):
                best = found
            continue
        follow = edge[b] & (rest[b] < np.inf)
        if b:
            follow &= _may_rise(slope[path[-2], b], slope[b])
        for c in np.flatnonzero(follow):
            later_c = later + step[b, c] if b else 0.0
            first = path[1] if b else c
            lb = bound(gap[0, first], later_c + rest[b, c], weight + wn[c])
            if lb < np.inf:
                heapq.heappush(heap, (lb, pushed, path + (c,), later_c, weight + wn[c]))
                pushed += 1
    return best


def _solve_chain(chain, rho_bar_sq, w, sigma_bar_sq, budget, min_samples):
    """Ratios, real and rounded counts of one chain with its ranking key;
    None when the chain is inadmissible or cannot be paid for."""
    w_chain = w[chain]
    v = np.concatenate([[1.0], rho_bar_sq[chain[1:]]])
    r_chain = _chain_ratios(v, w_chain)
    if r_chain is None:
        return None
    levels = v.tolist() + [0.0]
    coeffs = [sigma_bar_sq * (a - b) for a, b in zip(levels, levels[1:])]
    found = _round_chain(coeffs, w_chain.tolist(), budget, min_samples)
    if found is None:
        return None
    mse, cost, counts = found
    m1 = budget / float(np.dot(w_chain, r_chain))
    key = (mse, cost, len(chain), sum(1 << i for i in chain))
    return key, chain, r_chain, np.array(counts), m1 * r_chain


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
    # Round chains in order of a lower bound on their integer error and stop
    # once the bound passes the best plan found: the continuous objective
    # alone cannot rank chains, since at small budgets a cheap companion can
    # soak up fractional budget that plain sampling would waste. Ties in
    # (error, cost, chain length) go to the lowest subset mask, the chain a
    # full enumeration in mask order would meet first.
    best = _best_chain(agg.rho_bar_sq, w, agg.sigma_bar_sq, budget, min_samples)
    if best is None:
        # even the bare high-fidelity chain failed, which the budget
        # precondition rules out for any sane min_samples
        raise InfeasibleBudgetError(
            f"budget {budget} cannot pay for {min_samples} high-fidelity sample(s)"
        )
    _, chain, r_chain, m_chain, m_real_chain = best

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
