"""Shared oracle helpers for the test suite.

The brute-force routines here are written independently of the library
internals on purpose: they enumerate or integrate directly from the error
formula so that the analytic solver has something honest to be checked
against. The exceptions are ``exhaustive_allocation``, which reuses the
library's admissibility test and coefficients but rounds every admissible
chain with its own exact enumeration, so the chain search and the
rounding have an exact reference, and ``exhaustive_gp_fit``, which scores
every GP hyperparameter candidate exactly, so the screened grid search has
one.
"""

import math
import tracemalloc

import numpy as np
import pytest

from mfmc.allocation import (
    AllocationPlan,
    _alpha_matrix,
    _as_aggregated,
    _chain_ratios,
    predicted_mse,
)
from mfmc.errors import InfeasibleBudgetError
from mfmc.regression import LENGTH_SCALE_GRID, NUGGET_GRID


def telescoping_mse(sigma, rho, m, alpha=None):
    """Direct evaluation of the telescoping estimator's error formula.

    ``sigma`` and ``rho`` are per-model scalars (rho[0] == 1), ``m`` the
    per-model counts (all > 0, nondecreasing), ``alpha`` the coefficients
    (defaults to the per-model optimum rho_i sigma_1 / sigma_i).
    """
    sigma = np.asarray(sigma, dtype=float)
    rho = np.asarray(rho, dtype=float)
    m = np.asarray(m, dtype=float)
    if alpha is None:
        alpha = rho * sigma[0] / sigma
    total = sigma[0] ** 2 / m[0]
    for i in range(1, len(sigma)):
        total += (1.0 / m[i - 1] - 1.0 / m[i]) * (
            alpha[i] ** 2 * sigma[i] ** 2
            - 2.0 * alpha[i] * rho[i] * sigma[0] * sigma[i]
        )
    return float(total)


def brute_force_best_two(sigma, rho, w, budget, m1_max=None):
    """Exhaustively enumerate integer plans within the budget.

    Considers every subset of low-fidelity models (the high-fidelity model
    is always in) and, for each, all integer nondecreasing counts with
    total cost <= budget at the optimal coefficients. Returns the two
    smallest error values overall. Supports K in {1, 2, 3}.
    """
    sigma = np.asarray(sigma, dtype=float)
    rho = np.asarray(rho, dtype=float)
    w = np.asarray(w, dtype=float)
    k = len(sigma)
    best = []

    def push(values):
        for val in np.sort(np.ravel(values))[:2]:
            best.append(float(val))
        best.sort()
        del best[2:]

    def enumerate_chain(s, r, wc):
        alpha = r * s[0] / s
        m1_cap = int(budget // wc[0]) if m1_max is None else min(m1_max, int(budget // wc[0]))
        if len(s) == 1:
            push([s[0] ** 2 / m1 for m1 in range(1, m1_cap + 1)])
            return
        for m1 in range(1, m1_cap + 1):
            rem1 = budget - wc[0] * m1
            if rem1 < wc[1] * m1:
                continue
            m2_hi = int(rem1 // wc[1])
            m2 = np.arange(m1, m2_hi + 1)
            if len(s) == 2:
                push(telescoping_mse_vec(s, r, alpha, m1, m2, None))
                continue
            for m2v in m2:
                rem2 = rem1 - wc[1] * m2v
                if rem2 < wc[2] * m2v:
                    continue
                m3_hi = int(rem2 // wc[2])
                m3 = np.arange(m2v, m3_hi + 1, dtype=float)
                push(telescoping_mse_vec(s, r, alpha, m1, m2v, m3))

    import itertools

    for size in range(0, k):
        for subset in itertools.combinations(range(1, k), size):
            chain = [0, *subset]
            enumerate_chain(sigma[chain], rho[chain], w[chain])
    return best[0], (best[1] if len(best) > 1 else best[0])


def telescoping_mse_vec(sigma, rho, alpha, m1, m2, m3):
    """Vectorized error formula over grids of m2 (and m3)."""
    term1 = sigma[0] ** 2 / m1
    c2 = alpha[1] ** 2 * sigma[1] ** 2 - 2 * alpha[1] * rho[1] * sigma[0] * sigma[1]
    out = term1 + (1.0 / m1 - 1.0 / np.asarray(m2, dtype=float)) * c2
    if m3 is not None:
        c3 = alpha[2] ** 2 * sigma[2] ** 2 - 2 * alpha[2] * rho[2] * sigma[0] * sigma[2]
        out = out + (1.0 / np.asarray(m2, dtype=float) - 1.0 / np.asarray(m3, dtype=float)) * c3
    return out


def random_admissible_instance(rng, k=3, m1_range=(3, 18)):
    """Random (sigma, rho, w, budget) obeying the closed-form conditions.

    Rejection-samples until the squared correlations decrease strictly and
    every cost drop outpaces the correlation drop, then sets the budget so
    the real-valued high-fidelity count lands in ``m1_range`` and no count
    exceeds 200.
    """
    while True:
        rho_sq = np.sort(rng.uniform(0.3, 0.995, size=k - 1))[::-1]
        rho_sq = np.concatenate([[1.0], rho_sq])
        w = np.concatenate([[1.0], np.sort(rng.uniform(0.02, 0.6, size=k - 1))[::-1]])
        gaps = rho_sq - np.append(rho_sq[1:], 0.0)
        if np.any(gaps <= 1e-4):
            continue
        r = np.sqrt(w[0] * gaps / (w * (1.0 - rho_sq[1])))
        if np.any(np.diff(r) <= 1e-3) or r[1] <= 1.0 + 1e-3:
            continue
        m1_target = rng.uniform(*m1_range)
        budget = m1_target * float(np.dot(w, r))
        m_real = m1_target * r
        if m_real[-1] > 200:
            continue
        sigma = rng.uniform(0.5, 3.0, size=k)
        rho = np.sqrt(rho_sq)
        return sigma, rho, w, budget


def admissible_chains(rho_bar_sq, w):
    """Every admissible chain (model 0 plus a subset of companions) with its
    ratios, in increasing subset-mask order; the bare chain comes first."""
    k = len(rho_bar_sq)
    candidates = [
        i
        for i in range(1, k)
        if np.isfinite(rho_bar_sq[i]) and 0.0 < rho_bar_sq[i] < 1.0
    ]
    chains = [([0], np.array([1.0]))]
    for mask in range(1, 1 << len(candidates)):
        subset = [candidates[j] for j in range(len(candidates)) if mask >> j & 1]
        chain = [0] + subset
        v = np.array([1.0] + [rho_bar_sq[i] for i in subset])
        r = _chain_ratios(v, w[chain])
        if r is not None:
            chains.append((chain, r))
    return chains


def _budget_tol(budget):
    """The cost a plan may reach: the budget plus a 1e-12 relative allowance."""
    return budget * (1.0 + 1e-12) + 1e-12


def brute_force_counts(coeffs, w, budget, min_samples, beat=None):
    """Best integer counts of one chain by plain enumeration: every
    nondecreasing count vector with m_1 >= min_samples whose cost fits the
    budget is scored. Returns the smallest (error, cost, counts), errors and
    costs summed left to right, or None. Small budgets only; ``beat`` is
    ignored."""
    tol = _budget_tol(budget)
    n = len(coeffs)
    best = None

    def walk(prefix, spent, err):
        nonlocal best
        i = len(prefix)
        m = prefix[-1] if prefix else min_samples
        while spent + w[i] * m <= tol:
            if i == n - 1:
                found = (err + coeffs[i] / m, spent + w[i] * m, prefix + [m])
                best = found if best is None else min(best, found)
            else:
                walk(prefix + [m], spent + w[i] * m, err + coeffs[i] / m)
            m += 1

    walk([], 0.0, 0.0)
    return best


def exact_counts(coeffs, w, budget, min_samples, beat=math.inf):
    """Best integer counts of one chain, as ``brute_force_counts`` defines
    them, at any budget; None also when no plan has error at most ``beat``.

    The enumeration skips a prefix m_1..m_i only when no completion can
    win: whatever the later counts, their error is at least
    (sum_{j>i} sqrt(c_j w_j))^2 over the budget left (Cauchy-Schwarz). At
    each level the values of m_i are visited in increasing order of that
    bound from its integer minimizer, found by ternary search, and each
    direction ends where the bound, less an allowance for its rounding,
    exceeds the best error found.
    """
    tol = _budget_tol(budget)
    n = len(coeffs)
    best = None

    def lower_bound(i, m, spent, err):
        # less an allowance for its rounding: the tail term comes from a
        # remaining budget that is a difference of sums up to the budget
        rest = sum(math.sqrt(coeffs[j] * w[j]) for j in range(i + 1, n))
        spare = tol - spent - w[i] * m
        if rest == 0.0:
            return err + coeffs[i] / m
        if spare <= 0.0:
            return math.inf
        low = err + coeffs[i] / m + rest**2 / spare
        return low - 1e-13 * (low + rest**2 / spare * tol / spare)

    def walk(prefix, spent, err):
        nonlocal best
        i = len(prefix)
        lo = prefix[-1] if prefix else min_samples
        heavy = sum(w[i:])
        hi = int((tol - spent) / heavy) + 1
        while hi >= lo and spent + heavy * hi > tol:
            hi -= 1
        if hi < lo:
            return
        g = lambda m: lower_bound(i, m, spent, err)  # noqa: E731
        a, b = lo, hi
        while b - a > 2:
            third = (b - a) // 3
            if g(a + third) <= g(b - third):
                b = b - third
            else:
                a = a + third
        start = min(range(a, b + 1), key=g)
        for side in (range(start, lo - 1, -1), range(start + 1, hi + 1)):
            for m in side:
                limit = beat if best is None else min(beat, best[0])
                if g(m) > limit:
                    break
                if i == n - 1:
                    if spent + w[i] * m <= tol:
                        found = (err + coeffs[i] / m, spent + w[i] * m, prefix + [m])
                        best = found if best is None else min(best, found)
                else:
                    walk(prefix + [m], spent + w[i] * m, err + coeffs[i] / m)

    walk([], 0.0, 0.0)
    return best


def exhaustive_allocation(stats, costs, budget, weights=None, min_samples=1, rounding=exact_counts):
    """Reference ``optimal_allocation``: round every admissible chain with
    ``rounding`` and keep the first plan with the smallest (error, cost,
    chain length)."""
    agg = _as_aggregated(stats, weights)
    w = costs.w
    if budget < w[0] * min_samples:
        raise InfeasibleBudgetError("budget cannot pay for the high-fidelity floor")
    best = None
    for chain, r_chain in admissible_chains(agg.rho_bar_sq, w):
        v = [1.0] + [float(agg.rho_bar_sq[i]) for i in chain[1:]] + [0.0]
        coeffs = [agg.sigma_bar_sq * (a - b) for a, b in zip(v, v[1:])]
        beat = math.inf if best is None else best[0][0]
        found = rounding(coeffs, [float(x) for x in w[chain]], budget, min_samples, beat=beat)
        if found is None:
            continue
        mse, cost, counts = found
        key = (mse, cost, len(chain))
        if best is None or key < best[0]:
            m_real_chain = budget / float(np.dot(w[chain], r_chain)) * r_chain
            best = (key, chain, r_chain, np.array(counts), m_real_chain)
    if best is None:
        raise InfeasibleBudgetError("no chain can be paid for")
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
    plan = AllocationPlan(
        m=m,
        alpha=_alpha_matrix(stats, retained),
        retained=retained,
        predicted_mse=np.nan,
        budget=float(budget),
        budget_used=float(np.dot(w, m)),
        r=r,
        m_real=m_real,
    )
    plan.predicted_mse = predicted_mse(plan, stats, weights)
    return plan


def exhaustive_gp_fit(x, y, length_scale=None, nugget=None):
    """Reference ``GaussianProcessBridge.fit`` for non-constant targets:
    factor the kernel of every grid candidate, score it exactly, and keep the
    first strict minimum in grid order. Returns the fitted length scale,
    nugget and weights as a dict; raises ``LinAlgError`` when no candidate
    can be factored."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    span = float(np.ptp(x))
    resid = y - float(y.mean())
    d2 = (x[:, None] - x[None, :]) ** 2
    ell_grid = [float(length_scale)] if length_scale is not None else list(LENGTH_SCALE_GRID * span)
    tau_grid = [float(nugget)] if nugget is not None else list(NUGGET_GRID)
    n = x.size
    eye = np.eye(n)
    best = None
    for ell in ell_grid:
        corr = np.exp(-0.5 * d2 / ell**2)
        for tau in tau_grid:
            kmat = corr + tau * eye
            try:
                chol = np.linalg.cholesky(kmat)
            except np.linalg.LinAlgError:
                continue
            a = np.linalg.solve(chol, resid)
            s2 = float(a @ a) / n
            nll = n * np.log(max(s2, 1e-300)) + 2.0 * np.log(np.diag(chol)).sum()
            if best is None or nll < best[0]:
                best = (nll, ell, tau, chol, a)
    if best is None:
        raise np.linalg.LinAlgError("no candidate kernel can be factored")
    _, ell, tau, chol, z = best
    return {"length_scale": ell, "nugget": tau, "weights": np.linalg.solve(chol.T, z)}


def traced_peak(run):
    """Peak traced memory of ``run()`` in bytes, after one untraced warm-up call
    (imports and caches)."""
    run()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def whole_draw(samples):
    """Every row of ``samples`` (a ``sampling.SampleSet``) in one block: a
    tuple of one (n, d) array per stream, base first."""
    (drawn,) = samples.walk([slice(0, samples.n)])
    return drawn


class RowSource:
    """A fake ``sampling.SampleSet`` that walks given rows: one (n, d) array
    per stream, base first; two streams make a Sobol draw."""

    def __init__(self, *streams):
        self.streams = streams
        self.n, self.dimension = streams[0].shape
        self.sobol = len(streams) == 2

    def walk(self, blocks):
        for rows in blocks:
            yield tuple(x[rows] for x in self.streams)


class IdentityBridge:
    """A fitted bridge that maps every low-fidelity output to itself."""

    fitted = True

    def predict_mean(self, x):
        return np.array(x, dtype=float)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
