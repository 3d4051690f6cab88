"""One-dimensional regression bridges from low- to high-fidelity outputs.

When two models are strongly statistically dependent but only weakly
linearly correlated, a fitted map g from the cheap model's output to the
expensive model's output restores the correlation: corr(y_hf, g(y_lf)) can
be near 1 even when corr(y_hf, y_lf) is mediocre. Only the point
prediction g, the posterior mean, enters the estimators, so that is all a
bridge predicts.

The default bridge is Gaussian-process regression with a squared-
exponential kernel, a nugget, and a constant prior mean set to the
training-target mean (so extrapolation degrades toward an unbiased
constant predictor). Hyperparameters come from a deterministic grid search
maximizing the concentrated marginal likelihood; no optimizer, no
randomness, no dependencies beyond numpy.

The grid search screens each candidate with a single Cholesky
factorization of the kernel bordered by the residuals, whose last row is
L^-1 r, so one factorization gives both terms of the likelihood. Every
candidate that screens within a relative 1e-4 of the best is then scored
again exactly (Cholesky of the kernel, then a solve), and the winner is
picked from those exact scores. The screened scores differ from the exact
ones by rounding only (at most ~1e-6 relative on quintic bridges), so the
fitted state is the one an exhaustive exact search gives. Prediction
builds the kernel in blocks of a fixed number of query rows, so its memory
does not grow with the number of query points.
"""

from __future__ import annotations

import numpy as np

from .errors import NotFittedError

LENGTH_SCALE_GRID = np.geomspace(0.01, 10.0, 20)
NUGGET_GRID = (1e-8, 1e-6, 1e-4, 1e-2)

# Screened scores within this relative margin of the best are re-scored exactly.
_SCREEN_MARGIN = 1e-4
# Query rows per kernel block in prediction.
_PREDICT_BLOCK = 1024


def _correlation(d2, ell):
    return np.exp(-0.5 * d2 / ell**2)


def _exact_score(corr, tau, resid):
    """Concentrated negative log-likelihood of K = corr + tau I, with the
    factor L of K and a = L^-1 resid; None when K cannot be factored."""
    n = resid.size
    try:
        chol = np.linalg.cholesky(corr + tau * np.eye(n))
    except np.linalg.LinAlgError:
        return None
    a = np.linalg.solve(chol, resid)
    s2 = float(a @ a) / n
    nll = n * np.log(max(s2, 1e-300)) + 2.0 * np.log(np.diag(chol)).sum()
    return nll, chol, a


def _screen_score(bordered, corr, tau, rr):
    """The same score from one Cholesky of [[K, r], [r^T, c]], or None.

    ``bordered`` holds the residuals r in its last row and column. With
    c = 2 r^T r / tau + 1 the matrix is positive definite, because
    lambda_min(K) >= tau gives r^T K^-1 r <= r^T r / tau < c. The last row
    of its factor is (a, .) with a = L^-1 r, and the leading block is L.
    """
    n = corr.shape[0]
    if tau <= 0.0:
        return None
    bordered[:n, :n] = corr
    bordered.reshape(-1)[: n * (n + 2) : n + 2] += tau  # the leading diagonal
    bordered[n, n] = 2.0 * rr / tau + 1.0
    try:
        factor = np.linalg.cholesky(bordered)
    except np.linalg.LinAlgError:
        return None
    a = factor[n, :n]
    s2 = float(a @ a) / n
    nll = n * np.log(max(s2, 1e-300)) + 2.0 * np.log(np.diag(factor)[:n]).sum()
    return nll if np.isfinite(nll) else None


class GaussianProcessBridge:
    """Squared-exponential GP regression on scalar pairs.

    ``length_scale`` and ``nugget`` may be pinned; otherwise they are chosen
    on a fixed log-grid (length scales spanning 0.01-10 times the input
    range, nugget relative to the signal variance) by maximizing the
    concentrated marginal likelihood. Every ``fit`` selects afresh whatever
    the constructor did not pin; after it, ``length_scale`` and ``nugget``
    hold the values in use. Fitting twice on the same data gives identical
    hyperparameters and predictions.
    """

    def __init__(self, length_scale=None, nugget=None):
        self._pinned = (length_scale, nugget)
        self.length_scale = length_scale
        self.nugget = nugget
        self.fitted = False
        self._x = None
        self._y = None
        self._prior_mean = 0.0
        self._weights = None
        self._constant = False

    # -- fitting -----------------------------------------------------------

    def fit(self, x, y):
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        if x.size != y.size or x.size < 5:
            raise ValueError("need at least 5 training pairs")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("training pairs must be finite")
        span = float(np.ptp(x))
        if span == 0.0:
            raise ValueError("all training inputs are identical; cannot fit a bridge")
        pinned_ell, pinned_tau = self._pinned
        self._x, self._y = x, y
        self._prior_mean = float(y.mean())
        resid = y - self._prior_mean
        self._constant = bool(np.ptp(y) == 0.0)
        if self._constant:
            # Constant targets: the posterior is that constant everywhere.
            self._weights = None
            self.length_scale = span if pinned_ell is None else pinned_ell
            self.nugget = 0.0 if pinned_tau is None else pinned_tau
            self.fitted = True
            return self

        d2 = (x[:, None] - x[None, :]) ** 2
        ell_grid = [float(pinned_ell)] if pinned_ell is not None else list(LENGTH_SCALE_GRID * span)
        tau_grid = [float(pinned_tau)] if pinned_tau is not None else list(NUGGET_GRID)
        n = x.size
        bordered = np.empty((n + 1, n + 1))
        bordered[n, :n] = bordered[:n, n] = resid
        rr = float(resid @ resid)
        # Screen every candidate, in grid order. Where screening cannot score
        # one, the exact score stands in; None marks a kernel that cannot be
        # factored at all, which is skipped.
        scores, exact = [], {}
        for ell in ell_grid:
            corr = _correlation(d2, ell)
            for tau in tau_grid:
                i = len(scores)
                score = _screen_score(bordered, corr, tau, rr)
                if score is None:
                    exact[i] = _exact_score(corr, tau, resid)
                    score = None if exact[i] is None else exact[i][0]
                scores.append(score)
        # Score exactly, in screened order, every candidate within the margin
        # of the best one whose kernel the exact path can factor; the first
        # strict minimum of those exact scores in grid order wins.
        n_tau = len(tau_grid)
        live = sorted((i for i, s in enumerate(scores) if s is not None), key=scores.__getitem__)
        near, cutoff = [], np.inf
        for i in live:
            if scores[i] > cutoff:
                break
            if i not in exact:
                corr = _correlation(d2, ell_grid[i // n_tau])
                exact[i] = _exact_score(corr, tau_grid[i % n_tau], resid)
            if exact[i] is not None:
                if not near:
                    cutoff = scores[i] + _SCREEN_MARGIN * max(1.0, abs(scores[i]))
                near.append(i)
        if not near:
            raise np.linalg.LinAlgError(
                "kernel factorization failed for every hyperparameter candidate; "
                "increase the nugget"
            )
        best = min(near, key=lambda i: (exact[i][0], i))
        _, chol, z = exact[best]
        self.length_scale = ell_grid[best // n_tau]
        self.nugget = tau_grid[best % n_tau]
        self._weights = np.linalg.solve(chol.T, z)
        self.fitted = True
        return self

    # -- prediction ----------------------------------------------------------

    def _kernel_blocks(self, xq):
        """Yield (rows, kernel block) over ``_PREDICT_BLOCK`` query rows at a
        time, reusing one buffer; a block is valid until the next is made.
        Every entry depends on its own query alone."""
        bounds = [*range(0, xq.shape[0], _PREDICT_BLOCK), xq.shape[0]]
        buf = np.empty((max(np.diff(bounds), default=0), self._x.size))
        # d² / (-2 ℓ²) rounds once, as -0.5 d² / ℓ² does: scaling by 2 is exact.
        scale = -2.0 * self.length_scale**2
        for start, stop in zip(bounds, bounds[1:]):
            rows = slice(start, stop)
            k = buf[: stop - start]
            np.subtract(xq[rows, None], self._x[None, :], out=k)
            np.square(k, out=k)
            np.divide(k, scale, out=k)
            np.exp(k, out=k)
            yield rows, k

    def predict_mean(self, x):
        """Posterior mean at scalar or array inputs."""
        if not self.fitted:
            raise NotFittedError("bridge must be fitted before predicting")
        xq = np.atleast_1d(np.asarray(x, dtype=float))
        mean = np.full(xq.shape, self._prior_mean)
        if not self._constant:
            for rows, k in self._kernel_blocks(xq):
                mean[rows] += _row_dot(k, self._weights)
        if np.ndim(x) == 0:
            return float(mean[0])
        return mean


def _row_dot(k, weights):
    """``k @ weights``, each row summed in an order that depends on that row
    alone: BLAS gemv groups a row's terms by the matrix's row count, so a
    query's prediction would change with the other queries of the call."""
    return np.einsum("ij,j->i", k, weights)
