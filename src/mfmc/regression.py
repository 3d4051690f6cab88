"""One-dimensional regression bridges from low- to high-fidelity outputs.

When two models are strongly statistically dependent but only weakly
linearly correlated, a fitted map g from the cheap model's output to the
expensive model's output restores the correlation: corr(y_hf, g(y_lf)) can
be near 1 even when corr(y_hf, y_lf) is mediocre. Only the point
prediction g enters the estimators; the predictive variance is exposed for
diagnostics.

The default bridge is Gaussian-process regression with a squared-
exponential kernel, a nugget, and a constant prior mean set to the
training-target mean (so extrapolation degrades toward an unbiased
constant predictor). Hyperparameters come from a deterministic grid search
maximizing the concentrated marginal likelihood; no optimizer, no
randomness, no dependencies beyond numpy. A piecewise-linear interpolant
is available as a cheap drop-in for tests.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import NotFittedError

LENGTH_SCALE_GRID = np.geomspace(0.01, 10.0, 20)
NUGGET_GRID = (1e-8, 1e-6, 1e-4, 1e-2)


def _as_xy(pairs):
    a = np.asarray(pairs, dtype=float)
    if a.ndim == 2 and a.shape[1] == 2:
        return a[:, 0].copy(), a[:, 1].copy()
    raise ValueError("pairs must be an (n, 2) array-like of (low, high) values")


class GaussianProcessBridge:
    """Squared-exponential GP regression on scalar pairs.

    ``length_scale`` and ``nugget`` may be pinned; otherwise they are chosen
    on a fixed log-grid (length scales spanning 0.01-10 times the input
    range, nugget relative to the signal variance) by maximizing the
    concentrated marginal likelihood. Fitting twice on the same data gives
    identical hyperparameters and predictions.
    """

    method = "gp"

    def __init__(self, length_scale=None, nugget=None):
        self.length_scale = length_scale
        self.nugget = nugget
        self.fitted = False
        self._x = None
        self._y = None
        self._prior_mean = 0.0
        self._signal_variance = 0.0
        self._weights = None
        self._chol = None
        self._constant = False

    # -- fitting -----------------------------------------------------------

    def fit(self, x, y):
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        if x.size != y.size or x.size < 5:
            raise ValueError("need at least 5 training pairs")
        span = float(np.ptp(x))
        if span == 0.0:
            raise ValueError("all training inputs are identical; cannot fit a bridge")
        self._x, self._y = x, y
        self._prior_mean = float(y.mean())
        resid = y - self._prior_mean
        if np.ptp(y) == 0.0:
            # Constant targets: the posterior is that constant everywhere.
            self._constant = True
            self._signal_variance = 0.0
            self.length_scale = span if self.length_scale is None else self.length_scale
            self.nugget = 0.0 if self.nugget is None else self.nugget
            self.fitted = True
            return self

        d2 = (x[:, None] - x[None, :]) ** 2
        ell_grid = (
            [float(self.length_scale)]
            if self.length_scale is not None
            else list(LENGTH_SCALE_GRID * span)
        )
        tau_grid = [float(self.nugget)] if self.nugget is not None else list(NUGGET_GRID)
        n = x.size
        best = None
        for ell in ell_grid:
            corr = np.exp(-0.5 * d2 / ell**2)
            for tau in tau_grid:
                kmat = corr + tau * np.eye(n)
                try:
                    chol = np.linalg.cholesky(kmat)
                except np.linalg.LinAlgError:
                    continue
                a = np.linalg.solve(chol, resid)
                s2 = float(a @ a) / n
                nll = n * np.log(max(s2, 1e-300)) + 2.0 * np.log(np.diag(chol)).sum()
                if best is None or nll < best[0]:
                    best = (nll, ell, tau, chol)
        if best is None:
            raise np.linalg.LinAlgError(
                "kernel factorization failed for every hyperparameter candidate; "
                "increase the nugget"
            )
        _, ell, tau, chol = best
        self.length_scale = ell
        self.nugget = tau
        self._chol = chol
        z = np.linalg.solve(chol, resid)
        self._weights = np.linalg.solve(chol.T, z)
        self._signal_variance = float(z @ z) / n
        self.fitted = True
        return self

    # -- prediction ----------------------------------------------------------

    def predict(self, x):
        """Posterior mean and variance at scalar or array inputs."""
        if not self.fitted:
            raise NotFittedError("bridge must be fitted before predicting")
        xq = np.atleast_1d(np.asarray(x, dtype=float))
        if self._constant:
            mean = np.full(xq.shape, self._prior_mean)
            var = np.zeros(xq.shape)
        else:
            k = np.exp(-0.5 * (xq[:, None] - self._x[None, :]) ** 2 / self.length_scale**2)
            mean = self._prior_mean + k @ self._weights
            v = np.linalg.solve(self._chol, k.T)
            var = self._signal_variance * np.clip(1.0 - np.sum(v * v, axis=0), 0.0, None)
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return float(mean[0]), float(var[0])
        return mean, var

    def predict_mean(self, x):
        """Posterior mean only; skips the variance back-solve."""
        if not self.fitted:
            raise NotFittedError("bridge must be fitted before predicting")
        xq = np.atleast_1d(np.asarray(x, dtype=float))
        if self._constant:
            mean = np.full(xq.shape, self._prior_mean)
        else:
            k = np.exp(-0.5 * (xq[:, None] - self._x[None, :]) ** 2 / self.length_scale**2)
            mean = self._prior_mean + k @ self._weights
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return float(mean[0])
        return mean

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        if not self.fitted:
            raise NotFittedError("cannot serialize an unfitted bridge")
        return {
            "method": self.method,
            "x": [float(v) for v in self._x],
            "y": [float(v) for v in self._y],
            "length_scale": float(self.length_scale),
            "nugget": float(self.nugget),
        }

    @classmethod
    def from_dict(cls, d) -> "GaussianProcessBridge":
        reg = cls(length_scale=d["length_scale"], nugget=d["nugget"])
        reg.fit(np.array(d["x"]), np.array(d["y"]))
        return reg


class PiecewiseLinearBridge:
    """Linear interpolation through the training pairs; flat extrapolation.

    Duplicated inputs are collapsed to their mean target. Zero predictive
    variance everywhere; useful as a fast, transparent stand-in for the GP.
    """

    method = "piecewise-linear"

    def __init__(self):
        self.fitted = False
        self._x = None
        self._y = None

    def fit(self, x, y):
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        if x.size != y.size or x.size < 5:
            raise ValueError("need at least 5 training pairs")
        if np.ptp(x) == 0.0:
            raise ValueError("all training inputs are identical; cannot fit a bridge")
        xs, inverse = np.unique(x, return_inverse=True)
        ys = np.bincount(inverse, weights=y) / np.bincount(inverse)
        self._x, self._y = xs, ys
        self.fitted = True
        return self

    def predict(self, x):
        if not self.fitted:
            raise NotFittedError("bridge must be fitted before predicting")
        xq = np.atleast_1d(np.asarray(x, dtype=float))
        mean = np.interp(xq, self._x, self._y)
        var = np.zeros_like(mean)
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return float(mean[0]), float(var[0])
        return mean, var

    def predict_mean(self, x):
        return self.predict(x)[0]

    def to_dict(self):
        if not self.fitted:
            raise NotFittedError("cannot serialize an unfitted bridge")
        return {
            "method": self.method,
            "x": [float(v) for v in self._x],
            "y": [float(v) for v in self._y],
        }

    @classmethod
    def from_dict(cls, d) -> "PiecewiseLinearBridge":
        # the stored knots are already deduplicated; restore them as-is
        reg = cls()
        reg._x = np.array(d["x"], dtype=float)
        reg._y = np.array(d["y"], dtype=float)
        reg.fitted = True
        return reg


_METHODS = {"gp": GaussianProcessBridge, "piecewise-linear": PiecewiseLinearBridge}


def fit_regressor(pairs, method: str = "gp", **kwargs):
    """Fit a bridge on (low, high) pairs; ``method`` picks the family."""
    x, y = _as_xy(pairs)
    if method not in _METHODS:
        raise ValueError(f"unknown regressor method {method!r}")
    return _METHODS[method](**kwargs).fit(x, y)


def regressor_from_dict(d):
    return _METHODS[d["method"]].from_dict(d)


def save_regressor(regressor, path):
    Path(path).write_text(json.dumps(regressor.to_dict(), indent=2))


def load_regressor(path):
    return regressor_from_dict(json.loads(Path(path).read_text()))
