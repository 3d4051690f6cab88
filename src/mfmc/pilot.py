"""Pilot estimation of the variances and correlations that drive allocation.

A small number N of shared samples is pushed through every model; the
per-component standard deviations and correlations against the
high-fidelity model are what the allocation solver consumes. One function,
:func:`estimate_q_stats`, computes them from a statistic's per-sample
contributions. What gets correlated is decided by the evaluations it is
given: raw model outputs, low-fidelity outputs bridged onto the
high-fidelity scale (:func:`~mfmc.estimators.apply_bridges`, which leaves
model 0 raw), or the (d + 2)-column outputs of a Sobol block.

Components whose high-fidelity variance is exactly zero are flagged
degenerate; their correlations are undefined and they are excluded from
any downstream aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import STATISTICS, apply_bridges


@dataclass(eq=False)
class PilotStats:
    """Per-model, per-component (sigma, rho) estimates from N pilot samples.

    ``sigma[i, j]`` is the standard deviation of model i at component j;
    ``rho[i, j]`` its correlation with model 0 there (row 0 is all ones, and
    every entry is clamped to [-1, 1] against floating-point roundoff).
    ``cost`` is the pilot's charge in cost units; in a study, this
    statistic's share of it.
    """

    sigma: np.ndarray
    rho: np.ndarray
    n_samples: int
    degenerate: np.ndarray | None = None
    cost: float = 0.0

    def __post_init__(self):
        self.sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        self.rho = np.atleast_2d(np.asarray(self.rho, dtype=float))
        if self.degenerate is None:
            self.degenerate = np.zeros(self.sigma.shape[1], dtype=bool)
        else:
            self.degenerate = np.asarray(self.degenerate, dtype=bool)

    @property
    def n_models(self) -> int:
        return self.sigma.shape[0]

    @property
    def n_components(self) -> int:
        return self.sigma.shape[1]

    def to_dict(self):
        def _clean(a):
            return [[None if not np.isfinite(v) else float(v) for v in row] for row in a]

        return {
            "n_samples": int(self.n_samples),
            "sigma": _clean(self.sigma),
            "rho": _clean(self.rho),
            "degenerate": [bool(b) for b in self.degenerate],
            "cost": float(self.cost),
        }

    @classmethod
    def from_dict(cls, d) -> "PilotStats":
        def _arr(rows):
            return np.array(
                [[np.nan if v is None else float(v) for v in row] for row in rows]
            )

        if "cost" not in d:
            # A default of 0 would silently drop the pilot from include_pilot_cost.
            raise ValueError("pilot file has no 'cost' key; rerun the pilot subcommand")
        return cls(
            sigma=_arr(d["sigma"]),
            rho=_arr(d["rho"]),
            n_samples=int(d["n_samples"]),
            degenerate=np.array(d["degenerate"], dtype=bool),
            cost=float(d["cost"]),
        )


def pilot_stats_from_exact(sigma, rho) -> PilotStats:
    """Wrap exactly-known moments so they can feed allocation directly.

    1-D inputs are treated as one scalar component per model.
    """
    sigma = np.asarray(sigma, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if sigma.ndim == 1:
        sigma = sigma[:, None]
    if rho.ndim == 1:
        rho = rho[:, None]
    return PilotStats(sigma=sigma, rho=rho, n_samples=0)


def _resolve_n(evals) -> int:
    """The samples every model shares: the smallest count, at least 3."""
    counts = np.asarray(evals.m)
    if np.any(counts <= 0):
        raise ValueError("pilot estimation needs every model evaluated")
    n = int(counts.min())
    if n < 3:
        raise ValueError("pilot estimation needs at least 3 samples")
    return n


def estimate_q_stats(evals, statistic) -> PilotStats:
    """Deviations/correlations of a statistic's per-sample contributions on
    the samples every model shares.

    ``evals`` may be raw, bridged or Sobol-block evaluations; ``evals.cost``
    is stored as the result's cost.
    """
    if isinstance(statistic, str):
        statistic = STATISTICS[statistic]
    n = _resolve_n(evals)
    contribs = [
        statistic.pilot_contributions(evals, i, n) for i in range(len(evals.m))
    ]
    hf = contribs[0]
    k = len(contribs)
    p = hf.shape[1]
    sigma = np.empty((k, p))
    rho = np.empty((k, p))
    hf_c = hf - hf.mean(axis=0)
    s1 = np.sqrt((hf_c**2).sum(axis=0) / (n - 1))
    sigma[0] = s1
    rho[0] = 1.0
    degenerate = s1 == 0.0
    for i in range(1, k):
        vi = contribs[i]
        vi_c = vi - vi.mean(axis=0)
        si = np.sqrt((vi_c**2).sum(axis=0) / (n - 1))
        sigma[i] = si
        cov = (hf_c * vi_c).sum(axis=0) / (n - 1)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = cov / (s1 * si)
        # A flat low-fidelity component carries no linear information.
        r[(si == 0.0) & ~degenerate] = 0.0
        rho[i] = np.clip(r, -1.0, 1.0)
    if np.any(degenerate):
        rho[1:, degenerate] = np.nan
    return PilotStats(sigma, rho, n, degenerate, float(evals.cost))


# Kept for perfbench, which calls or traces these names; delete them with the
# next benchmark change.


def estimate_moment_stats(evals):
    return estimate_q_stats(evals, "expectation")


def estimate_g_stats(evals, bridges, statistic="expectation"):
    return estimate_q_stats(apply_bridges(evals, bridges), statistic)
