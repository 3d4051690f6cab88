"""Model hierarchies: the abstraction plus the built-in benchmark families.

A hierarchy is an ordered list of models that share the same random input
vector. Index 0 is the high-fidelity model whose statistics we want; the
remaining models are cheaper companions that are useful only through their
statistical correlation with the first one.

Three hierarchies ship with the package:

``ishigami``
    The classic three-dimensional sensitivity benchmark with two degraded
    companions, all analytic. Mean 2.5, variance ~10.845 for the
    high-fidelity member.

``quintic``
    A trigonometric + odd-polynomial family whose members are only weakly
    linearly correlated but strongly statistically dependent, which is the
    regime where the regression bridge pays off.

``synthetic-field``
    A vector-valued (grid-valued) Gaussian family with closed-form
    per-point variances and correlations, used as an exact oracle for the
    vector-valued machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import UnknownNameError

DEFAULT_BENCHMARK_COSTS = (1.0, 0.05, 0.001)


@dataclass(frozen=True)
class Uniform:
    """Uniform distribution on [low, high] for one input coordinate."""

    low: float
    high: float

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return gen.uniform(self.low, self.high, size=n)


@dataclass(frozen=True)
class Normal:
    """Normal distribution with the given mean and standard deviation."""

    mean: float
    std: float

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return gen.normal(self.mean, self.std, size=n)


@dataclass(frozen=True)
class Model:
    """One member of a hierarchy.

    ``evaluator`` must be deterministic: the same input yields bit-identical
    output. If ``vectorized`` is true the evaluator maps an (n, d) batch to
    an (n, n_out) batch; otherwise it maps a single length-d vector to a
    length-n_out vector and batching is handled by a row loop. A vectorized
    evaluator's output row must depend only on its input row, not on the
    other rows of the batch or its size: the library may evaluate a sample
    in row blocks (see ``sampling._sum_counts``) and relies on getting
    the rows one call would give. Evaluators must tolerate concurrent
    callers (pure functions do).
    """

    evaluator: Callable
    cost: float
    label: str
    vectorized: bool = False
    input_dimension: int | None = None

    def __post_init__(self):
        if not self.cost > 0:
            raise ValueError(f"model {self.label!r}: cost must be > 0, got {self.cost}")

    def evaluate_batch(self, inputs: np.ndarray) -> np.ndarray:
        """Evaluate on an (n, d) batch and return an (n, n_out) array."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        if self.input_dimension is not None and inputs.shape[1] != self.input_dimension:
            raise ValueError(
                f"model {self.label!r} expects inputs of length {self.input_dimension}, "
                f"got {inputs.shape[1]}"
            )
        if self.vectorized:
            out = np.asarray(self.evaluator(inputs), dtype=float)
            if out.ndim == 1:
                out = out[:, None]
        else:
            out = np.atleast_2d(
                np.array([np.atleast_1d(self.evaluator(row)) for row in inputs], dtype=float)
            )
        return out


@dataclass(frozen=True, eq=False)
class ModelHierarchy:
    """Ordered models sharing one input distribution and output layout.

    The first model is the high-fidelity reference. All models accept
    inputs of the same dimension and produce outputs of the same length.
    ``output_weights`` are the per-component integration weights used when
    aggregating vector-valued errors; they default to all ones.
    """

    models: tuple[Model, ...]
    input_distributions: tuple
    output_length: int = 1
    output_weights: np.ndarray | None = None
    label: str = "hierarchy"

    def __post_init__(self):
        if len(self.models) < 1:
            raise ValueError("a hierarchy needs at least one model")
        if self.output_weights is None:
            object.__setattr__(self, "output_weights", np.ones(self.output_length))
        else:
            w = np.asarray(self.output_weights, dtype=float)
            if w.shape != (self.output_length,) or np.any(w <= 0):
                raise ValueError("output_weights must be positive with one entry per component")
            object.__setattr__(self, "output_weights", w)

    @property
    def n_models(self) -> int:
        return len(self.models)

    @property
    def input_dimension(self) -> int:
        return len(self.input_distributions)

    @property
    def costs(self) -> np.ndarray:
        return np.array([m.cost for m in self.models])


# ---------------------------------------------------------------------------
# Ishigami benchmark family
#
#   f1(z) = sin(z1) + 5 sin^2(z2) + (1/10) z3^4 sin(z1)
#   f2(z) = sin(z1) + 4.75 sin^2(z2) + (1/10) z3^4 sin(z1)
#   f3(z) = sin(z1) + 3 sin^2(z2) + (9/10) z3^2 sin(z1)
#
# with z_i ~ U(-pi, pi). The high-fidelity member is the Ishigami function
# with a = 5, b = 0.1, so its moments and variance decomposition are
# analytic (see the *_reference helpers below).
# ---------------------------------------------------------------------------

_ISHIGAMI_A = 5.0
_ISHIGAMI_B = 0.1


def _ishigami_f1(z):
    return np.sin(z[:, 0]) + 5.0 * np.sin(z[:, 1]) ** 2 + 0.1 * z[:, 2] ** 4 * np.sin(z[:, 0])


def _ishigami_f2(z):
    return np.sin(z[:, 0]) + 4.75 * np.sin(z[:, 1]) ** 2 + 0.1 * z[:, 2] ** 4 * np.sin(z[:, 0])


def _ishigami_f3(z):
    return np.sin(z[:, 0]) + 3.0 * np.sin(z[:, 1]) ** 2 + 0.9 * z[:, 2] ** 2 * np.sin(z[:, 0])


def ishigami_hierarchy(costs=DEFAULT_BENCHMARK_COSTS) -> ModelHierarchy:
    """Three-model Ishigami hierarchy with z_i ~ U(-pi, pi).

    Costs are abstract per-evaluation units; the defaults make the total
    cost of a typical allocation at budget 40 come out at ~40 cost units.
    """
    dists = (Uniform(-math.pi, math.pi),) * 3
    models = (
        Model(_ishigami_f1, costs[0], "f1", vectorized=True, input_dimension=3),
        Model(_ishigami_f2, costs[1], "f2", vectorized=True, input_dimension=3),
        Model(_ishigami_f3, costs[2], "f3", vectorized=True, input_dimension=3),
    )
    return ModelHierarchy(models, dists, output_length=1, label="ishigami")


def ishigami_mean() -> float:
    """Exact mean of the high-fidelity Ishigami member: a/2 = 2.5."""
    return _ISHIGAMI_A / 2.0


def ishigami_variance() -> float:
    """Exact variance: 1/2 + a^2/8 + b pi^4/5 + b^2 pi^8/18 (~10.845)."""
    a, b = _ISHIGAMI_A, _ISHIGAMI_B
    return 0.5 + a**2 / 8.0 + b * math.pi**4 / 5.0 + b**2 * math.pi**8 / 18.0


def ishigami_sobol_indices():
    """Exact normalized main and total Sobol indices (arrays of length 3).

    From the variance decomposition of the Ishigami function: the only
    nonzero partial variances are V1 = (1 + b pi^4/5)^2 / 2, V2 = a^2/8 and
    the z1-z3 interaction V13 = b^2 pi^8 (1/18 - 1/50).
    """
    a, b = _ISHIGAMI_A, _ISHIGAMI_B
    v = ishigami_variance()
    v1 = 0.5 * (1.0 + b * math.pi**4 / 5.0) ** 2
    v2 = a**2 / 8.0
    v13 = b**2 * math.pi**8 * (1.0 / 18.0 - 1.0 / 50.0)
    main = np.array([v1, v2, 0.0]) / v
    total = np.array([v1 + v13, v2, v13]) / v
    return main, total


# ---------------------------------------------------------------------------
# Quintic benchmark family
#
#   f1(z) = sin(z1) + sin^2(z2) + (1/10) z3^5
#   f2(z) = sin(z1) + sin^2(z2) + 2 z3^3
#   f3(z) = sin(z1) + sin^2(z2) + 20 z3
#
# with z_i ~ U(-pi, pi). The z3 terms are monotone odd maps of each other,
# so the pairwise linear correlations are mediocre while a fitted 1-D
# bridge makes the companions nearly perfect control variates.
# ---------------------------------------------------------------------------


def _quintic_f1(z):
    return np.sin(z[:, 0]) + np.sin(z[:, 1]) ** 2 + 0.1 * z[:, 2] ** 5


def _quintic_f2(z):
    return np.sin(z[:, 0]) + np.sin(z[:, 1]) ** 2 + 2.0 * z[:, 2] ** 3


def _quintic_f3(z):
    return np.sin(z[:, 0]) + np.sin(z[:, 1]) ** 2 + 20.0 * z[:, 2]


def quintic_hierarchy(costs=DEFAULT_BENCHMARK_COSTS) -> ModelHierarchy:
    """Three-model quintic hierarchy with z_i ~ U(-pi, pi)."""
    dists = (Uniform(-math.pi, math.pi),) * 3
    models = (
        Model(_quintic_f1, costs[0], "f1", vectorized=True, input_dimension=3),
        Model(_quintic_f2, costs[1], "f2", vectorized=True, input_dimension=3),
        Model(_quintic_f3, costs[2], "f3", vectorized=True, input_dimension=3),
    )
    return ModelHierarchy(models, dists, output_length=1, label="quintic")


def quintic_mean() -> float:
    """Exact mean: the sine and odd quintic terms vanish, sin^2 has mean 1/2."""
    return 0.5


def quintic_variance() -> float:
    """Exact variance: 1/2 + 1/8 + pi^10/1100 over independent terms."""
    return 0.5 + 0.125 + 0.01 * math.pi**10 / 11.0


# ---------------------------------------------------------------------------
# Synthetic vector-valued field for oracle testing
#
# On the grid x_j = j/n (j = 1..n), with s ~ N(0, I_3):
#
#   model 1: s1 sin(pi x) + s2 cos(pi x) + 0.1 s3 x
#   model 2: s1 sin(pi x) + s2 cos(pi x)
#   model 3: s1 sin(pi x)
#
# Every per-point moment is closed-form Gaussian algebra:
#   var_1(x)  = 1 + 0.01 x^2
#   rho_12(x) = 1 / sqrt(1 + 0.01 x^2)
#   rho_13(x) = |sin(pi x)| / sqrt(1 + 0.01 x^2)
# ---------------------------------------------------------------------------


def synthetic_field_grid(n_points: int) -> np.ndarray:
    return np.arange(1, n_points + 1) / n_points


class _FieldModel:
    """Picklable vector-field evaluator over a fixed grid."""

    def __init__(self, grid, level):
        self.grid = np.asarray(grid, dtype=float)
        self.level = level

    def __call__(self, s):
        x = self.grid[None, :]
        out = s[:, 0:1] * np.sin(np.pi * x)
        if self.level <= 2:
            out = out + s[:, 1:2] * np.cos(np.pi * x)
        if self.level <= 1:
            out = out + 0.1 * s[:, 2:3] * x
        return out


def synthetic_field_hierarchy(n_points: int, costs=DEFAULT_BENCHMARK_COSTS) -> ModelHierarchy:
    """Vector-valued Gaussian hierarchy on the grid j/n_points, j = 1..n_points."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    grid = synthetic_field_grid(n_points)
    dists = (Normal(0.0, 1.0),) * 3
    models = (
        Model(_FieldModel(grid, 1), costs[0], "field1", vectorized=True, input_dimension=3),
        Model(_FieldModel(grid, 2), costs[1], "field2", vectorized=True, input_dimension=3),
        Model(_FieldModel(grid, 3), costs[2], "field3", vectorized=True, input_dimension=3),
    )
    return ModelHierarchy(models, dists, output_length=n_points, label="synthetic-field")


def synthetic_field_exact_moments(n_points: int):
    """Closed-form (sigma, rho) arrays of shape (3, n_points) for the field family.

    ``sigma[i]`` is the per-point standard deviation of model i and
    ``rho[i]`` its per-point correlation with model 0 (row 0 is all ones).
    """
    x = synthetic_field_grid(n_points)
    var1 = 1.0 + 0.01 * x**2
    sigma = np.vstack([np.sqrt(var1), np.ones_like(x), np.abs(np.sin(np.pi * x))])
    rho = np.vstack(
        [np.ones_like(x), 1.0 / np.sqrt(var1), np.abs(np.sin(np.pi * x)) / np.sqrt(var1)]
    )
    return sigma, rho


# ---------------------------------------------------------------------------
# Registry for the command-line interface
# ---------------------------------------------------------------------------

HIERARCHY_NAMES = ("ishigami", "quintic", "synthetic-field")


def get_hierarchy(name: str, costs=None, n_points: int = 17) -> ModelHierarchy:
    """Look up a built-in hierarchy by name, optionally overriding costs."""
    costs = tuple(costs) if costs is not None else DEFAULT_BENCHMARK_COSTS
    if name == "ishigami":
        return ishigami_hierarchy(costs)
    if name == "quintic":
        return quintic_hierarchy(costs)
    if name == "synthetic-field":
        return synthetic_field_hierarchy(n_points, costs)
    raise UnknownNameError(
        f"unknown hierarchy {name!r}; available: {', '.join(HIERARCHY_NAMES)}"
    )
