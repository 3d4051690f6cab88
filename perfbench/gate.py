"""Correctness gate applied to every benchmark run.

A replicate fails when its plan or its output breaks an invariant the
library promises: cost within budget, counts nondecreasing over the retained
models, zero samples for a dropped model, finite values. A run fails when a
statistic's replicate mean sits more than ``K_SE`` standard errors from its
closed-form reference.

The standard error comes from the plans' own error model: the mean predicted
MSE over the n replicates, divided by n. It needs no spread estimate from
few replicates, so the gate behaves the same on a workload with five
replicates as on one with thousands. For a vector statistic the weighted
squared distance of the mean from the reference is compared against
``K_SE**2`` times that same weighted error, which for a scalar is the usual
|mean - reference| <= K_SE * SE.
"""

from __future__ import annotations

import math

import numpy as np

K_SE = 6.0
# Relative slack on "cost <= budget", for rounding in the two cost sums.
BUDGET_SLACK = 1e-9


def replicate_failures(rec: dict) -> list:
    """Invariants one replicate record breaks, as short messages."""
    problems = []
    m = np.asarray(rec["m"], dtype=int)
    kept = np.asarray(rec["retained"], dtype=bool)
    values = np.asarray(rec["values"], dtype=float)
    if not rec["realized_cost"] <= rec["budget"] * (1.0 + BUDGET_SLACK):
        problems.append(f"cost {rec['realized_cost']!r} over budget {rec['budget']!r}")
    if not kept[0] or m[0] < 1:
        problems.append("high-fidelity model not sampled")
    if np.any(np.diff(m[kept]) < 0):
        problems.append(f"counts {m.tolist()} decrease over the retained models")
    if np.any(m[~kept] != 0):
        problems.append(f"a dropped model has samples: m={m.tolist()}")
    if not (np.all(np.isfinite(values)) and math.isfinite(rec["predicted_mse"])
            and math.isfinite(rec["realized_cost"])):
        problems.append("non-finite value, predicted MSE or cost")
    return problems


def reference_failures(records: list, references: dict, k: float = K_SE) -> list:
    """Statistics whose replicate mean is off its reference by more than k SE."""
    problems = []
    for stat, reference in references.items():
        group = [r for r in records if r["statistic"] == stat]
        if not group:
            problems.append(f"{stat}: no replicates")
            continue
        values = np.array([r["values"] for r in group], dtype=float)
        weights = np.asarray(group[0]["weights"], dtype=float)
        distance_sq = float(np.sum(weights * (values.mean(axis=0) - reference) ** 2))
        se_sq = float(np.mean([r["predicted_mse"] for r in group])) / len(group)
        if not distance_sq <= k * k * se_sq:
            z = math.sqrt(distance_sq / se_sq) if se_sq > 0 else math.inf
            problems.append(
                f"{stat}: replicate mean is {z:.2f} standard errors from the reference "
                f"(limit {k:g}, n={len(group)})"
            )
    return problems
