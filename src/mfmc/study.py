"""Replicated pilot -> allocation -> estimation studies with file reports.

One *replicate* re-runs the whole analysis end to end: draw a fresh pilot,
estimate the allocation statistics, solve the allocation at the requested
budget (or derive the budget from a tolerance), draw fresh estimation
samples, and combine. A *study* repeats that R times with independent seed
streams and reports replicate tables, allocation summaries, and empirical
errors against reference values. A *sweep* runs one study per budget and
tabulates error versus budget.

Everything is deterministic given (config, seed): replicate r derives all
of its sample streams from (seed, purpose, r), so the worker count never
changes any output byte.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .allocation import (
    CostModel,
    budget_for_tolerance,
    optimal_allocation,
)
from .errors import MFMCError, UnknownNameError
from .estimators import STATISTICS, apply_bridges, mfmc_statistic, sum_for_plan
from .hierarchy import (
    HIERARCHY_NAMES,
    get_hierarchy,
    ishigami_mean,
    ishigami_sobol_indices,
    ishigami_variance,
    quintic_mean,
    quintic_variance,
    synthetic_field_grid,
)
from .pilot import PilotStats, estimate_q_stats
from .regression import GaussianProcessBridge
from .sampling import (
    _sum_counts,
    build_sobol_block,
    draw_inputs,
    evaluate_nested,
    sobol_cost_factor,
)

STAT_ORDER = {"expectation": 0, "variance": 1, "sobol-main": 2, "sobol-total": 3}
MODES = ("linear", "nonlinear")

# Seed-stream purposes; replicate r of a study uses (seed, purpose, r).
_PILOT = 101
_TRAIN = 211
_ESTIMATE = 307  # plus the statistic's index
_REFERENCE = 977


@dataclass
class StudyConfig:
    """Everything a study run depends on, with JSON round-tripping.

    Budgets are in high-fidelity-equivalent units p (total cost divided by
    the high-fidelity cost, so p * costs[0] in cost units). Exactly one of
    ``budgets``/``tolerance`` must be set. Pilot cost is reported
    separately and only subtracted from a given budget when
    ``include_pilot_cost`` is set; a tolerance budget is never reduced by
    it.
    """

    hierarchy: str = "ishigami"
    costs: tuple | None = None
    n_points: int = 17
    statistics: tuple = ("expectation",)
    mode: str = "linear"
    pilot_size: int = 100
    regression_train_size: int = 100
    budgets: tuple | None = (40.0,)
    tolerance: float | None = None
    replicates: int = 100
    seed: int = 0
    out_dir: str = "results"
    output_weights: tuple | None = None
    include_pilot_cost: bool = False
    jobs: int = 1
    reference_file: str | None = None
    reference_samples: int = 1_000_000

    def __post_init__(self):
        if isinstance(self.statistics, str):
            self.statistics = (self.statistics,)
        self.statistics = tuple(self.statistics)
        if self.budgets is not None:
            self.budgets = tuple(float(b) for b in np.atleast_1d(self.budgets))
        if self.costs is not None:
            self.costs = tuple(float(c) for c in self.costs)
        if self.output_weights is not None:
            self.output_weights = tuple(float(v) for v in self.output_weights)

    def validate(self):
        if self.hierarchy not in HIERARCHY_NAMES:
            raise UnknownNameError(
                f"unknown hierarchy {self.hierarchy!r}; available: {', '.join(HIERARCHY_NAMES)}"
            )
        for name in self.statistics:
            if name not in STATISTICS:
                raise UnknownNameError(
                    f"unknown statistic {name!r}; available: {', '.join(STATISTICS)}"
                )
        if self.mode not in MODES:
            raise UnknownNameError(f"unknown mode {self.mode!r}; available: {MODES}")
        if self.n_points < 1:
            raise ValueError(f"n_points must be >= 1, got {self.n_points}")
        if self.pilot_size < 3:
            raise ValueError(f"pilot_size must be >= 3, got {self.pilot_size}")
        if self.mode == "nonlinear" and self.regression_train_size < 5:
            raise ValueError(
                f"regression_train_size must be >= 5 in nonlinear mode, "
                f"got {self.regression_train_size}"
            )
        hierarchy = get_hierarchy(self.hierarchy, n_points=self.n_points)
        if self.costs is not None and len(self.costs) != hierarchy.n_models:
            raise ValueError(
                f"costs has {len(self.costs)} entries but hierarchy "
                f"{self.hierarchy!r} has {hierarchy.n_models} models"
            )
        if self.output_weights is not None:
            if not all(math.isfinite(v) and v > 0 for v in self.output_weights):
                raise ValueError(
                    f"output_weights must be finite and > 0, got {list(self.output_weights)}"
                )
            for name in self.statistics:
                _component_weights(self, hierarchy, STATISTICS[name])
        if (self.budgets is None) == (self.tolerance is None):
            raise ValueError("exactly one of budgets/tolerance must be set")
        if self.budgets is not None and not all(math.isfinite(b) and b > 0 for b in self.budgets):
            raise ValueError(f"budgets must be finite and > 0, got {list(self.budgets)}")
        if self.tolerance is not None and not (
            math.isfinite(self.tolerance) and self.tolerance > 0
        ):
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        min_samples = max((STATISTICS[s].min_samples for s in self.statistics), default=1)
        if self.reference_samples < min_samples:
            raise ValueError(
                f"reference_samples must be >= {min_samples} for statistics "
                f"{list(self.statistics)}, got {self.reference_samples}"
            )
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.mode == "nonlinear" and any(
            STATISTICS[s].needs_sobol_block for s in self.statistics
        ):
            raise ValueError("nonlinear mode does not support Sobol statistics")
        return self

    def to_dict(self):
        d = dataclasses.asdict(self)
        for key in ("statistics", "budgets", "costs", "output_weights"):
            if d[key] is not None:
                d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, d) -> "StudyConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise UnknownNameError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def build_hierarchy(self):
        return get_hierarchy(self.hierarchy, costs=self.costs, n_points=self.n_points)


def reference_values(config: StudyConfig, stat_label: str, hierarchy) -> np.ndarray | None:
    """Reference statistic values: a user oracle file, else analytic built-ins.

    Sobol references are returned on the raw (variance-scaled) scale the
    estimators work on.
    """
    if config.reference_file:
        table = json.loads(Path(config.reference_file).read_text())
        if stat_label in table:
            return np.asarray(table[stat_label], dtype=float)
    name = hierarchy.label
    if name == "ishigami":
        if stat_label == "expectation":
            return np.array([ishigami_mean()])
        if stat_label == "variance":
            return np.array([ishigami_variance()])
        main, total = ishigami_sobol_indices()
        v = ishigami_variance()
        if stat_label == "sobol-main":
            return main * v
        if stat_label == "sobol-total":
            return total * v
    if name == "quintic":
        if stat_label == "expectation":
            return np.array([quintic_mean()])
        if stat_label == "variance":
            return np.array([quintic_variance()])
    if name == "synthetic-field":
        x = synthetic_field_grid(hierarchy.output_length)
        if stat_label == "expectation":
            return np.zeros_like(x)
        if stat_label == "variance":
            return 1.0 + 0.01 * x**2
    return None


def _component_weights(config: StudyConfig, hierarchy, stat) -> np.ndarray:
    """``output_weights``, one per component of ``stat``; all ones when unset."""
    p = hierarchy.input_dimension if stat.needs_sobol_block else hierarchy.output_length
    if config.output_weights is None:
        return np.ones(p)
    w = np.asarray(config.output_weights, dtype=float)
    if w.shape != (p,):
        raise ValueError(f"output_weights must have {p} entries for {stat.label}, got {w.size}")
    return w


def _cost_factor(hierarchy, stat) -> float:
    """Cost units charged per input row of one model (see ``sobol_cost_factor``)."""
    if stat.needs_sobol_block:
        return sobol_cost_factor(hierarchy.input_dimension)
    return 1.0


def _draw(hierarchy, stat, n: int, seed):
    """n input rows for ``stat``: a Sobol block for Sobol statistics, else plain draws."""
    if stat.needs_sobol_block:
        return build_sobol_block(hierarchy, n, seed)
    return draw_inputs(hierarchy, n, seed)


def _pilot_cost(config: StudyConfig, hierarchy, stat) -> float:
    """Cost of the pilot stage: the pilot rows, plus the bridge training rows."""
    k = hierarchy.n_models
    factor = _cost_factor(hierarchy, stat)
    cost = float(np.dot(hierarchy.costs, [config.pilot_size] * k) * factor)
    if config.mode == "nonlinear":
        cost += float(np.dot(hierarchy.costs, [config.regression_train_size] * k))
    return cost


@functools.lru_cache(maxsize=1)
def _fit_bridges(hierarchy_name: str, n_points: int, n_train: int, seed, rep: int) -> tuple:
    """GP bridges of replicate ``rep``, one per low-fidelity model.

    Each is fitted on (low, high) output pairs from the training stream
    (seed, _TRAIN, rep). The arguments are everything the fit reads (model
    costs do not enter it), so a cached result is never stale; the single
    entry lets the statistics of one replicate share a fit while memory
    stays bounded. The cached bridges are only read, never refitted.
    """
    hierarchy = get_hierarchy(hierarchy_name, n_points=n_points)
    k = hierarchy.n_models
    samples = draw_inputs(hierarchy, n_train, (seed, _TRAIN, rep))
    train = evaluate_nested(hierarchy, samples, [n_train] * k)
    hf = train.outputs[0][:, 0]
    return tuple(GaussianProcessBridge().fit(train.outputs[i][:, 0], hf) for i in range(1, k))


@functools.lru_cache(maxsize=2)
def _pilot_evaluations(
    hierarchy_name: str,
    n_points: int,
    pilot_size: int,
    seed,
    rep: int,
    sobol: bool,
    mode: str,
    n_train: int,
):
    """Every model on the pilot draw of replicate ``rep``, bridged in nonlinear mode.

    The draw comes from the pilot stream (seed, _PILOT, rep): a Sobol block
    when ``sobol`` is set, else plain rows. In nonlinear mode the
    low-fidelity outputs go through the bridges of ``_fit_bridges`` (trained
    on ``n_train`` rows). The arguments are everything the outputs depend
    on (model costs do not enter them, and ``_pilot_cost`` charges the
    pilot), so a cached result is never stale; the two entries hold a
    replicate's plain and Sobol draws, so each pilot draw is evaluated once
    per replicate however many statistics read it. The cached evaluations
    are only read.
    """
    hierarchy = get_hierarchy(hierarchy_name, n_points=n_points)
    draw = build_sobol_block if sobol else draw_inputs
    samples = draw(hierarchy, pilot_size, (seed, _PILOT, rep))
    evals = evaluate_nested(hierarchy, samples, [pilot_size] * hierarchy.n_models)
    if mode == "nonlinear":
        evals = apply_bridges(evals, _fit_bridges(hierarchy_name, n_points, n_train, seed, rep))
    return evals


def _pilot_stage(config: StudyConfig, hierarchy, stat, rep: int):
    """Pilot statistics, bridges and pilot cost of replicate ``rep``.

    Returns (stats, bridges, pilot cost); bridges is None in linear mode.
    The pilot and training streams do not depend on the statistic, so every
    statistic of a replicate sees the same pilot samples and the same
    bridges. Each pilot draw (plain, or a Sobol block) is evaluated once
    per replicate by ``_pilot_evaluations``, and the bridges are fitted
    once by ``_fit_bridges``; this stage only estimates the statistic's
    pilot statistics from the shared evaluations.
    """
    evals = _pilot_evaluations(
        config.hierarchy,
        config.n_points,
        config.pilot_size,
        config.seed,
        rep,
        stat.needs_sobol_block,
        config.mode,
        config.regression_train_size,
    )
    kind = "raw" if stat.label == "expectation" else "q"
    bridges = None
    if config.mode == "nonlinear":
        bridges = _fit_bridges(
            config.hierarchy, config.n_points, config.regression_train_size, config.seed, rep
        )
        kind = "g"
    stats = estimate_q_stats(evals, stat, kind=kind)
    return stats, bridges, _pilot_cost(config, hierarchy, stat)


def _plan_stage(config: StudyConfig, hierarchy, stat, stats, budget, pilot_cost):
    """(plan, absolute estimation budget, component weights) of one statistic.

    The one plan stage of ``run_replicate`` and ``run_allocate``. ``budget``
    is in high-fidelity-equivalent units, or None in tolerance mode, where
    the estimation budget the tolerance needs is derived from the pilot
    statistics. With ``include_pilot_cost`` the pilot cost is taken out of
    a given budget; a tolerance budget is left whole, since the pilot is
    already paid for, and the pilot cost still counts in the cost ledger.
    """
    costs = CostModel(hierarchy.costs * _cost_factor(hierarchy, stat))
    weights = _component_weights(config, hierarchy, stat)
    if config.tolerance is not None:
        budget_abs = budget_for_tolerance(stats, costs, config.tolerance, weights)
        budget_abs = max(budget_abs, costs.w[0] * stat.min_samples)
    else:
        budget_abs = float(budget) * hierarchy.costs[0]
        if config.include_pilot_cost:
            budget_abs = budget_abs - pilot_cost
    plan = optimal_allocation(stats, costs, budget_abs, weights, stat.min_samples)
    return plan, budget_abs, weights


def run_replicate(config: StudyConfig, stat_label: str, budget, rep: int) -> dict:
    """One full pilot -> allocation -> estimation pass.

    ``budget`` is in high-fidelity-equivalent units, or None in tolerance
    mode. The pilot streams are shared across statistics (the same pilot
    samples are reused for every statistic of a replicate), and each pilot
    draw is evaluated once per replicate (``_pilot_evaluations``);
    estimation streams are statistic-specific.
    """
    hierarchy = config.build_hierarchy()
    stat = STATISTICS[stat_label]
    stats, bridges, pilot_cost = _pilot_stage(config, hierarchy, stat, rep)
    plan, budget_abs, weights = _plan_stage(config, hierarchy, stat, stats, budget, pilot_cost)

    est_seed = (config.seed, _ESTIMATE + STAT_ORDER[stat_label], rep)
    samples = _draw(hierarchy, stat, int(plan.m.max()), est_seed)
    factor = _cost_factor(hierarchy, stat)
    est_evals = sum_for_plan(hierarchy, plan, samples, stat, factor, bridges)
    report = mfmc_statistic(est_evals, plan, stat)

    return {
        "replicate": rep,
        "statistic": stat_label,
        "mode": config.mode,
        "budget_p": budget_abs / hierarchy.costs[0],
        "budget_abs": budget_abs,
        "values": np.atleast_1d(report.value),
        "predicted_mse": float(plan.predicted_mse),
        "realized_cost": float(est_evals.cost),
        "pilot_cost": float(pilot_cost),
        "m": plan.m.copy(),
        "m_real": plan.m_real.copy(),
        "retained": plan.retained.copy(),
        "alpha": None if plan.alpha is None else plan.alpha.copy(),
        "rho": stats.rho.copy(),
        "weights": weights,
    }


def _replicate_task(payload):
    """Every configured statistic of one replicate, in order, so they share its bridges."""
    config = StudyConfig.from_dict(payload["config"])
    return [
        run_replicate(config, stat_label, payload["budget"], payload["replicate"])
        for stat_label in config.statistics
    ]


def _run_replicates(config: StudyConfig, budget) -> list:
    """Records of every replicate, one list per configured statistic.

    One task runs one replicate; each list is in replicate order.
    """
    payloads = [
        {"config": config.to_dict(), "budget": budget, "replicate": r}
        for r in range(config.replicates)
    ]
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            per_replicate = list(pool.map(_replicate_task, payloads))
    else:
        per_replicate = [_replicate_task(p) for p in payloads]
    return list(zip(*per_replicate))


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_replicates_csv(path, records):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["replicate", "budget", "statistic", "component", "value", "predicted_mse", "realized_cost"]
        )
        for rec in records:
            for comp, value in enumerate(rec["values"]):
                writer.writerow(
                    [
                        rec["replicate"],
                        _fmt(rec["budget_p"]),
                        rec["statistic"],
                        comp,
                        _fmt(value),
                        _fmt(rec["predicted_mse"]),
                        _fmt(rec["realized_cost"]),
                    ]
                )


def _nanmean(stack, axis=0):
    with np.errstate(invalid="ignore"):
        out = np.nanmean(stack, axis=axis)
    return out


def _allocation_summary(records, labels):
    k = len(labels)
    m = np.array([rec["m"] for rec in records], dtype=float)
    retained = np.array([rec["retained"] for rec in records], dtype=float)
    rho = _nanmean(np.array([rec["rho"] for rec in records]), axis=0)
    alpha_rows = [rec["alpha"] for rec in records if rec["alpha"] is not None]
    alpha_mean = None
    if alpha_rows:
        # Average coefficients only over replicates that kept the model.
        stack = np.array(alpha_rows)
        kept = np.array([rec["retained"] for rec in records if rec["alpha"] is not None])
        alpha_mean = np.full(stack.shape[1:], np.nan)
        for i in range(k):
            rows = stack[kept[:, i], i, :]
            if rows.size:
                alpha_mean[i] = rows.mean(axis=0)
    return {
        "labels": list(labels),
        "m_mean": m.mean(axis=0),
        "retained_fraction": retained.mean(axis=0),
        "rho_mean": rho,
        "alpha_mean": alpha_mean,
    }


def _write_allocation_csv(path, summary):
    p = summary["rho_mean"].shape[1]
    alpha_cols = ["alpha"] if p == 1 else [f"alpha_{j}" for j in range(p)]
    rho_cols = ["rho"] if p == 1 else [f"rho_{j}" for j in range(p)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "m", "retained_fraction", *alpha_cols, *rho_cols])
        for i, label in enumerate(summary["labels"]):
            alpha = summary["alpha_mean"]
            alpha_vals = (
                [""] * p
                if alpha is None or not np.any(np.isfinite(alpha[i]))
                else [_fmt(v) for v in alpha[i]]
            )
            rho_vals = [
                _fmt(v) if np.isfinite(v) else "" for v in summary["rho_mean"][i]
            ]
            writer.writerow(
                [
                    label,
                    _fmt(summary["m_mean"][i]),
                    _fmt(summary["retained_fraction"][i]),
                    *alpha_vals,
                    *rho_vals,
                ]
            )


def _empirical_errors(records, reference, weights):
    if reference is None:
        return None, None, None
    values = np.array([rec["values"] for rec in records])
    err_sq = (values - reference[None, :]) ** 2
    per_component = err_sq.mean(axis=0)
    total = float(np.sum(per_component * weights))
    ref_scale = float(np.sum(reference**2 * weights))
    relative = total / ref_scale if ref_scale > 0 else None
    return per_component, total, relative


def _stat_summary(config, records, reference, weights):
    values = np.array([rec["values"] for rec in records])
    per_comp, total, relative = _empirical_errors(records, reference, weights)
    realized = float(sum(rec["realized_cost"] for rec in records))
    pilot = float(sum(rec["pilot_cost"] for rec in records))
    total_cost = realized + pilot if config.include_pilot_cost else realized
    out = {
        "mode": config.mode,
        "replicates": len(records),
        "budget_p_mean": float(np.mean([rec["budget_p"] for rec in records])),
        "value_mean": [float(v) for v in values.mean(axis=0)],
        "reference": None if reference is None else [float(v) for v in reference],
        "empirical_mse": None if total is None else float(total),
        "empirical_mse_per_component": None
        if per_comp is None
        else [float(v) for v in per_comp],
        "relative_mse": None if relative is None else float(relative),
        "predicted_mse_mean": float(np.mean([rec["predicted_mse"] for rec in records])),
        "realized_cost_total": realized,
        "pilot_cost_total": pilot,
        "total_cost": total_cost,
        "m_mean": [float(v) for v in np.mean([rec["m"] for rec in records], axis=0)],
        "retained_fraction": [
            float(v) for v in np.mean([rec["retained"] for rec in records], axis=0)
        ],
    }
    return out


def run_study(config: StudyConfig, out_dir=None) -> dict:
    """Run all configured statistics at one budget (or tolerance); write reports.

    Each replicate runs every statistic in turn (replicates are spread over
    ``jobs`` worker processes), so in nonlinear mode the statistics of a
    replicate share one bridge fit. Produces, in the output directory:
    ``allocation_<stat>.csv`` with the averaged sample counts,
    coefficients, and correlations per model;
    ``replicates_<stat>.csv`` with one row per replicate and component; and
    ``summary.json`` with empirical errors against the reference values.
    """
    config.validate()
    if config.budgets is not None and len(config.budgets) != 1:
        raise ValueError("run_study handles a single budget; use replicate_sweep for lists")
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    hierarchy = config.build_hierarchy()
    budget = None if config.budgets is None else config.budgets[0]
    # The worker count never changes a result, so it is left out of the report.
    settings = {k: v for k, v in config.to_dict().items() if k != "jobs"}
    summary = {"config": settings, "statistics": {}}
    for stat_label, records in zip(config.statistics, _run_replicates(config, budget)):
        reference = reference_values(config, stat_label, hierarchy)
        weights = _component_weights(config, hierarchy, STATISTICS[stat_label])
        _write_replicates_csv(out / f"replicates_{stat_label}.csv", records)
        alloc = _allocation_summary(records, [m.label for m in hierarchy.models])
        _write_allocation_csv(out / f"allocation_{stat_label}.csv", alloc)
        summary["statistics"][stat_label] = _stat_summary(config, records, reference, weights)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    return summary


def replicate_sweep(config: StudyConfig, out_dir=None) -> list:
    """Empirical-vs-predicted error across a list of budgets.

    Every budget gets a full study; the cross-budget table lands in
    ``sweep.csv``. References must exist for every statistic (analytic
    built-ins or a reference file), since the empirical error needs them.
    """
    config.validate()
    if config.budgets is None:
        raise ValueError("replicate_sweep needs an explicit budgets list")
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    hierarchy = config.build_hierarchy()
    for stat_label in config.statistics:
        if reference_values(config, stat_label, hierarchy) is None:
            raise MFMCError(
                f"no reference values for {stat_label!r} on {config.hierarchy!r}; "
                "run make-reference first and pass reference_file"
            )
    rows = []
    single = len(config.budgets) == 1
    for budget in config.budgets:
        sub_dir = out if single else out / f"p{budget:g}"
        sub_config = dataclasses.replace(config, budgets=(budget,))
        summary = run_study(sub_config, out_dir=sub_dir)
        for stat_label, entry in summary["statistics"].items():
            rows.append(
                {
                    "budget": budget,
                    "statistic": stat_label,
                    "mode": entry["mode"],
                    "empirical_mse": entry["empirical_mse"],
                    "relative_mse": entry["relative_mse"],
                    "predicted_mse": entry["predicted_mse_mean"],
                    "replicates": entry["replicates"],
                }
            )
    with open(out / "sweep.csv", "w", newline="") as fh:
        fh.write("# empirical_mse: weighted squared error vs reference, averaged over replicates\n")
        fh.write("# relative_mse: empirical_mse divided by the weighted squared reference\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["budget", "statistic", "mode", "empirical_mse", "relative_mse", "predicted_mse", "replicates"]
        )
        for row in rows:
            writer.writerow(
                [
                    _fmt(row["budget"]),
                    row["statistic"],
                    row["mode"],
                    _fmt(row["empirical_mse"]),
                    "" if row["relative_mse"] is None else _fmt(row["relative_mse"]),
                    _fmt(row["predicted_mse"]),
                    row["replicates"],
                ]
            )
    return rows


def make_reference(config: StudyConfig, out_path=None) -> dict:
    """Large plain-sampling reference values from the high-fidelity model.

    Writes a JSON table mapping each configured statistic to its reference
    vector, computed at ``reference_samples`` draws of model 0. The
    statistics on plain draws share one walk over the outputs, as do the
    Sobol statistics on one Sobol block; each walk folds the states of all
    of its statistics, and no outputs are held.
    """
    config.validate()
    hierarchy = config.build_hierarchy()
    n = int(config.reference_samples)
    m = np.zeros(hierarchy.n_models, dtype=int)
    m[0] = n
    table = {"_meta": {"hierarchy": config.hierarchy, "n_samples": n, "seed": config.seed}}
    for sobol in (False, True):
        stats = [STATISTICS[s] for s in config.statistics]
        stats = [stat for stat in stats if stat.needs_sobol_block == sobol]
        if not stats:
            continue
        samples = _draw(hierarchy, stats[0], n, (config.seed, _REFERENCE))
        sums = _sum_counts(hierarchy, samples, m, [stat.fold for stat in stats])
        for stat in stats:
            table[stat.label] = [float(v) for v in stat.single_level(sums, 0, n)]
    if out_path is None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        out_path = out / "reference.json"
    Path(out_path).write_text(json.dumps(table, indent=2, sort_keys=True))
    return table


def run_pilot(config: StudyConfig, out_dir=None) -> dict:
    """Estimate and save the pilot statistics for each configured statistic.

    These are the pilot statistics of replicate 0 of a study on the same
    config. Statistics on the same draw share one evaluation of it: each
    pilot draw is evaluated once.
    """
    config.validate()
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    hierarchy = config.build_hierarchy()
    results = {}
    for stat_label in config.statistics:
        stats, _, _ = _pilot_stage(config, hierarchy, STATISTICS[stat_label], rep=0)
        stats.save(out / f"pilot_{stat_label}.json")
        results[stat_label] = stats
    return results


def run_allocate(config: StudyConfig, out_dir=None) -> dict:
    """Allocate from previously saved pilot statistics, without new model runs.

    The plan equals the one replicate 0 of a study on the same config uses,
    tolerance mode and ``include_pilot_cost`` included.
    """
    config.validate()
    if config.budgets is not None and len(config.budgets) != 1:
        raise ValueError("allocate needs exactly one budget")
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    hierarchy = config.build_hierarchy()
    budget = None if config.budgets is None else config.budgets[0]
    plans = {}
    for stat_label in config.statistics:
        stat = STATISTICS[stat_label]
        pilot_path = out / f"pilot_{stat_label}.json"
        if not pilot_path.exists():
            raise MFMCError(f"missing pilot file {pilot_path}; run the pilot subcommand first")
        stats = PilotStats.load(pilot_path)
        pilot_cost = _pilot_cost(config, hierarchy, stat)
        plan, _, _ = _plan_stage(config, hierarchy, stat, stats, budget, pilot_cost)
        plan.save(out / f"allocation_{stat_label}.json")
        plans[stat_label] = plan
    return plans
