"""Replicated pilot -> allocation -> estimation studies with file reports.

One *replicate* re-runs the whole analysis end to end: draw a fresh pilot,
estimate the allocation statistics, solve the allocation at the requested
budget (or derive the budget from a tolerance), draw fresh estimation
samples, and combine. A *study* repeats that R times with independent seed
streams and reports replicate tables, allocation summaries, and empirical
errors against reference values. A *sweep* runs each replicate once for a
list of budgets and tabulates error versus budget.

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
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .allocation import (
    CostModel,
    budget_for_tolerance,
    optimal_allocation,
    predicted_mse,
)
from .errors import DegenerateStatsError, InfeasibleBudgetError, MFMCError, UnknownNameError
from .estimators import STATISTICS, apply_bridges, mfmc_statistic, sum_for_plan
from .hierarchy import (
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
    NestedEvaluations,
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
_ESTIMATE = 307  # plus the STAT_ORDER of a group's first member
_REFERENCE = 977


_INT64_MAX = int(np.iinfo(np.int64).max)
_FLOAT_MAX = float(np.finfo(np.float64).max)


def _positive_real(value) -> bool:
    """Whether ``value`` is a number, not a bool or a string, that converts
    to a finite float > 0 (an integer beyond a float's range does not)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and 0 < value <= _FLOAT_MAX)


# A kind: the test a value passes, the words that refuse one that fails, and,
# for a list kind, how it stores each entry in a tuple (one value is a list of one).
_INTEGER = (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
            "an integer", None)
_REAL = (_positive_real, "a finite number > 0", None)
_REALS = (_positive_real, "a list of finite numbers > 0", float)
_NAME = (lambda v: isinstance(v, str), "a name", None)
_NAMES = (lambda v: isinstance(v, str), "a list of names", str)
_PATH = (lambda v: isinstance(v, (str, os.PathLike)), "a path", None)
_BOOL = (lambda v: isinstance(v, bool), "true or false", None)


@dataclass(frozen=True)
class _Key:
    """One ``StudyConfig`` key's row in ``_KEYS``."""

    kind: tuple  # one of the kinds above
    least: int | None = None  # an integer key's least value (validate); a seed has none
    choices: tuple | dict = ()  # the names it may take
    null: bool = False  # None is a value
    distinct: bool = False  # a non-empty list without repeats
    pilot: bool = False  # the pilot depends on it (_pilot_key)
    echo: bool = True  # summary.json echoes it


def _row(default, kind, **row):
    """A ``StudyConfig`` field whose ``_KEYS`` row is ``_Key(kind, **row)``."""
    return dataclasses.field(default=default, metadata={"row": _Key(kind, **row)})


@dataclass
class StudyConfig:
    """Everything a study run depends on, with JSON round-tripping.

    Budgets are in high-fidelity-equivalent units p (total cost divided by
    the high-fidelity cost, so p * costs[0] in cost units). Exactly one of
    ``budgets``/``tolerance`` must be set. A replicate's one pilot is
    charged once, split equally among the statistics that share it, and
    every record and ``total_cost`` counts that share. The statistics that
    read the same draw kind (plain rows: expectation and variance; a Sobol
    block: the two Sobol statistics) share one plan and one estimation
    walk, so a budget is what a replicate spends on the estimation of each
    draw kind, and the members split that walk's cost equally too. With
    ``include_pilot_cost`` a given budget also pays for the members' pilot
    shares; a tolerance budget is never reduced by them.
    """

    hierarchy: str = _row("ishigami", _NAME, pilot=True)
    n_points: int = _row(17, _INTEGER, least=1, pilot=True)
    costs: tuple | None = _row(None, _REALS, null=True, pilot=True)
    pilot_size: int = _row(100, _INTEGER, least=3, pilot=True)
    seed: int = _row(0, _INTEGER, pilot=True)  # taken modulo 2**64 (sampling._seed_tuple)
    mode: str = _row("linear", _NAME, choices=MODES, pilot=True)
    regression_train_size: int = _row(100, _INTEGER, least=5, pilot=True)
    statistics: tuple = _row(("expectation",), _NAMES, choices=STATISTICS, distinct=True, pilot=True)
    budgets: tuple | None = _row((40.0,), _REALS, null=True, distinct=True)
    tolerance: float | None = _row(None, _REAL, null=True)
    replicates: int = _row(100, _INTEGER, least=1)
    out_dir: str = _row("results", _PATH)
    output_weights: tuple | None = _row(None, _REALS, null=True)
    include_pilot_cost: bool = _row(False, _BOOL)
    # the processes that run replicates, this one included; never changes a result
    jobs: int = _row(1, _INTEGER, least=1, echo=False)
    reference_file: str | None = _row(None, _PATH, null=True)
    reference_samples: int = _row(1_000_000, _INTEGER, least=1)

    def __post_init__(self):
        for key, row in _KEYS.items():
            value = getattr(self, key)
            if value is None and row.null:
                continue
            test, what, entry = row.kind
            items = np.atleast_1d(np.asarray(value, dtype=object)).tolist() if entry else [value]
            if not all(test(v) for v in items):
                raise ValueError(f"{key} must be {what}, got {value!r}")
            for name in items if row.choices else ():
                if name not in row.choices:
                    raise UnknownNameError(f"unknown {key} {name!r}; "
                                           f"available: {', '.join(row.choices)}")
            if row.distinct and (not items or len(set(items)) < len(items)):
                raise ValueError(f"{key} must be a non-empty list without repeats, got {items}")
            setattr(self, key, tuple(map(entry, items)) if entry else value)

    def validate(self):
        """Refuse what no kind sees alone: the integer keys' ranges and the
        rules that relate two keys, or a key and the hierarchy."""
        least = {key: row.least for key, row in _KEYS.items() if row.least is not None}
        least["reference_samples"] = max(STATISTICS[s].min_samples for s in self.statistics)
        if self.mode != "nonlinear":  # the one mode that reads it
            del least["regression_train_size"]
        for key, low in least.items():
            value = getattr(self, key)
            if not low <= value <= _INT64_MAX:  # a size must fit numpy's int64
                raise ValueError(f"{key} must be >= {low} and < 2**63, got {value}")
        hierarchy = get_hierarchy(self.hierarchy, n_points=self.n_points)
        if self.costs is not None and len(self.costs) != hierarchy.n_models:
            raise ValueError(
                f"costs has {len(self.costs)} entries but hierarchy "
                f"{self.hierarchy!r} has {hierarchy.n_models} models"
            )
        for name in self.statistics:
            _component_weights(self, hierarchy, STATISTICS[name])
        if (self.budgets is None) == (self.tolerance is None):
            raise ValueError("exactly one of budgets/tolerance must be set")
        if self.budgets is not None:
            unit = float(self.build_hierarchy().costs[0])
            if not all(math.isfinite(b * unit) for b in self.budgets):
                raise ValueError(
                    f"budgets {list(self.budgets)} times costs[0]={unit:g} overflow a float; "
                    "lower budgets or costs"
                )
        if self.mode == "nonlinear" and any(
            STATISTICS[s].needs_sobol_block for s in self.statistics
        ):
            raise ValueError("nonlinear mode does not support Sobol statistics")
        return self

    def to_dict(self):
        values = ((key, getattr(self, key)) for key in _KEYS)
        return {key: list(v) if isinstance(v, tuple) else v for key, v in values}

    @classmethod
    def from_dict(cls, d) -> "StudyConfig":
        unknown = set(d) - set(_KEYS)
        if unknown:
            raise UnknownNameError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def build_hierarchy(self):
        return get_hierarchy(self.hierarchy, costs=self.costs, n_points=self.n_points)


_KEYS = {f.name: f.metadata["row"] for f in dataclasses.fields(StudyConfig)}


def _object(value, where: str) -> dict:
    """``value`` if it is a JSON object, else an ``MFMCError`` naming ``where``."""
    if not isinstance(value, dict):
        raise MFMCError(f"{where} must hold a JSON object, got {type(value).__name__}")
    return value


def reference_values(config: StudyConfig, stat_label: str, hierarchy) -> np.ndarray | None:
    """Reference statistic values: a user oracle file, else analytic built-ins.

    Sobol references are returned on the raw (variance-scaled) scale the
    estimators work on. A file is refused when its ``_meta`` (which
    ``make_reference`` writes) names another hierarchy, or when its entry
    does not have one number per component of the statistic.
    """
    if config.reference_file:
        name = f"reference_file {config.reference_file!r}"
        table = _object(json.loads(Path(config.reference_file).read_text()), name)
        if stat_label in table:
            where = f"{name}, entry {stat_label!r}"
            meta = _object(table.get("_meta", {}), f"{name}, entry '_meta'")
            made_for = meta.get("hierarchy", config.hierarchy)
            if made_for != config.hierarchy:
                raise MFMCError(f"{where} was made for hierarchy {made_for!r}, "
                                f"not {config.hierarchy!r}")
            try:
                values = np.asarray(table[stat_label], dtype=float)
            except (TypeError, ValueError):
                raise MFMCError(f"{where} must be a list of numbers") from None
            p = _n_components(hierarchy, STATISTICS[stat_label])
            if values.shape != (p,):
                raise MFMCError(f"{where} has {values.size} values, but {stat_label} has "
                                f"{p} components")
            return values
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


def _n_components(hierarchy, stat) -> int:
    """Components of ``stat``: one per input for Sobol indices, else per output."""
    return hierarchy.input_dimension if stat.needs_sobol_block else hierarchy.output_length


def _component_weights(config: StudyConfig, hierarchy, stat) -> np.ndarray:
    """``output_weights``, one per component of ``stat``; all ones when unset."""
    p = _n_components(hierarchy, stat)
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


def _draw(hierarchy, sobol: bool, n: int, seed):
    """n input rows: a Sobol block when ``sobol`` is set, else plain draws."""
    return (build_sobol_block if sobol else draw_inputs)(hierarchy, n, seed)


def _pilot_key(config: StudyConfig) -> dict:
    """Everything the pilot of a study on ``config`` (``_Replicate.pilot``)
    depends on, the ``_KEYS`` marked ``pilot``, as the run reads them: the
    resolved model costs, ``n_points`` only for the one hierarchy that reads
    it, ``regression_train_size`` only in nonlinear mode, and the set of
    statistics that share the pilot's draw and cost. ``run_allocate`` checks
    ``pilot.json`` by it.
    """
    key = {name: getattr(config, name) for name, row in _KEYS.items() if row.pilot}
    if config.hierarchy != "synthetic-field":
        key["n_points"] = None
    if config.mode != "nonlinear":
        key["regression_train_size"] = None
    key["costs"] = tuple(float(c) for c in config.build_hierarchy().costs)
    key["statistics"] = sorted(config.statistics)
    return key


def _members(statistics, sobol: bool) -> tuple:
    """The group of ``statistics`` that reads one draw kind, a Sobol block
    when ``sobol`` is set, else plain rows, in ``STAT_ORDER``."""
    same = (s for s in statistics if STATISTICS[s].needs_sobol_block == sobol)
    return tuple(sorted(same, key=STAT_ORDER.get))


def _stack(stats, pilots, weights):
    """(pilot statistics, weights) with every member's components side by side.

    Member j's weights are scaled by S_first / S_j, with S the sum over its
    valid components of w * sigma_1^2, so every member counts equally in
    the aggregate, and a group of one keeps its weights bit for bit. A
    member without a valid component raises ``DegenerateStatsError``.
    """
    spread = []
    for stat, pilot, w in zip(stats, pilots, weights):
        valid = ~pilot.degenerate
        if not valid.any():
            raise DegenerateStatsError(
                f"all output components of {stat.label} have zero variance in the pilot"
            )
        spread.append(float(np.sum(w[valid] * pilot.sigma[0, valid] ** 2)))
    stacked = PilotStats(
        np.hstack([p.sigma for p in pilots]),
        np.hstack([p.rho for p in pilots]),
        pilots[0].n_samples,
        np.concatenate([p.degenerate for p in pilots]),
    )
    return stacked, np.concatenate([w * (spread[0] / s) for w, s in zip(weights, spread)])


def _views(plan, pilots, weights) -> list:
    """Each member's view of a group plan: the group's counts, its own
    columns of ``alpha``, its predicted MSE under its own pilot statistics
    and weights, and an equal share of the plan's budget and cost (so the
    counts cost the members' budgets together)."""
    views, start, n = [], 0, len(pilots)
    for pilot, w in zip(pilots, weights):
        stop = start + pilot.n_components
        view = dataclasses.replace(
            plan, alpha=plan.alpha[:, start:stop], budget=plan.budget / n,
            budget_used=plan.budget_used / n,
        )
        view.predicted_mse = predicted_mse(view, pilot, w)
        views.append(view)
        start = stop
    return views


def _plan_stage(config: StudyConfig, hierarchy, stats, pilots, budget):
    """Each member's view of the one plan of a group (``_views``).

    The one plan stage of ``run_replicate`` and ``run_allocate``. ``stats``
    are the statistics that read one draw kind (``_members``) and
    ``pilots`` their pilot statistics. Their components, side by side
    (``_stack``), get one ``optimal_allocation``, and each member reads its
    view of it (``_views``). ``budget`` is in high-fidelity-equivalent
    units and pays for the group's one estimation walk, or is None in
    tolerance mode. There the budget starts at the largest member's
    ``budget_for_tolerance`` and, in a group of several, is scaled once by
    the largest member's predicted MSE over epsilon^2 when that exceeds 1;
    a group of one keeps the plan of its own tolerance budget. With
    ``include_pilot_cost`` the members' pilot shares (``stats.cost``) are
    taken out of a given budget; a tolerance budget is left whole, since
    the pilot is already paid for.
    """
    costs = CostModel(hierarchy.costs * _cost_factor(hierarchy, stats[0]))
    weights = [_component_weights(config, hierarchy, stat) for stat in stats]
    min_samples = max(stat.min_samples for stat in stats)
    stacked, stacked_weights = _stack(stats, pilots, weights)
    if config.tolerance is not None:
        budget_abs = max(
            max(budget_for_tolerance(pilot, costs, config.tolerance, w),
                costs.w[0] * stat.min_samples)
            for stat, pilot, w in zip(stats, pilots, weights)
        )
    else:
        budget_abs = float(budget) * hierarchy.costs[0]
        if config.include_pilot_cost:
            share = sum(pilot.cost for pilot in pilots)
            budget_abs = budget_abs - share
            if budget_abs < costs.w[0] * min_samples:
                raise InfeasibleBudgetError(
                    f"budgets entry p={float(budget):g} cannot pay for the pilot share of "
                    f"{' and '.join(stat.label for stat in stats)} ({share / hierarchy.costs[0]:g} "
                    f"HF; pilot_size={config.pilot_size}, include_pilot_cost=true) and "
                    f"{min_samples} high-fidelity sample(s); raise budgets or lower pilot_size"
                )
    plan = optimal_allocation(stacked, costs, budget_abs, stacked_weights, min_samples)
    views = _views(plan, pilots, weights)
    if config.tolerance is not None and len(stats) > 1:
        excess = max(view.predicted_mse for view in views) / config.tolerance**2
        if excess > 1.0:
            budget_abs = budget_abs * excess
            plan = optimal_allocation(stacked, costs, budget_abs, stacked_weights, min_samples)
            views = _views(plan, pilots, weights)
    return views


class _Replicate:
    """Replicate ``rep`` of a study on ``config``. Its one pilot, which no
    budget changes, and each group of a draw kind at a budget are made the
    first time they are read, so the pilot is evaluated in the call of the
    first statistic to run and a group's walk in the call of its first
    member at that budget (``run_replicate``). What is made is only read.
    """

    def __init__(self, config: StudyConfig, rep: int):
        self.config = dataclasses.replace(config)  # later edits of the caller's are not read
        self.rep = rep
        self.hierarchy = config.build_hierarchy()
        self.sobol = any(STATISTICS[s].needs_sobol_block for s in config.statistics)
        self.groups = {}

    @functools.cached_property
    def pilot(self):
        """(evaluations, bridges) of the one pilot: a draw from the stream
        (seed, _PILOT, rep), a Sobol block when any configured statistic
        needs one, else plain rows, on which every model runs once. In
        nonlinear mode (else bridges is None) one GP bridge per low-fidelity
        model is fitted on ``regression_train_size`` (low, high) output pairs
        from the stream (seed, _TRAIN, rep), and the low-fidelity pilot
        outputs go through it. The cost counts every run, training included.
        """
        config, h, k = self.config, self.hierarchy, self.hierarchy.n_models
        samples = _draw(h, self.sobol, config.pilot_size, (config.seed, _PILOT, self.rep))
        evals = evaluate_nested(h, samples, [config.pilot_size] * k)
        if config.mode == "linear":
            return evals, None
        n = config.regression_train_size
        train = evaluate_nested(h, draw_inputs(h, n, (config.seed, _TRAIN, self.rep)), [n] * k)
        hf = train.outputs[0][:, 0]
        bridges = tuple(GaussianProcessBridge().fit(train.outputs[i][:, 0], hf) for i in range(1, k))
        bridged = apply_bridges(evals, bridges).outputs
        return NestedEvaluations(bridged, evals.m, evals.cost + train.cost), bridges

    def pilot_stage(self, stat):
        """(stats, bridges) of ``stat`` from the one pilot, whose base column
        plain statistics read on a Sobol block. ``stats.cost`` is an equal
        share of the pilot's cost among the configured statistics: the only
        pilot charge the plan stage and the records read."""
        evals, bridges = self.pilot
        if self.sobol and not stat.needs_sobol_block:
            evals = NestedEvaluations([o[:, :1] for o in evals.outputs], evals.m, evals.cost)
        stats = estimate_q_stats(evals, stat)
        stats.cost = evals.cost / len(self.config.statistics)
        return stats, bridges

    def group(self, sobol: bool, budget):
        """({member: (pilot statistics, plan)}, folded states) of the group
        that reads the draw kind ``sobol`` (``_members``) at ``budget``: one
        plan (``_plan_stage``), and one estimation draw, from the stream of
        the first member, walked once by ``sum_for_plan``, which folds every
        member's statistic from each block and bridges each block once."""
        if (sobol, budget) not in self.groups:
            members = _members(self.config.statistics, sobol)
            stats = [STATISTICS[s] for s in members]
            pilots, bridges = zip(*(self.pilot_stage(stat) for stat in stats))
            plans = _plan_stage(self.config, self.hierarchy, stats, pilots, budget)
            est_seed = (self.config.seed, _ESTIMATE + STAT_ORDER[members[0]], self.rep)
            samples = _draw(self.hierarchy, sobol, int(plans[0].m.max()), est_seed)
            sums = sum_for_plan(self.hierarchy, plans[0], samples, stats, bridges[0])
            self.groups[sobol, budget] = dict(zip(members, zip(pilots, plans))), sums
        return self.groups[sobol, budget]


# The last run_replicate call's _Replicate, keyed by every config field (each
# one immutable after __post_init__, so the key need not copy them) and the
# replicate: one entry, shared by the statistics and budgets of a replicate.
_MEMO: dict = {}


def run_replicate(config: StudyConfig, stat_label: str, budget, rep: int) -> dict:
    """One pilot -> allocation -> estimation pass for one configured statistic.

    ``budget`` is in high-fidelity-equivalent units, or None in tolerance
    mode. The calls of a replicate share one ``_Replicate`` (``_MEMO``): one
    pilot, and per draw kind and budget one plan and one walk, which the
    first of them to run computes and the others read. The record carries this
    statistic's view of the plan (``_views``: the group's counts, its own
    coefficients and predicted MSE, and an equal share of the budget), its
    estimate from its own fold on the shared draw, and an equal share of the
    walk's cost.
    """
    if stat_label not in config.statistics:
        raise UnknownNameError(f"statistic {stat_label!r} is not among the config's "
                               f"statistics {list(config.statistics)}")
    key = (tuple(getattr(config, name) for name in _KEYS), rep)
    if key not in _MEMO:
        _MEMO.clear()
        _MEMO[key] = _Replicate(config, rep)
    replicate = _MEMO[key]
    stat = STATISTICS[stat_label]
    group, sums = replicate.group(stat.needs_sobol_block, budget)
    stats, plan = group[stat_label]
    report = mfmc_statistic(sums, plan, stat)
    return {
        "replicate": rep,
        "statistic": stat_label,
        "mode": config.mode,
        "budget_p": plan.budget / replicate.hierarchy.costs[0],
        "budget_abs": plan.budget,
        "values": np.atleast_1d(report.value),
        "predicted_mse": float(plan.predicted_mse),
        "realized_cost": float(sums.cost / len(group)),
        "pilot_cost": stats.cost,
        "m": plan.m.copy(),
        "m_real": plan.m_real.copy(),
        "retained": plan.retained.copy(),
        "alpha": plan.alpha.copy(),
        "rho": stats.rho.copy(),
        "weights": _component_weights(config, replicate.hierarchy, stat),
    }


def _replicate_task(config: StudyConfig, rep: int) -> list:
    """Every configured statistic of one replicate at each budget (None in
    tolerance mode), in order, so they share its pilot and its groups."""
    return [[run_replicate(config, stat_label, budget, rep) for stat_label in config.statistics]
            for budget in config.budgets or (None,)]


def _run_replicates(config: StudyConfig) -> list:
    """Records of every replicate: per budget, one list per statistic.

    One task runs one replicate at every budget; each list is in replicate
    order. A study runs on J = min(jobs, replicates) processes, this one
    included: this process runs every J-th replicate (r % J == 0) while
    J - 1 pool workers run the rest, in about four chunks each, so that a
    replicate costs no round trip of its own. An error in this process's
    share cancels the chunks not yet started before it is raised.
    """
    task = functools.partial(_replicate_task, config)
    jobs = min(config.jobs, config.replicates)
    if jobs > 1:
        per_replicate = [None] * config.replicates
        theirs = [r for r in range(config.replicates) if r % jobs]
        chunksize = max(1, len(theirs) // (4 * (jobs - 1)))
        with ProcessPoolExecutor(max_workers=jobs - 1) as pool:
            results = pool.map(task, theirs, chunksize=chunksize)
            try:
                for r in range(0, config.replicates, jobs):
                    per_replicate[r] = task(r)
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
            for r, records in zip(theirs, results):
                per_replicate[r] = records
    else:
        per_replicate = [task(r) for r in range(config.replicates)]
    return [list(zip(*per_budget)) for per_budget in zip(*per_replicate)]


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


def _summarize(config: StudyConfig, records, reference, weights):
    """One statistic's records reduced once: (the per-model means of
    ``allocation_<stat>.csv``, its ``summary.json`` entry).

    A model's coefficients are averaged over the replicates that kept it
    (NaN where none did), its correlations over the non-NaN ones. The
    empirical errors are null without a reference.
    """
    m = np.array([rec["m"] for rec in records], dtype=float).mean(axis=0)
    kept = np.array([rec["retained"] for rec in records])
    retained = kept.mean(axis=0)
    alpha = np.array([rec["alpha"] for rec in records])
    alpha_mean = np.full(alpha.shape[1:], np.nan)
    for i in range(len(m)):
        if kept[:, i].any():
            alpha_mean[i] = alpha[kept[:, i], i].mean(axis=0)
    with np.errstate(invalid="ignore"):
        rho_mean = np.nanmean([rec["rho"] for rec in records], axis=0)
    values = np.array([rec["values"] for rec in records])
    realized = float(sum(rec["realized_cost"] for rec in records))
    pilot = float(sum(rec["pilot_cost"] for rec in records))
    entry = {
        "mode": config.mode,
        "replicates": len(records),
        "budget_p_mean": float(np.mean([rec["budget_p"] for rec in records])),
        "value_mean": [float(v) for v in values.mean(axis=0)],
        "reference": None,
        "empirical_mse": None,
        "empirical_mse_per_component": None,
        "relative_mse": None,
        "predicted_mse_mean": float(np.mean([rec["predicted_mse"] for rec in records])),
        "realized_cost_total": realized,
        "pilot_cost_total": pilot,
        "total_cost": realized + pilot,
        "m_mean": [float(v) for v in m],
        "retained_fraction": [float(v) for v in retained],
    }
    if reference is not None:
        per_component = ((values - reference) ** 2).mean(axis=0)
        total = float(np.sum(per_component * weights))
        scale = float(np.sum(reference**2 * weights))
        entry.update(
            reference=[float(v) for v in reference], empirical_mse=total,
            empirical_mse_per_component=[float(v) for v in per_component],
            relative_mse=total / scale if scale > 0 else None,
        )
    means = {"m": m, "retained": retained, "alpha": alpha_mean, "rho": rho_mean}
    return means, entry


def _write_allocation_csv(path, labels, means):
    p = means["rho"].shape[1]
    alpha_cols = ["alpha"] if p == 1 else [f"alpha_{j}" for j in range(p)]
    rho_cols = ["rho"] if p == 1 else [f"rho_{j}" for j in range(p)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "m", "retained_fraction", *alpha_cols, *rho_cols])
        for i, label in enumerate(labels):
            alpha = means["alpha"][i]
            alpha_vals = [_fmt(v) for v in alpha] if np.any(np.isfinite(alpha)) else [""] * p
            rho_vals = [_fmt(v) if np.isfinite(v) else "" for v in means["rho"][i]]
            writer.writerow(
                [label, _fmt(means["m"][i]), _fmt(means["retained"][i]), *alpha_vals, *rho_vals]
            )


def _write_study(config: StudyConfig, out: Path, runs, references) -> dict:
    """Write into ``out`` the reports ``run_study`` lists for ``config``'s one
    budget from each statistic's records (``runs``) and reference values."""
    out.mkdir(parents=True, exist_ok=True)
    hierarchy = config.build_hierarchy()
    settings = {k: v for k, v in config.to_dict().items() if _KEYS[k].echo}
    summary = {"config": settings, "statistics": {}}
    labels = [model.label for model in hierarchy.models]
    for stat_label, records, reference in zip(config.statistics, runs, references):
        weights = _component_weights(config, hierarchy, STATISTICS[stat_label])
        _write_replicates_csv(out / f"replicates_{stat_label}.csv", records)
        means, summary["statistics"][stat_label] = _summarize(config, records, reference, weights)
        _write_allocation_csv(out / f"allocation_{stat_label}.csv", labels, means)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    return summary


def run_study(config: StudyConfig, out_dir=None) -> dict:
    """Run all configured statistics at one budget (or tolerance); write reports.

    Each replicate runs every statistic in turn (replicates are spread over
    ``jobs`` processes, this one included: ``_run_replicates``), so the
    statistics of a replicate share one pilot evaluation and, in nonlinear
    mode, one bridge fit, and those that read the same draw kind share one
    plan and one estimation walk (``run_replicate``): a budget pays for the
    estimation of each draw kind, and its members split the walk's cost as
    they split the pilot's.
    Produces, in the output directory:
    ``allocation_<stat>.csv`` with the averaged sample counts,
    coefficients, and correlations per model;
    ``replicates_<stat>.csv`` with one row per replicate and component; and
    ``summary.json`` with empirical errors against the reference values.
    """
    config.validate()
    if config.budgets is not None and len(config.budgets) != 1:
        raise ValueError("run_study handles a single budget; use replicate_sweep for lists")
    hierarchy = config.build_hierarchy()
    references = [reference_values(config, s, hierarchy) for s in config.statistics]
    out = Path(out_dir if out_dir is not None else config.out_dir)
    return _write_study(config, out, _run_replicates(config)[0], references)


def replicate_sweep(config: StudyConfig, out_dir=None) -> list:
    """Empirical-vs-predicted error across a list of budgets.

    Each replicate runs once at every budget, on one pilot, and each
    budget's reports are those of a study at that budget alone, its pilot
    share included; the cross-budget table lands in ``sweep.csv``.
    References must exist for every statistic (analytic built-ins or a
    reference file), since the empirical error needs them.
    """
    config.validate()
    if config.budgets is None:
        raise ValueError("replicate_sweep needs an explicit budgets list")
    hierarchy = config.build_hierarchy()
    references = [reference_values(config, s, hierarchy) for s in config.statistics]
    for stat_label, reference in zip(config.statistics, references):
        if reference is None:
            raise MFMCError(
                f"no reference values for {stat_label!r} on {config.hierarchy!r}; "
                "run make-reference first and pass reference_file"
            )
    out = Path(out_dir if out_dir is not None else config.out_dir)
    rows = []
    for budget, runs in zip(config.budgets, _run_replicates(config)):
        sub_dir = out if len(config.budgets) == 1 else out / f"p{budget:g}"
        sub_config = dataclasses.replace(config, budgets=(budget,))
        summary = _write_study(sub_config, sub_dir, runs, references)
        rows.extend(
            {"budget": budget, "statistic": stat_label, "mode": entry["mode"],
             "empirical_mse": entry["empirical_mse"], "relative_mse": entry["relative_mse"],
             "predicted_mse": entry["predicted_mse_mean"], "replicates": entry["replicates"]}
            for stat_label, entry in summary["statistics"].items()
        )
    with open(out / "sweep.csv", "w", newline="") as fh:
        fh.write("# empirical_mse: weighted squared error vs reference, averaged over replicates\n")
        fh.write("# relative_mse: empirical_mse divided by the weighted squared reference\n")
        writer = csv.writer(fh)
        writer.writerow(rows[0].keys())
        for row in rows:
            relative = "" if row["relative_mse"] is None else _fmt(row["relative_mse"])
            writer.writerow([_fmt(row["budget"]), row["statistic"], row["mode"],
                             _fmt(row["empirical_mse"]), relative, _fmt(row["predicted_mse"]),
                             row["replicates"]])
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
        stats = [STATISTICS[s] for s in _members(config.statistics, sobol)]
        if not stats:
            continue
        samples = _draw(hierarchy, sobol, n, (config.seed, _REFERENCE))
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
    """Estimate each configured statistic's pilot statistics; save them and
    the pilot's key (``_pilot_key``) to ``pilot.json``.

    These are the pilot statistics of replicate 0 of a study on the same
    config, read from its one pilot evaluation (``_Replicate.pilot_stage``).
    """
    config.validate()
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    replicate = _Replicate(config, 0)
    results = {s: replicate.pilot_stage(STATISTICS[s])[0] for s in config.statistics}
    per_stat = {s: stats.to_dict() for s, stats in results.items()}
    saved = {"key": _pilot_key(config), "statistics": per_stat}
    (out / "pilot.json").write_text(json.dumps(saved, indent=2))
    return results


def run_allocate(config: StudyConfig, out_dir=None) -> dict:
    """Allocate from previously saved pilot statistics, without new model runs.

    Each statistic's plan is its view of its group's plan (``_plan_stage``),
    the one replicate 0 of a study on the same config uses, tolerance mode
    and ``include_pilot_cost`` included, since ``pilot.json``
    carries each statistic's pilot share (``PilotStats.cost``) and is
    refused when its key differs from the config's. Keys outside the pilot
    key, such as budgets, tolerance or include_pilot_cost, may change.
    """
    config.validate()
    if config.budgets is not None and len(config.budgets) != 1:
        raise ValueError("allocate needs exactly one budget")
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pilot_path = out / "pilot.json"
    if not pilot_path.exists():
        raise MFMCError(f"missing pilot file {pilot_path}; run the pilot subcommand first")
    where = f"pilot file {pilot_path}"
    saved = _object(json.loads(pilot_path.read_text()), where)
    key = _object(saved.get("key", {}), f"{where}, entry 'key'")
    stale = [
        f"{name}={key.get(name)!r} in the file, {value!r} in the config"
        for name, value in json.loads(json.dumps(_pilot_key(config))).items()
        if key.get(name) != value
    ]
    if stale:
        raise MFMCError(f"{where} does not match the config: "
                        f"{'; '.join(stale)}; rerun the pilot subcommand")
    hierarchy = config.build_hierarchy()
    budget = None if config.budgets is None else config.budgets[0]
    plans = {}
    for sobol in (False, True):
        members = _members(config.statistics, sobol)
        if not members:
            continue
        try:
            pilots = [PilotStats.from_dict(saved["statistics"][s]) for s in members]
        except (KeyError, TypeError) as exc:
            raise MFMCError(f"{where} holds no valid statistics of {' and '.join(members)} "
                            f"({type(exc).__name__}: {exc}); rerun the pilot subcommand") from None
        views = _plan_stage(config, hierarchy, [STATISTICS[s] for s in members], pilots, budget)
        plans.update(zip(members, views))
    for stat_label, plan in plans.items():
        plan.save(out / f"allocation_{stat_label}.json")
    return {s: plans[s] for s in config.statistics}
