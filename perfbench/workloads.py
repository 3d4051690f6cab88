"""The benchmark's workloads, their closed-form references, and replicate capture.

Every workload is a closed loop from one process: the benchmark starts one
*unit* of work (a ``run_study`` call, or one pass of the library quick-start
path) and starts the next only when it has finished. Unit ``i`` of a run
derives all of its inputs from ``(seed, i)``, so a run replays exactly for a
given seed whatever its length.

A *replicate record* is a plain dict with the same keys on every workload:
``statistic``, ``replicate``, ``values``, ``predicted_mse``,
``realized_cost``, ``pilot_cost``, ``budget`` (absolute estimation budget),
``w0`` (high-fidelity cost), ``m``, ``retained``, ``weights``, ``wall_ms``,
``pid`` and ``rss_kb`` (peak resident set of the process that ran it).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mfmc
import mfmc.study

# Fields of a replicate record that do not depend on timing or on the process
# that ran it; the digest of a many-models pass covers exactly these.
DETERMINISTIC_KEYS = (
    "statistic", "replicate", "values", "predicted_mse", "realized_cost",
    "pilot_cost", "budget", "w0", "m", "retained", "weights",
)


@dataclass
class Unit:
    """What one unit of work produced: replicate records and an output digest."""

    records: list
    digest: str
    wall_s: float
    bytes_written: int


def unit_seed(seed: int, index: int) -> int:
    """StudyConfig seed of unit ``index`` of a run started with ``seed``."""
    if not 0 <= index < 1000:
        raise ValueError(f"unit index {index} out of range")
    return int(seed) * 1000 + index


def _process_stamp() -> dict:
    return {
        "pid": os.getpid(),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def digest_files(directory: Path) -> str:
    """sha256 over the names and bytes of every file under ``directory``.

    ``summary.json`` echoes the study config, whose ``jobs`` entry is the one
    value that may differ between runs with different worker counts; it is
    left out so that the digest can check the rest is byte-identical.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "summary.json":
            summary = json.loads(data)
            summary.get("config", {}).pop("jobs", None)
            data = json.dumps(summary, indent=2, sort_keys=True).encode()
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(data)
    return h.hexdigest()


class ReplicateLog:
    """Times every ``mfmc.study.run_replicate`` call and keeps its record.

    The timing wrapper appends one JSON line per call to a file opened with
    ``O_APPEND``, each line in a single ``os.write``. Pool workers that
    ``run_study`` forks inherit both the wrapper and the descriptor, so their
    replicates are captured as well as those run in this process.
    """

    def __init__(self, path: Path):
        self.path = Path(path)

    @contextmanager
    def capture(self):
        records: list = []
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND, 0o644)
        original = mfmc.study.run_replicate

        def timed(config, stat_label, budget, rep):
            start = time.perf_counter()
            rec = original(config, stat_label, budget, rep)
            wall_ms = (time.perf_counter() - start) * 1e3
            line = {
                "statistic": rec["statistic"],
                "replicate": int(rec["replicate"]),
                "values": [float(v) for v in rec["values"]],
                "predicted_mse": float(rec["predicted_mse"]),
                "realized_cost": float(rec["realized_cost"]),
                "pilot_cost": float(rec["pilot_cost"]),
                "budget": float(rec["budget_abs"]),
                "w0": float(rec["budget_abs"] / rec["budget_p"]),
                "m": [int(v) for v in rec["m"]],
                "retained": [bool(v) for v in rec["retained"]],
                "weights": [float(v) for v in rec["weights"]],
                "wall_ms": wall_ms,
                **_process_stamp(),
            }
            os.write(fd, (json.dumps(line) + "\n").encode())
            return rec

        mfmc.study.run_replicate = timed
        try:
            yield records
        finally:
            mfmc.study.run_replicate = original
            os.close(fd)
            text = self.path.read_text()
            self.path.unlink()
            records.extend(json.loads(line) for line in text.splitlines())


# ---------------------------------------------------------------------------
# Closed-form references, written out here rather than taken from the package
# under test.
# ---------------------------------------------------------------------------

_ISHIGAMI_A, _ISHIGAMI_B = 5.0, 0.1


def ishigami_references() -> dict:
    a, b = _ISHIGAMI_A, _ISHIGAMI_B
    variance = 0.5 + a**2 / 8 + b * math.pi**4 / 5 + b**2 * math.pi**8 / 18
    v1 = 0.5 * (1 + b * math.pi**4 / 5) ** 2
    v2 = a**2 / 8
    v13 = b**2 * math.pi**8 * (1 / 18 - 1 / 50)
    return {
        "expectation": np.array([a / 2]),
        "variance": np.array([variance]),
        # the estimators work on the variance-scaled (unnormalised) indices
        "sobol-main": np.array([v1, v2, 0.0]),
        "sobol-total": np.array([v1 + v13, v2, v13]),
    }


def quintic_references() -> dict:
    return {
        "expectation": np.array([0.5]),
        "variance": np.array([0.5 + 0.125 + 0.01 * math.pi**10 / 11]),
    }


def field_references(n_points: int) -> dict:
    x = np.arange(1, n_points + 1) / n_points
    return {"expectation": np.zeros(n_points), "variance": 1.0 + 0.01 * x**2}


# ---------------------------------------------------------------------------
# run_study workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyWorkload:
    """Repeated ``mfmc.run_study`` calls on one configuration."""

    name: str
    config: dict
    min_units: int = 1
    # Whether the timing metrics are scaled by the machine-speed calibration
    # in bench.py, which tracks interpreter-bound work.
    speed_scaled: bool = True

    @property
    def replicates_per_unit(self) -> int:
        return self.config["replicates"] * len(self.config["statistics"])

    @property
    def jobs(self) -> int:
        return self.config.get("jobs", 1)

    def setup(self):
        config = mfmc.StudyConfig(**self.config).validate()
        return config.build_hierarchy()

    def references(self) -> dict:
        label = self.config["hierarchy"]
        if label == "ishigami":
            return ishigami_references()
        if label == "quintic":
            return quintic_references()
        return field_references(self.config["n_points"])

    def run_unit(self, hierarchy, seed, index, out_dir: Path, log: ReplicateLog, jobs=None) -> Unit:
        settings = dict(self.config, seed=unit_seed(seed, index))
        if jobs is not None:
            settings["jobs"] = jobs
        config = mfmc.StudyConfig(**settings)
        out_dir.mkdir(parents=True, exist_ok=True)
        with log.capture() as records:
            start = time.perf_counter()
            mfmc.run_study(config, out_dir=out_dir)
            wall_s = time.perf_counter() - start
        if len(records) != self.replicates_per_unit:
            raise RuntimeError(
                f"captured {len(records)} of {self.replicates_per_unit} replicate records; "
                "pool workers must be forked for the replicate log to reach them"
            )
        order = {s: i for i, s in enumerate(self.config["statistics"])}
        records.sort(key=lambda r: (order[r["statistic"]], r["replicate"]))
        digest = digest_files(out_dir)
        size = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        shutil.rmtree(out_dir)
        return Unit(records, digest, wall_s, size)


# ---------------------------------------------------------------------------
# many-models: the library quick-start path on a 12-model hierarchy
# ---------------------------------------------------------------------------


class _PerturbedIshigami:
    """Ishigami f1 plus ``scale * cos(order * z3)``.

    Any function of z3 alone is uncorrelated with f1 (the z3 term of f1 is
    multiplied by sin z1, which has mean zero), and cos(k z3) has mean 0 and
    variance 1/2 on [-pi, pi]. So every member has mean 2.5 and squared
    correlation V1 / (V1 + scale^2 / 2) with f1, exactly.
    """

    def __init__(self, order: int, scale: float):
        self.order = order
        self.scale = scale

    def __call__(self, z):
        f1 = np.sin(z[:, 0]) + 5.0 * np.sin(z[:, 1]) ** 2 + 0.1 * z[:, 2] ** 4 * np.sin(z[:, 0])
        return f1 + self.scale * np.cos(self.order * z[:, 2])


def many_models_hierarchy(n_models: int) -> mfmc.ModelHierarchy:
    """f1 and n_models - 1 companions: rho^2 linear from 0.99 down to 0.3,
    costs geometric from 1 down to 1e-4."""
    variance = ishigami_references()["variance"][0]
    rho_sq = np.linspace(0.99, 0.3, n_models - 1)
    costs = 10.0 ** (-4.0 * np.arange(n_models) / (n_models - 1))
    models = [mfmc.Model(_PerturbedIshigami(1, 0.0), 1.0, "f1", vectorized=True, input_dimension=3)]
    for i in range(1, n_models):
        scale = math.sqrt(2.0 * variance * (1.0 / rho_sq[i - 1] - 1.0))
        models.append(
            mfmc.Model(_PerturbedIshigami(i, scale), float(costs[i]), f"g{i}",
                       vectorized=True, input_dimension=3)
        )
    dists = (mfmc.Uniform(-math.pi, math.pi),) * 3
    return mfmc.ModelHierarchy(tuple(models), dists, output_length=1, label="many-models")


_PILOT_STREAM, _ESTIMATE_STREAM = 1, 2


@dataclass(frozen=True)
class QuickStartWorkload:
    """One unit is one tolerance-mode pass of the library quick-start path:
    draw_inputs -> evaluate_nested -> estimate_moment_stats ->
    budget_for_tolerance -> optimal_allocation -> evaluate_for_plan ->
    mfmc_expectation."""

    name: str
    n_models: int = 12
    # Allocation time follows the number of admissible chains, which pilot
    # noise in rho^2 decides. Over 30 pilots it was 1003 +- 27 % of the 2048
    # chains at 100 samples and 1990 +- 7 % at 3000, so a 100-sample pilot
    # made pass times, and the run's throughput, vary by seed more than
    # the bounds allow.
    pilot_size: int = 3000
    tolerance: float = 0.05
    min_units: int = 3
    replicates_per_unit: int = field(default=1, init=False)
    jobs: int = field(default=1, init=False)
    speed_scaled: bool = field(default=True, init=False)

    def setup(self):
        return many_models_hierarchy(self.n_models)

    def references(self) -> dict:
        return {"expectation": ishigami_references()["expectation"]}

    def run_unit(self, hierarchy, seed, index, out_dir, log, jobs=None) -> Unit:
        n, k = self.pilot_size, hierarchy.n_models
        start = time.perf_counter()
        pilot = mfmc.evaluate_nested(
            hierarchy, mfmc.draw_inputs(hierarchy, n, (seed, index, _PILOT_STREAM)), [n] * k
        )
        stats = mfmc.estimate_moment_stats(pilot)
        costs = mfmc.CostModel(hierarchy.costs)
        budget = mfmc.budget_for_tolerance(stats, costs, self.tolerance)
        plan = mfmc.optimal_allocation(stats, costs, budget)
        samples = mfmc.draw_inputs(hierarchy, int(plan.m.max()), (seed, index, _ESTIMATE_STREAM))
        evals = mfmc.evaluate_for_plan(hierarchy, plan, samples)
        report = mfmc.mfmc_expectation(evals, plan)
        wall_s = time.perf_counter() - start
        record = {
            "statistic": "expectation",
            "replicate": index,
            "values": [float(v) for v in np.atleast_1d(report.value)],
            "predicted_mse": float(plan.predicted_mse),
            "realized_cost": float(evals.cost),
            "pilot_cost": float(pilot.cost),
            "budget": float(plan.budget),
            "w0": float(costs.w[0]),
            "m": [int(v) for v in plan.m],
            "retained": [bool(v) for v in plan.retained],
            "weights": [1.0],
            "wall_ms": wall_s * 1e3,
            **_process_stamp(),
        }
        canonical = json.dumps({key: record[key] for key in DETERMINISTIC_KEYS}, sort_keys=True)
        return Unit([record], hashlib.sha256(canonical.encode()).hexdigest(), wall_s, 0)


WORKLOADS = {
    w.name: w
    for w in (
        StudyWorkload(
            "ishigami-sobol",
            {
                "hierarchy": "ishigami",
                "mode": "linear",
                "statistics": ("expectation", "variance", "sobol-main", "sobol-total"),
                "budgets": (160.0,),
                "replicates": 200,
                "jobs": 2,
            },
        ),
        StudyWorkload(
            "quintic-bridge",
            {
                "hierarchy": "quintic",
                "mode": "nonlinear",
                "statistics": ("expectation", "variance"),
                "budgets": (40.0,),
                "pilot_size": 100,
                "regression_train_size": 100,
                "replicates": 25,
                "jobs": 1,
            },
            min_units=2,
        ),
        StudyWorkload(
            "field-large",
            {
                "hierarchy": "synthetic-field",
                "n_points": 200,
                "mode": "linear",
                "statistics": ("expectation", "variance"),
                "budgets": (2000.0,),
                "replicates": 6,
                "jobs": 1,
            },
            min_units=3,
            # Bound by memory bandwidth on ~300 MB arrays, which the calibration
            # does not see: scaling doubled the spread of replicates_per_s
            # across seeds (6.6 % to 13.4 %).
            speed_scaled=False,
        ),
        QuickStartWorkload("many-models"),
    )
}
