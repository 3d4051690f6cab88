"""Benchmark runner: runs one workload, checks it, prints and records metrics.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs each unit untraced and again traced, and reports the per-layer metrics
of the traced runs plus the tracing overhead.
Either way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record of
the run goes to ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import mfmc
from perfbench import gate
from perfbench.run import THREAD_ENV
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS, ReplicateLog

SETUP_PROBES = 7
# Self-time spans reported per layer, in the order they are printed.
SELF_TIME_SPANS = (
    "allocation.optimal_allocation", "allocation.budget_for_tolerance",
    "regression.fit", "regression.predict_mean",
    "sampling.draw_inputs", "sampling.build_sobol_block", "sampling.evaluate",
    "hierarchy.evaluate_batch", "estimators.evaluate_for_plan",
    "estimators.combine", "estimators.apply_bridges",
    "pilot.estimate_stats", "study.run_replicate", "study.run_study",
)
CALL_SPANS = (
    "allocation.optimal_allocation", "regression.fit", "sampling.draw_inputs",
    "hierarchy.evaluate_batch", "pilot.estimate_stats",
)

END_TO_END_UNITS = {
    "replicates_per_s": "1/s",
    "replicate_ms_p50": "ms",
    "replicate_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "modeled_cost_per_replicate": "HF",
    "predicted_mse_x_cost": "mse_x_HF",
    "success_rate": "ratio",
}


# ---------------------------------------------------------------------------
# Machine description
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from its .git directory without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_description(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _openblas_version(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
        "git_commit": _git_commit(root),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def setup_seconds(root: Path, workload: str) -> list:
    """Wall time of fresh interpreters that import mfmc and build the
    workload's config and hierarchy, then exit."""
    probe = [sys.executable, str(root / "perfbench" / "setup_probe.py"), workload]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(probe, cwd=root, check=True)
        times.append(time.perf_counter() - start)
    return times


# Wall times on a shared virtual machine drift by 10-20 % between runs with
# the speed of the host. The timing metrics of interpreter-bound workloads are
# therefore scaled to a reference speed, measured by a fixed piece of
# interpreter and small-array numpy work run for 0.25 s before the first unit
# and after each unit. Across ten seeds this cut the spread of
# replicates_per_s from 21 % to 7 % on ishigami-sobol and from 19 % to 3 % on
# quintic-bridge. The scaling uses nothing from mfmc, so it cannot hide a
# change in the program.
REFERENCE_SPEED = 2500.0  # calibration items per second on the reference VM
_CALIBRATION_ARRAY = np.linspace(0.0, 1.0, 20_000)


def machine_speed(seconds: float = 0.25) -> float:
    """Calibration items completed per second."""
    done = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        acc = 0
        for i in range(1000):
            acc += i * i % 7
        np.sort(np.sin(_CALIBRATION_ARRAY))
        done += 1
    return done / (time.perf_counter() - start)


class RssSampler:
    """Peak resident set size of this process since the last ``reset``.

    A background thread reads ``/proc/self/statm`` every few milliseconds.
    Unlike ``ru_maxrss``, the peak can be reset, so each unit gets its own.
    """

    def __init__(self, interval: float = 0.005):
        self._interval = interval
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._fd = None
        self._thread = None
        self._peak = 0

    def _sample(self):
        with self._lock:
            rss = int(os.pread(self._fd, 128, 0).split()[1]) * self._page
            self._peak = max(self._peak, rss)

    def _run(self):
        while not self._stop.wait(self._interval):
            self._sample()

    def __enter__(self):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        os.close(self._fd)

    def reset(self):
        with self._lock:
            self._peak = 0
        self._sample()

    def peak(self) -> int:
        self._sample()
        return self._peak


class Run:
    """Units executed in one benchmark run, with the gate applied as they land."""

    def __init__(self, workload, hierarchy, seed, out_dir: Path):
        self.workload = workload
        self.hierarchy = hierarchy
        self.seed = seed
        self.out_dir = out_dir
        self.log = ReplicateLog(out_dir / f"replicates-{os.getpid()}.jsonl")
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def unit(self, index, jobs=None):
        """Run unit ``index``; return it, or None when it raised."""
        self.attempted += self.workload.replicates_per_unit
        try:
            unit = self.workload.run_unit(
                self.hierarchy, self.seed, index, self.out_dir / f"unit-{index}", self.log, jobs
            )
        except Exception:
            self.failed += self.workload.replicates_per_unit
            self.problems.append(f"unit {index} raised:\n{traceback.format_exc()}")
            return None
        for rec in unit.records:
            broken = gate.replicate_failures(rec)
            if broken:
                self.failed += 1
                self.problems.append(
                    f"unit {index} {rec['statistic']} replicate {rec['replicate']}: "
                    + "; ".join(broken)
                )
        return unit

    def loop(self, seconds):
        """Closed loop: units back to back until ``seconds`` have passed and
        the fixed sample (the first ``min_units`` units) is complete. Returns
        the units, the machine speed measured around them, and this process's
        peak RSS in bytes during each unit."""
        units, peaks = [], []
        speeds = [machine_speed()]
        start = time.perf_counter()
        with RssSampler() as rss:
            while len(units) < self.workload.min_units or time.perf_counter() - start < seconds:
                rss.reset()
                units.append(self.unit(len(units)))
                peaks.append(rss.peak())
                speeds.append(machine_speed())
        return units, speeds, peaks

    def check_fixed_sample(self, units):
        """Reference check on the first ``min_units`` units; returns their records."""
        fixed = units[: self.workload.min_units]
        if any(u is None for u in fixed):
            self.problems.append("the fixed sample is incomplete; reference check skipped")
            return []
        records = [r for u in fixed for r in u.records]
        self.problems.extend(gate.reference_failures(records, self.workload.references()))
        return records


def _peak_rss_mb(units, peaks) -> list:
    """Peak RSS in MB during each completed unit: this process plus, for
    the largest pool, the sum of its workers' peaks.

    Each statistic of a ``run_study`` call gets its own pool, so the workers
    of one statistic are alive together; pages shared after the fork count
    once per process, as ``ps`` would count them.
    """
    out = []
    for unit, own in zip(units, peaks):
        if unit is None:
            continue
        pools = {}
        for rec in unit.records:
            if rec["pid"] != os.getpid():
                workers = pools.setdefault(rec["statistic"], {})
                workers[rec["pid"]] = max(workers.get(rec["pid"], 0), rec["rss_kb"])
        workers_kb = max((sum(w.values()) for w in pools.values()), default=0)
        out.append((own / 1024 + workers_kb) / 1024)
    return out


def _hf_cost(rec) -> float:
    return (rec["pilot_cost"] + rec["realized_cost"]) / rec["w0"]


def end_to_end(run: Run, root: Path, seconds: float):
    setup = setup_seconds(root, run.workload.name)
    units, speeds, peaks = run.loop(seconds)
    fixed = run.check_fixed_sample(units)
    done = [u for u in units if u is not None]
    latencies = np.array([r["wall_ms"] for u in done for r in u.records])
    if latencies.size == 0:
        raise RuntimeError("no unit completed")
    busy_s = sum(u.wall_s for u in done)
    p50, p90 = np.percentile(latencies, [50, 90])
    speed = float(np.mean(speeds))
    scale = speed / REFERENCE_SPEED if run.workload.speed_scaled else 1.0
    unit_rss_mb = _peak_rss_mb(units, peaks)
    values = {
        "replicates_per_s": latencies.size / busy_s / scale,
        "replicate_ms_p50": float(p50) * scale,
        "replicate_ms_p90": float(p90) * scale,
        "setup_s": statistics.median(setup),
        # The median unit: a run's maximum follows its largest plan, which
        # pilot noise makes vary by a third from seed to seed on field-large.
        "peak_rss_mb": statistics.median(unit_rss_mb),
        "modeled_cost_per_replicate": float(np.mean([_hf_cost(r) for r in fixed] or [np.nan])),
        # Geometric mean: predicted MSEs of variance-type statistics are heavy
        # tailed, and the plain mean of a few dozen varied twice as much by seed.
        "predicted_mse_x_cost": float(np.exp(np.mean(
            [np.log(r["predicted_mse"] * r["realized_cost"] / r["w0"]) for r in fixed] or [np.nan]
        ))),
        "success_rate": 1.0 - run.failed / run.attempted,
    }
    detail = {
        "units": len(units),
        "busy_s": busy_s,
        "replicate_samples": int(latencies.size),
        "samples_beyond_p90": int(latencies.size - np.ceil(0.9 * latencies.size)),
        "fixed_sample_replicates": len(fixed),
        "machine_speed": speed,
        "speed_scale": scale,
        "wall_clock": {
            "replicates_per_s": latencies.size / busy_s,
            "replicate_ms_p50": float(p50),
            "replicate_ms_p90": float(p90),
        },
        "unit_peak_rss_mb": unit_rss_mb,
        "speeds": speeds,
        "setup_probe_s": setup,
        "digests": [None if u is None else u.digest for u in units],
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return metrics, detail


def per_layer(run: Run, seconds: float, out_dir: Path, seed: int):
    """Pairs of units, each run untraced and then traced, for ``seconds``.

    Alternating the two sides, and which of them goes first, keeps slow drift
    in machine speed and cache warmth out of the overhead estimate. A warm-up unit at the workload's own ``jobs`` comes
    first; its digest must equal that of unit 0 run again (with one job on
    ``ishigami-sobol``, whose trace needs every replicate in this process).
    """
    workload = run.workload
    jobs = 1 if workload.jobs > 1 else None
    start = time.perf_counter()
    warm = run.unit(0)
    tracer = Tracer()
    plain, traced = [], []
    while len(plain) < workload.min_units or time.perf_counter() - start < seconds:
        index = len(plain)
        if index % 2:
            plain.append(run.unit(index, jobs))
        with tracer.installed(), tracer.unit(index):
            traced.append(run.unit(index, jobs))
        if not index % 2:
            plain.append(run.unit(index, jobs))
    run.check_fixed_sample(traced)
    for index, (a, b) in enumerate(zip(plain, traced)):
        if a is None or b is None or a.digest != b.digest:
            run.problems.append(f"unit {index}: traced output digest differs from untraced")
    if warm is None or plain[0] is None or warm.digest != plain[0].digest:
        run.problems.append(
            f"unit 0: output digest with jobs={workload.jobs} differs from the rerun "
            f"with jobs={jobs or workload.jobs}"
        )
    if tracer.missing:
        run.problems.append("cannot trace missing functions: " + ", ".join(sorted(tracer.missing)))
    if any(u is None for u in plain + traced):
        raise RuntimeError("a unit failed; per-layer metrics need every unit")

    records = [r for u in traced for r in u.records]
    n = len(records)
    times = tracer.self_times()
    counts = tracer.counts
    alloc_calls = times.get("allocation.optimal_allocation", (0, 0))[1]
    untraced_s = sum(u.wall_s for u in plain)
    metrics = {}
    for name in SELF_TIME_SPANS:
        metrics[f"{name}.self_ms"] = (times.get(name, (0, 0))[0] / 1e6 / n, "ms/replicate")
        if name in CALL_SPANS:
            metrics[f"{name}.calls"] = (times.get(name, (0, 0))[1] / n, "calls/replicate")
    metrics.update({
        "allocation.budget_used_ratio": (
            counts["allocation.budget_used_sum"] / alloc_calls if alloc_calls else 0.0, "ratio"),
        "allocation.models_retained": (
            counts["allocation.models_retained_sum"] / alloc_calls if alloc_calls else 0.0,
            "models"),
        "regression.predict_rows": (counts["regression.predict_rows"] / n, "rows/replicate"),
        "sampling.rows_drawn": (counts["sampling.rows_drawn"] / n, "rows/replicate"),
        "hierarchy.model_rows": (counts["hierarchy.model_rows"] / n, "rows/replicate"),
        "study.bytes_written": (sum(u.bytes_written for u in traced) / n, "bytes/replicate"),
        "study.pilot_cost_per_replicate": (
            float(np.mean([r["pilot_cost"] / r["w0"] for r in records])), "HF/replicate"),
        "study.estimation_cost_per_replicate": (
            float(np.mean([r["realized_cost"] / r["w0"] for r in records])), "HF/replicate"),
        "trace.overhead_frac": (sum(u.wall_s for u in traced) / untraced_s - 1.0, "fraction"),
    })
    trace_path = out_dir / f"trace_{workload.name}_seed{seed}.json"
    tracer.write(trace_path)
    detail = {
        "units": len(traced),
        "traced_replicates": n,
        "trace_jobs": jobs or workload.jobs,
        "untraced_s": untraced_s,
        "traced_s": sum(u.wall_s for u in traced),
        "spans": len(tracer.spans),
        "trace_file": str(trace_path.relative_to(out_dir.parents[1])),
        "digests": [u.digest for u in traced],
        "warmup_digest": warm.digest,
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def measure(workload, seed: int, seconds: float, trace: int, root: Path) -> dict:
    """Run one workload and return the full result record."""
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    hierarchy = workload.setup()
    run = Run(workload, hierarchy, seed, out_dir)
    if trace:
        metrics, detail = per_layer(run, seconds, out_dir, seed)
    else:
        metrics, detail = end_to_end(run, root, seconds)
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_description(root),
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }


def main(argv, root: Path) -> int:
    args = parse_args(argv)
    src = (root / "src").resolve()
    if src not in Path(mfmc.__file__).resolve().parents:
        print(f"error: mfmc was imported from {mfmc.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, root)
    results_dir = root / "perfbench" / "out" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")

    print(f"workload {result['workload']}  seed {args.seed}  trace {args.trace}")
    for key, value in result["machine"].items():
        print(f"  machine.{key}: {value}")
    for key, value in result["detail"].items():
        if key not in ("digests", "setup_probe_s", "speeds"):
            print(f"  {key}: {value}")
    if result["detail"].get("digests"):
        print(f"  output sha256 (unit 0): {result['detail']['digests'][0]}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for problem in result["problems"]:
        print(f"  GATE: {problem}")
    print(f"  correct: {result['correct']}  ({result['failed']} of {result['attempted']} "
          f"replicates failed)  record: {path.relative_to(root)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0
