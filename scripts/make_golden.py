#!/usr/bin/env python3
"""Regenerate tests/data/golden.json, the byte-identity table of study outputs.

Runs 15 small studies (20 replicates, pilot 40, seed 3): each statistic
alone, the two draw-kind groups and all four statistics together, both
modes, tolerance mode and ``include_pilot_cost``. For each it records the
sha256 of every output file and each replicate's sample counts ``m`` and
values, plus the numpy version that produced them. ``tests/test_golden.py``
checks the tree against the file. A change that moves any entry on purpose
regenerates the file and says which entries changed and why:

    python scripts/make_golden.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mfmc import study
from mfmc.study import StudyConfig, run_study

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden.json"

_COMMON = dict(replicates=20, pilot_size=40, seed=3, out_dir="golden")
_ISHIGAMI = dict(hierarchy="ishigami", budgets=(40.0,))
_SOBOL = dict(hierarchy="ishigami", budgets=(160.0,))
_BRIDGED = dict(hierarchy="quintic", mode="nonlinear", regression_train_size=40, budgets=(40.0,))
_FIELD = dict(hierarchy="synthetic-field", n_points=5, budgets=(40.0,))
_MOMENTS = ("expectation", "variance")

CONFIGS = {
    "ishigami-expectation": {**_ISHIGAMI, "statistics": ("expectation",)},
    "ishigami-variance": {**_ISHIGAMI, "statistics": ("variance",)},
    "ishigami-sobol-main": {**_SOBOL, "statistics": ("sobol-main",)},
    "ishigami-sobol-total": {**_SOBOL, "statistics": ("sobol-total",)},
    "ishigami-variance-tolerance": {**_ISHIGAMI, "statistics": ("variance",), "budgets": None,
                                    "tolerance": 0.5},
    "ishigami-sobol-main-tolerance": {**_SOBOL, "statistics": ("sobol-main",), "budgets": None,
                                      "tolerance": 0.3},
    "ishigami-expectation-pilot-cost": {**_ISHIGAMI, "statistics": ("expectation",),
                                        "budgets": (80.0,), "include_pilot_cost": True},
    "quintic-bridged-expectation": {**_BRIDGED, "statistics": ("expectation",)},
    "quintic-bridged-variance-tolerance": {**_BRIDGED, "statistics": ("variance",),
                                           "budgets": None, "tolerance": 2.0},
    "field-expectation": {**_FIELD, "statistics": ("expectation",)},
    "field-variance-weights-costs": {**_FIELD, "statistics": ("variance",),
                                     "output_weights": (1.0, 2.0, 3.0, 4.0, 5.0),
                                     "costs": (1.0, 0.1, 0.002)},
    "ishigami-moments": {**_ISHIGAMI, "statistics": _MOMENTS},
    "ishigami-all": {**_SOBOL, "statistics": ("expectation", "variance", "sobol-main",
                                              "sobol-total")},
    "field-moments": {**_FIELD, "statistics": _MOMENTS},
    "quintic-bridged-moments": {**_BRIDGED, "statistics": _MOMENTS},
}


def config_of(name: str) -> StudyConfig:
    return StudyConfig(**_COMMON, **CONFIGS[name])


def record(name: str) -> dict:
    """One entry of the table: the config, each output file's sha256 and,
    per statistic, each replicate's ``m`` and values.

    The study is written to a temporary directory; the config's ``out_dir``,
    which ``summary.json`` echoes, stays fixed. The records are read off
    every ``run_replicate`` call the study makes (one worker, so all of them
    run in this process).
    """
    config = config_of(name)
    runs = {s: [] for s in config.statistics}
    original = study.run_replicate

    def kept(config, stat_label, budget, rep):
        rec = original(config, stat_label, budget, rep)
        runs[stat_label].append({"m": [int(v) for v in rec["m"]],
                                 "values": [float(v) for v in rec["values"]]})
        return rec

    study.run_replicate = kept
    try:
        with tempfile.TemporaryDirectory() as tmp:
            run_study(config, out_dir=tmp)
            files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(Path(tmp).iterdir())}
    finally:
        study.run_replicate = original
    return {"config": config.to_dict(), "files": files, "replicates": runs}


def main():
    table = {"numpy": np.__version__, "studies": {name: record(name) for name in CONFIGS}}
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CONFIGS)} studies to {GOLDEN} (numpy {np.__version__})")


if __name__ == "__main__":
    main()
