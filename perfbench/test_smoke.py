"""Reduced-size smoke test of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric named in BENCHMARK.json is printed with its
unit on every workload, and that the correctness gate trips on corrupted
outputs. The workloads are shrunk (fewer replicates and models, smaller
budgets) so the whole file runs in well under a minute.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import mfmc
import mfmc.study
from perfbench import bench, gate
from perfbench.workloads import WORKLOADS, ReplicateLog, StudyWorkload

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small(name):
    workload = WORKLOADS[name]
    if isinstance(workload, StudyWorkload):
        config = dict(workload.config, replicates=3)
        if config["hierarchy"] == "synthetic-field":
            config.update(n_points=10, budgets=(200.0,))
        return dataclasses.replace(workload, config=config, min_units=1)
    return dataclasses.replace(workload, n_models=5, min_units=1)


def run_main(monkeypatch, capsys, name, trace):
    monkeypatch.setitem(bench.WORKLOADS, name, small(name))
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    assert bench.main(argv, ROOT) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(monkeypatch, capsys, name, trace):
    result = run_main(monkeypatch, capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    workload = small("ishigami-sobol")
    out = tmp_path_factory.mktemp("smoke")
    unit = workload.run_unit(None, 5, 0, out / "unit", ReplicateLog(out / "log.jsonl"), jobs=1)
    assert not gate.reference_failures(unit.records, workload.references())
    return unit.records


def corrupt(rec, **changes):
    return dict(rec, **changes)


def test_gate_passes_clean_records(records):
    assert all(gate.replicate_failures(r) == [] for r in records)


def test_gate_trips_on_corrupted_replicates(records):
    rec = next(r for r in records if all(r["retained"]))
    m = list(rec["m"])
    assert gate.replicate_failures(corrupt(rec, realized_cost=rec["budget"] * 1.01))
    assert gate.replicate_failures(corrupt(rec, values=[math.nan] * len(rec["values"])))
    assert gate.replicate_failures(corrupt(rec, retained=[True] * (len(m) - 1) + [False]))
    assert gate.replicate_failures(corrupt(rec, m=[m[0] + m[1] + 1, *m[1:]]))


def test_gate_trips_on_biased_mean(records):
    workload = small("ishigami-sobol")
    shifted = [
        corrupt(r, values=[v + 10.0 * math.sqrt(r["predicted_mse"]) for v in r["values"]])
        if r["statistic"] == "variance" else r
        for r in records
    ]
    problems = gate.reference_failures(shifted, workload.references())
    assert len(problems) == 1 and problems[0].startswith("variance:")


def test_benchmark_run_fails_on_biased_estimator(monkeypatch):
    original = mfmc.study.mfmc_statistic

    def biased(evals, plan, statistic):
        report = original(evals, plan, statistic)
        report.value = report.value + 1.0
        return report

    monkeypatch.setattr(mfmc.study, "mfmc_statistic", biased)
    result = bench.measure(small("field-large"), 3, 0.1, 1, ROOT)
    assert result["correct"] is False
    assert any("standard errors" in p for p in result["problems"])


def test_benchmark_run_counts_plans_over_budget(monkeypatch):
    original = mfmc.study.optimal_allocation

    def overspending(*args, **kwargs):
        plan = original(*args, **kwargs)
        plan.m = plan.m * 2
        return plan

    monkeypatch.setattr(mfmc.study, "optimal_allocation", overspending)
    result = bench.measure(small("field-large"), 3, 0.1, 1, ROOT)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert np.all(["over budget" in p for p in result["problems"] if "replicate" in p])
