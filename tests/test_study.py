import dataclasses
import json
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from conftest import traced_peak, whole_draw

from mfmc import estimators, study
from mfmc.allocation import AllocationPlan
from mfmc.cli import main
from mfmc.errors import DegenerateStatsError, InfeasibleBudgetError, MFMCError, UnknownNameError
from mfmc.regression import GaussianProcessBridge
from mfmc.estimators import STATISTICS, mfmc_statistic
from mfmc.hierarchy import Model, Uniform
from mfmc.pilot import PilotStats
from mfmc.sampling import (
    _BLOCK_ELEMENTS,
    NestedEvaluations,
    build_sobol_block,
    draw_inputs,
    evaluate_nested,
)
from mfmc.study import (
    StudyConfig,
    make_reference,
    reference_values,
    replicate_sweep,
    run_allocate,
    run_pilot,
    run_replicate,
    run_study,
)


def _tiny_config(tmp_path, **overrides):
    base = dict(
        hierarchy="ishigami",
        statistics=("expectation",),
        budgets=(20.0,),
        replicates=4,
        pilot_size=40,
        seed=7,
        out_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return StudyConfig(**base)


def test_run_study_writes_expected_files(tmp_path):
    config = _tiny_config(tmp_path, statistics=("expectation", "variance"))
    summary = run_study(config)
    out = Path(config.out_dir)
    for stat in ("expectation", "variance"):
        assert (out / f"replicates_{stat}.csv").exists()
        assert (out / f"allocation_{stat}.csv").exists()
    assert (out / "summary.json").exists()
    entry = summary["statistics"]["expectation"]
    assert entry["reference"] == [2.5]
    assert entry["replicates"] == 4
    assert abs(entry["value_mean"][0] - 2.5) < 0.5


def test_run_study_outputs_are_byte_identical(tmp_path):
    config = _tiny_config(tmp_path)
    run_study(config)
    names = ("summary.json", "replicates_expectation.csv", "allocation_expectation.csv")
    first = {n: (Path(config.out_dir) / n).read_bytes() for n in names}
    run_study(_tiny_config(tmp_path))
    for name in names:
        assert (Path(config.out_dir) / name).read_bytes() == first[name]


def test_parallel_jobs_do_not_change_outputs(tmp_path):
    # Both runs write to the same directory so that the echoed out_dir matches.
    outputs = []
    for jobs in (1, 2):
        run_study(_tiny_config(tmp_path, jobs=jobs))
        out = tmp_path / "out"
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        for p in out.iterdir():
            p.unlink()
    assert len(outputs[0]) == 3
    assert outputs[0] == outputs[1]


def _in_process_pool(events):
    """A ``ProcessPoolExecutor`` stand-in that logs to ``events`` what it is
    asked and runs the mapped tasks lazily in this process, as results are
    read."""

    class InProcessPool:
        def __init__(self, max_workers):
            events.append(("open", max_workers))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            events.append("exit")
            return False

        def map(self, fn, items, chunksize=1):
            items = list(items)
            events.append(("map", items))
            return map(fn, items)

        def shutdown(self, wait=True, *, cancel_futures=False):
            events.append(("shutdown", cancel_futures))

    return InProcessPool


def test_the_pool_has_no_more_workers_than_replicates(tmp_path, monkeypatch):
    # A study runs on J = min(jobs, replicates) processes, this one included.
    # A fork-started pool forks all max_workers processes at the first
    # submit, so it opens J - 1 workers, which would otherwise sit idle; this
    # process runs every J-th replicate and the pool the rest, each once.
    events, ran = [], []
    task = study._replicate_task

    def recorded(config, rep):
        ran.append(rep)
        return task(config, rep)

    monkeypatch.setattr(study, "ProcessPoolExecutor", _in_process_pool(events))
    monkeypatch.setattr(study, "_replicate_task", recorded)
    for replicates, jobs in [(2, 16), (1, 16), (3, 2)]:
        ran.clear()
        run_study(_tiny_config(tmp_path, replicates=replicates, jobs=jobs))
        assert sorted(ran) == list(range(replicates))
        j = min(jobs, replicates)
        theirs = [r for r in range(replicates) if r % j]
        assert [r for r in ran if r not in theirs] == list(range(0, replicates, j))
    assert events == [("open", 1), ("map", [1]), "exit"] * 2


def test_an_error_in_this_process_cancels_the_queued_chunks(tmp_path, monkeypatch):
    # the error reaches the caller unchanged, after the pool was told to
    # cancel what it has not started; no worker chunk ran before that
    events = []
    error = MFMCError("replicate 2 failed")

    def task(config, rep):
        if rep == 2:
            raise error
        events.append(rep)
        return []

    monkeypatch.setattr(study, "ProcessPoolExecutor", _in_process_pool(events))
    monkeypatch.setattr(study, "_replicate_task", task)
    with pytest.raises(MFMCError) as info:
        study._run_replicates(_tiny_config(tmp_path, replicates=4, jobs=2))
    assert info.value is error
    assert events == [("open", 1), ("map", [1, 3]), 0, ("shutdown", True), "exit"]


def _bridged_config(tmp_path, **overrides):
    settings = dict(
        hierarchy="quintic", mode="nonlinear", statistics=("expectation", "variance"),
        budgets=(40.0,), replicates=3, pilot_size=30, regression_train_size=20,
    )
    return _tiny_config(tmp_path, **{**settings, **overrides})


def _same_record(a, b):
    assert a.keys() == b.keys()
    for key in a:
        if a[key] is None or isinstance(a[key], str):
            assert a[key] == b[key], key
        else:
            assert np.array_equal(a[key], b[key]), key


def test_bridges_fit_once_per_replicate(tmp_path, monkeypatch):
    fits = []
    original = GaussianProcessBridge.fit

    def counted(self, x, y):
        fits.append(x)
        return original(self, x, y)

    monkeypatch.setattr(GaussianProcessBridge, "fit", counted)
    study._MEMO.clear()
    config = _bridged_config(tmp_path)
    run_study(config)
    # one GP per low-fidelity model and replicate, shared by both statistics
    assert len(fits) == config.replicates * (3 - 1)


def test_a_sweep_fits_each_replicates_bridges_once(tmp_path, monkeypatch):
    fits = []
    original = GaussianProcessBridge.fit

    def counted(self, x, y):
        fits.append(x)
        return original(self, x, y)

    monkeypatch.setattr(GaussianProcessBridge, "fit", counted)
    study._MEMO.clear()
    config = _bridged_config(tmp_path, budgets=(10.0, 20.0, 40.0))
    replicate_sweep(config)
    # one GP per low-fidelity model and replicate, shared by every budget
    # and statistic, not one per budget
    assert len(fits) == config.replicates * (3 - 1)


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_sweep_budget_writes_what_its_own_study_writes(tmp_path, jobs):
    # a sweep runs each replicate once for all its budgets, and each p<b>/
    # holds, byte for byte, what a study at budget b alone writes
    config = _bridged_config(tmp_path, budgets=(10.0, 20.0, 40.0), jobs=jobs)
    replicate_sweep(config, out_dir=tmp_path / "sweep")
    for budget in config.budgets:
        alone = tmp_path / f"alone{budget:g}"
        run_study(dataclasses.replace(config, budgets=(budget,)), out_dir=alone)
        swept = tmp_path / "sweep" / f"p{budget:g}"
        names = sorted(f.name for f in alone.iterdir())
        assert sorted(f.name for f in swept.iterdir()) == names
        for name in names:
            assert (swept / name).read_bytes() == (alone / name).read_bytes(), (budget, name)


_ALL_STATISTICS = ("expectation", "variance", "sobol-main", "sobol-total")


def test_pilot_draws_evaluated_once_per_replicate(tmp_path, monkeypatch):
    evaluated = []
    original = study.evaluate_nested

    def counted(hierarchy, samples, *args):
        evaluated.append(samples)
        return original(hierarchy, samples, *args)

    monkeypatch.setattr(study, "evaluate_nested", counted)
    study._MEMO.clear()
    config = _tiny_config(tmp_path, statistics=_ALL_STATISTICS, budgets=(160.0,), replicates=3)
    run_study(config)
    # per replicate, one Sobol block, whose base column the plain statistics
    # (expectation, variance) read, not one draw per statistic
    assert len(evaluated) == config.replicates
    assert all(s.sobol for s in evaluated)


def test_the_pilot_is_charged_once_in_equal_shares(tmp_path):
    # one pilot block of 100 rows at d + 2 runs (525.5) is evaluated per
    # replicate, and the four statistics that read it share its cost equally
    config = _tiny_config(tmp_path, statistics=_ALL_STATISTICS, budgets=(160.0,), pilot_size=100)
    charges = [run_replicate(config, stat, 160.0, 0)["pilot_cost"] for stat in _ALL_STATISTICS]
    assert charges == [131.375] * 4
    assert sum(charges) == 525.5


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"statistics": _ALL_STATISTICS, "budgets": (160.0,)}, id="ishigami"),
        pytest.param(
            {"hierarchy": "quintic", "mode": "nonlinear", "statistics": ("expectation", "variance"),
             "regression_train_size": 20},
            id="bridged-quintic",
        ),
        pytest.param(
            {"hierarchy": "synthetic-field", "n_points": 5, "costs": (1.0, 0.1, 0.002),
             "statistics": ("expectation", "variance")},
            id="field-costs",
        ),
    ],
)
def test_ledger_equals_the_runs(tmp_path, monkeypatch, overrides):
    config = _tiny_config(tmp_path, **overrides).validate()
    charged = []
    evaluate_batch = Model.evaluate_batch

    def counted(model, inputs):
        charged.append(len(inputs) * model.cost)
        return evaluate_batch(model, inputs)

    monkeypatch.setattr(Model, "evaluate_batch", counted)
    study._MEMO.clear()
    records = [run_replicate(config, stat, config.budgets[0], 0) for stat in config.statistics]
    ledger = sum(rec["pilot_cost"] + rec["realized_cost"] for rec in records)
    assert ledger == pytest.approx(sum(charged), rel=1e-12)


def test_a_replicate_runs_each_model_once_per_row_of_each_draw_kind(tmp_path, monkeypatch):
    # per model: the pilot block's d + 2 = 5 sets, then the plain group's
    # rows once and the Sobol group's rows once per set, however many
    # statistics of a group read them
    config = _tiny_config(tmp_path, statistics=_ALL_STATISTICS, budgets=(160.0,))
    rows = dict.fromkeys(["f1", "f2", "f3"], 0)
    evaluate_batch = Model.evaluate_batch

    def counted(model, inputs):
        rows[model.label] += len(inputs)
        return evaluate_batch(model, inputs)

    monkeypatch.setattr(Model, "evaluate_batch", counted)
    study._MEMO.clear()
    records = {s: run_replicate(config, s, 160.0, 0) for s in _ALL_STATISTICS}
    plain, sobol = records["expectation"]["m"], records["sobol-main"]["m"]
    assert np.array_equal(plain, records["variance"]["m"])
    assert np.array_equal(sobol, records["sobol-total"]["m"])
    expected = [5 * config.pilot_size + plain[i] + 5 * sobol[i] for i in range(3)]
    assert list(rows.values()) == expected


def test_replicate_memo_never_stale(tmp_path):
    # each variant changes one thing the pilot, a group's plan or its walk
    # depends on, and is called right after the call of its base that it
    # would otherwise hit; every record equals one made with a fresh memo
    def ishigami(**overrides):
        return _tiny_config(tmp_path, **{"statistics": _ALL_STATISTICS, "budgets": (160.0,),
                                         **overrides})

    variants = {  # name: (the base it follows, config, budget, replicate offset)
        "base": (None, ishigami(), 160.0, 0),
        "replicate": ("base", ishigami(), 160.0, 1),
        "budget": ("base", ishigami(), 200.0, 0),
        "moments": ("base", ishigami(statistics=("expectation", "variance")), 160.0, 0),
        "costs": ("base", ishigami(costs=(1.0, 0.1, 0.002)), 160.0, 0),
        "include": ("base", ishigami(include_pilot_cost=True), 160.0, 0),
        "sobol-weights": ("base", ishigami(statistics=("sobol-main", "sobol-total"),
                                           output_weights=(1.0, 2.0, 3.0)), 160.0, 0),
        "tolerance": ("base", ishigami(budgets=None, tolerance=0.5), None, 0),
        "pilot": ("base", ishigami(pilot_size=30), 160.0, 0),
        "bridged": (None, _bridged_config(tmp_path), 40.0, 0),
        "bridged-replicate": ("bridged", _bridged_config(tmp_path), 40.0, 1),
        "seed": ("bridged", _bridged_config(tmp_path, seed=8), 40.0, 0),
        "train": ("bridged", _bridged_config(tmp_path, regression_train_size=25), 40.0, 0),
    }
    calls = [
        call
        for rep in (0, 1)
        for stat in ("expectation", "sobol-main", "variance", "sobol-total")
        for v, (base, config, *_) in variants.items()
        if base is not None and stat in config.statistics
        for call in ((base, stat, rep), (v, stat, rep))
    ]

    def run(v, stat, rep):
        _, config, budget, offset = variants[v]
        return run_replicate(config, stat, budget, rep + offset)

    interleaved = [run(*call) for call in calls]
    latest = dict(zip(calls, interleaved))
    for (v, stat, rep), rec in zip(calls, interleaved):
        study._MEMO.clear()
        _same_record(rec, run(v, stat, rep))
        partner = {"expectation": "variance", "sobol-main": "sobol-total"}.get(stat)
        if (v, partner, rep) in latest:
            assert np.array_equal(rec["m"], latest[v, partner, rep]["m"])


def test_run_replicate_refuses_a_statistic_outside_the_config(tmp_path):
    with pytest.raises(UnknownNameError, match=r"'variance'.*\['expectation'\]"):
        run_replicate(_tiny_config(tmp_path), "variance", 20.0, 0)


def test_stacked_members_count_equally(tmp_path):
    # member j's weights are scaled by S_first / S_j (S = sum of w sigma_1^2),
    # so both members weigh the same in the aggregate; the first member, and
    # a group of one, keep their weights bit for bit
    config = _tiny_config(tmp_path, hierarchy="synthetic-field", n_points=5,
                          statistics=("expectation", "variance"), output_weights=(1, 2, 3, 4, 5))
    h = config.build_hierarchy()
    stats = [STATISTICS[s] for s in config.statistics]
    replicate = study._Replicate(config, 0)
    pilots = [replicate.pilot_stage(stat)[0] for stat in stats]
    weights = [study._component_weights(config, h, stat) for stat in stats]
    stacked, w = study._stack(stats, pilots, weights)
    first, second = np.split(w * stacked.sigma[0] ** 2, 2)
    assert first.sum() == pytest.approx(second.sum(), rel=1e-12)
    assert np.array_equal(w[:5], weights[0])
    assert np.array_equal(study._stack(stats[1:], pilots[1:], weights[1:])[1], weights[1])


def test_a_member_without_variance_is_named(tmp_path):
    config = _tiny_config(tmp_path, statistics=("expectation", "variance"))
    moments = [STATISTICS["expectation"], STATISTICS["variance"]]
    varied = study._Replicate(config, 0).pilot_stage(moments[0])[0]
    flat = PilotStats(np.zeros((3, 1)), np.ones((3, 1)), 40, np.array([True]))
    with pytest.raises(DegenerateStatsError, match="variance"):
        study._plan_stage(config, config.build_hierarchy(), moments, [varied, flat], 40.0)


def _csv_rows(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.mark.parametrize("jobs", [1, 2])
def test_multi_statistic_study_shares_one_plan_and_one_estimation_draw(tmp_path, jobs):
    # expectation and variance read plain rows, so one plan and one
    # estimation draw (the expectation's stream) serve both; each value is
    # its own fold of that draw, and each statistic pays half of the draw's
    # model runs, as it pays half of the pilot
    config = _bridged_config(tmp_path, jobs=jobs)
    summary = run_study(config, out_dir=tmp_path / "joint")
    h = config.build_hierarchy()
    rows = {s: _csv_rows(tmp_path / "joint" / f"replicates_{s}.csv") for s in config.statistics}
    for rep in range(config.replicates):
        records = {s: run_replicate(config, s, 40.0, rep) for s in config.statistics}
        first, second = records.values()
        for key in ("m", "retained", "budget_abs"):
            assert np.array_equal(first[key], second[key]), key
        assert first["realized_cost"] == second["realized_cost"]
        _, bridges = study._Replicate(config, rep).pilot
        samples = draw_inputs(h, int(first["m"].max()), (config.seed, study._ESTIMATE, rep))
        for stat, rec in records.items():
            plan = AllocationPlan(rec["m"], rec["alpha"], rec["retained"], rec["predicted_mse"],
                                  rec["budget_abs"], np.nan, np.full(3, np.nan), rec["m_real"])
            held = estimators.apply_bridges(estimators.evaluate_for_plan(h, plan, samples), bridges)
            value = mfmc_statistic(held, plan, STATISTICS[stat]).value
            assert np.array_equal(rec["values"], value)
            assert rec["realized_cost"] == held.cost / 2
            row = rows[stat][rep]
            assert float(row["value"]) == value[0]
            assert float(row["realized_cost"]) == held.cost / 2
    entries = summary["statistics"].values()
    assert len({e["realized_cost_total"] for e in entries}) == 1
    assert len({e["pilot_cost_total"] for e in entries}) == 1


def test_cost_ledger_consistency(tmp_path):
    config = _tiny_config(tmp_path)
    summary = run_study(config)
    out = Path(config.out_dir)
    rows = (out / "replicates_expectation.csv").read_text().strip().splitlines()[1:]
    costs = [float(r.split(",")[-1]) for r in rows]
    entry = summary["statistics"]["expectation"]
    assert entry["realized_cost_total"] == pytest.approx(sum(costs), rel=1e-9)
    assert entry["total_cost"] == entry["realized_cost_total"] + entry["pilot_cost_total"]


def test_cost_ledger_with_pilot_fold_in(tmp_path):
    config = _tiny_config(tmp_path, include_pilot_cost=True, budgets=(60.0,))
    summary = run_study(config)
    entry = summary["statistics"]["expectation"]
    assert entry["total_cost"] == pytest.approx(
        entry["realized_cost_total"] + entry["pilot_cost_total"], rel=1e-9
    )
    # folding the pilot in shrinks the estimation budget
    assert entry["budget_p_mean"] < 60.0


def test_the_key_table_has_one_row_per_config_field():
    assert list(study._KEYS) == [f.name for f in dataclasses.fields(StudyConfig)]


def test_the_readme_key_table_mirrors_the_key_table():
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| key | kind | default | least | pilot key | echoed |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, kind, _, least, pilot, echoed = (cell.strip() for cell in line.strip("|").split("|"))
        assert key.strip("`") not in rows, key
        rows[key.strip("`")] = kind, least, pilot, echoed
    assert list(rows) == list(study._KEYS)
    words = {study._INTEGER: "integer", study._REAL: "real", study._REALS: "list of reals",
             study._NAME: "name", study._NAMES: "list of names", study._PATH: "path",
             study._BOOL: "bool"}
    for key, (kind, least, pilot, echoed) in rows.items():
        row = study._KEYS[key]
        assert kind.startswith(words[row.kind]) and ("or null" in kind) == row.null, key
        assert ("without repeats" in kind) == row.distinct, key
        assert (pilot != "no") == row.pilot and (echoed == "yes") == row.echo, key
        if row.kind is study._INTEGER:
            assert least.startswith(str(row.least) if row.least else "none"), key


def test_exactly_one_of_budgets_and_tolerance():
    with pytest.raises(ValueError):
        StudyConfig(budgets=(10.0,), tolerance=0.1).validate()
    with pytest.raises(ValueError):
        StudyConfig(budgets=None, tolerance=None).validate()


def test_unknown_names_rejected():
    with pytest.raises(UnknownNameError):
        StudyConfig(hierarchy="borehole").validate()
    with pytest.raises(UnknownNameError):
        StudyConfig(statistics=("kurtosis",)).validate()
    with pytest.raises(UnknownNameError):
        StudyConfig(mode="quadratic").validate()
    with pytest.raises(UnknownNameError):
        StudyConfig.from_dict({"budget": 3})


@pytest.mark.parametrize(
    "overrides, words",
    [
        ({"costs": (1.0, 0.1)}, ["costs", "2", "3"]),
        ({"costs": (1.0, 0.1, 0.01, 0.001)}, ["costs", "4", "3"]),
        ({"pilot_size": 2}, ["pilot_size"]),
        ({"mode": "nonlinear", "regression_train_size": 4}, ["regression_train_size"]),
        ({"hierarchy": "synthetic-field", "n_points": 0}, ["n_points"]),
    ],
)
def test_validate_rejects_bad_sizes_before_pilot_work(overrides, words):
    with pytest.raises(ValueError) as info:
        StudyConfig(**overrides).validate()
    assert all(word in str(info.value) for word in words)


@pytest.mark.parametrize(
    "overrides, error, key",
    [
        ({"statistics": ("expectation", "sobol-main"), "output_weights": (1.0,)},
         ValueError, "output_weights"),
        ({"statistics": ("expectation", "sobol-main"), "output_weights": (1.0, 1.0, 1.0)},
         ValueError, "output_weights"),
        ({"hierarchy": "synthetic-field", "n_points": 5, "output_weights": (1.0,) * 4},
         ValueError, "output_weights"),
        ({"output_weights": (0.0,)}, ValueError, "output_weights"),
        ({"output_weights": (-1.0,)}, ValueError, "output_weights"),
        ({"output_weights": (float("nan"),)}, ValueError, "output_weights"),
        ({"output_weights": (float("inf"),)}, ValueError, "output_weights"),
        ({"budgets": None, "tolerance": 0.0}, ValueError, "tolerance"),
        ({"budgets": None, "tolerance": -0.1}, ValueError, "tolerance"),
        ({"budgets": None, "tolerance": float("nan")}, ValueError, "tolerance"),
        ({"budgets": None, "tolerance": float("inf")}, ValueError, "tolerance"),
        ({"budgets": (0.0,)}, ValueError, "budgets"),
        ({"budgets": (-5.0,)}, ValueError, "budgets"),
        ({"budgets": (float("nan"),)}, ValueError, "budgets"),
        ({"budgets": (float("inf"),)}, ValueError, "budgets"),
        ({"budgets": (10.0, float("nan"))}, ValueError, "budgets"),
        ({"jobs": 0}, ValueError, "jobs"),
        ({"jobs": -1}, ValueError, "jobs"),
        ({"reference_samples": 0}, ValueError, "reference_samples"),
        ({"statistics": ("expectation", "variance"), "reference_samples": 1},
         ValueError, "reference_samples"),
        ({"statistics": ("sobol-main",), "reference_samples": 1}, ValueError, "reference_samples"),
        ({"statistics": ()}, ValueError, "statistics"),
        ({"statistics": ("expectation", "expectation")}, ValueError, "statistics"),
        ({"statistics": ("variance", "expectation", "variance")}, ValueError, "statistics"),
        ({"budgets": ()}, ValueError, "budgets"),
        ({"budgets": (20.0, 20.0)}, ValueError, "budgets"),
        ({"budgets": (10, 20, 10.0)}, ValueError, "budgets"),
        ({"costs": (1.0, 0.05, float("inf"))}, ValueError, "costs"),
        ({"costs": (float("nan"), 0.05, 0.001)}, ValueError, "costs"),
        ({"costs": (1.0, -0.05, 0.001)}, ValueError, "costs"),
        ({"costs": (1.0, 0.0, 0.001)}, ValueError, "costs"),
        ({"costs": (1e308, 0.05, 0.001)}, ValueError, "budgets"),
        ({"budgets": (1e308,), "costs": (10.0, 0.05, 0.001)}, ValueError, "budgets"),
        # integer keys must be integers: these raised TypeError, or ran with
        # the value truncated, or failed in a model
        ({"replicates": "abc"}, ValueError, "replicates"),
        ({"replicates": 2.5}, ValueError, "replicates"),
        ({"pilot_size": 30.5}, ValueError, "pilot_size"),
        ({"seed": 1.5}, ValueError, "seed"),
        ({"hierarchy": "synthetic-field", "n_points": 5.5}, ValueError, "n_points"),
        ({"jobs": True}, ValueError, "jobs"),
        ({"budgets": None, "tolerance": "0.1"}, ValueError, "tolerance"),
        ({"costs": (1.0, "x", 0.001)}, ValueError, "costs"),
        # keys that are not integers: these raised TypeError, or ran with a
        # string taken as true or a bool taken as a cost
        ({"statistics": 5}, ValueError, "statistics"),
        ({"reference_file": 5}, ValueError, "reference_file"),
        ({"include_pilot_cost": "yes"}, ValueError, "include_pilot_cost"),
        ({"include_pilot_cost": "false"}, ValueError, "include_pilot_cost"),
        ({"costs": (True, 0.05, 0.001)}, ValueError, "costs"),
        # these ended in an OverflowError, or in numpy's "Python int too
        # large to convert to C long" inside a replicate, or in a TypeError
        # for an unhashable statistic
        ({"budgets": (10**400,)}, ValueError, "budgets"),
        ({"costs": (10**400, 0.05, 0.001)}, ValueError, "costs"),
        ({"output_weights": (10**400,)}, ValueError, "output_weights"),
        ({"budgets": None, "tolerance": 10**400}, ValueError, "tolerance"),
        ({"pilot_size": 10**28}, ValueError, "pilot_size"),
        ({"replicates": 2**63}, ValueError, "replicates"),
        ({"jobs": 2**63}, ValueError, "jobs"),
        ({"reference_samples": 2**63}, ValueError, "reference_samples"),
        ({"hierarchy": "synthetic-field", "n_points": 2**63}, ValueError, "n_points"),
        ({"mode": "nonlinear", "regression_train_size": 2**63}, ValueError,
         "regression_train_size"),
        ({"statistics": [[1]]}, ValueError, "statistics"),
        ({"statistics": ("expectation", [1])}, ValueError, "statistics"),
    ],
)
def test_validate_rejects_values_that_used_to_fail_inside_a_replicate(overrides, error, key):
    with pytest.raises(error, match=key):
        StudyConfig(**overrides).validate()


_SCALAR_ONLY = [
    (["--set", "mode=nonlinear"], "mode='nonlinear'"),
    (["--set", 'statistics=["sobol-main"]'], "statistics=['sobol-main']"),
    (["--set", 'statistics=["expectation", "sobol-total"]'], "statistics=['sobol-total']"),
]


@pytest.mark.parametrize("command", ["pilot", "allocate", "estimate", "sweep", "make-reference"])
@pytest.mark.parametrize("refused, words", _SCALAR_ONLY, ids=["nonlinear", "sobol", "mixed"])
def test_vector_outputs_are_refused_for_bridges_and_sobol_before_any_model_runs(
    tmp_path, capsys, monkeypatch, command, refused, words
):
    # these passed validate and failed inside the first replicate, after the
    # pilot ran, with "bridged estimation supports scalar outputs only" or
    # "Sobol evaluation requires scalar-output models", naming no key
    def no_runs(model, inputs):
        raise AssertionError(f"model {model.label!r} ran")

    monkeypatch.setattr(Model, "evaluate_batch", no_runs)
    out = tmp_path / "out"
    args = ["--set", "hierarchy=synthetic-field", "--set", "n_points=3", *refused,
            "--set", "replicates=2", "--out-dir", str(out)]
    assert main([command, *args]) == 2
    err = capsys.readouterr().err
    assert all(w in err for w in ["hierarchy='synthetic-field'", "3 outputs", words]), err
    assert not out.exists()
    # a one-point field has scalar outputs
    StudyConfig(hierarchy="synthetic-field", n_points=1, mode="nonlinear").validate()
    StudyConfig(hierarchy="synthetic-field", n_points=1, statistics=("sobol-main",)).validate()


def test_sizes_up_to_int64_and_any_seed_pass_validation():
    # a seed is taken modulo 2**64 (sampling._seed_tuple), so it has no range
    StudyConfig(seed=-(10**40), replicates=2**63 - 1, pilot_size=2**63 - 1).validate()
    # regression_train_size is read only in nonlinear mode
    StudyConfig(regression_train_size=2**63).validate()


@pytest.mark.parametrize(
    "costs, key",
    [("[1, 0.05, Infinity]", "costs"), ("[1, -0.05, 0.001]", "costs"),
     ("[1e308, 0.05, 0.001]", "budgets"),
     pytest.param(f"[{10**400}, 0.05, 0.001]", "costs", id="401-digit-integer")],
)
def test_cli_refuses_bad_costs_naming_the_key(tmp_path, capsys, costs, key):
    # these used to exit 0 with a NaN cost, name model 'f2', or fail to
    # convert NaN to an integer
    out = tmp_path / "out"
    assert main(["estimate", "--set", f"costs={costs}", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


def test_cli_refuses_a_non_integer_replicates_naming_the_key(tmp_path, capsys):
    # this ended in a TypeError traceback with exit status 1
    out = tmp_path / "out"
    assert main(["estimate", "--set", "replicates=abc", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "replicates" in err
    assert not out.exists()


def test_cli_refuses_sweep_budgets_that_share_a_directory(tmp_path, capsys, monkeypatch):
    # both budgets format as p20, so the second one's reports overwrote the
    # first one's with exit status 0
    def no_replicates(config):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(study, "_run_replicates", no_replicates)
    out = tmp_path / "sweep"
    args = ["--set", "budgets=[20.00001, 20.00002]", "--set", "replicates=2"]
    assert main(["sweep", *args, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: budgets ") and str(out / "p20") in err
    assert not out.exists()


def test_cli_names_the_set_key_of_an_integer_beyond_the_digit_limit(tmp_path, capsys):
    # json.loads refuses an integer of more than 4,300 digits; the message
    # named no key
    out = tmp_path / "out"
    assert main(["estimate", "--set", f"budgets=[{'1' * 5000}]", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --set budgets: ") and "4300" in err
    assert not out.exists()


def test_tolerance_budget_is_not_cut_by_pilot_cost(tmp_path):
    # The pilot (cost 105.1 here) is already paid when the tolerance budget
    # (about 17) is derived, so folding its cost in must not shrink that budget.
    config = _tiny_config(
        tmp_path, budgets=None, tolerance=0.1, pilot_size=100, include_pilot_cost=True
    )
    rec = run_replicate(config, "expectation", None, 0)
    alone = run_replicate(_tiny_config(tmp_path, budgets=None, tolerance=0.1, pilot_size=100),
                          "expectation", None, 0)
    assert rec["budget_abs"] == alone["budget_abs"] > 0
    assert np.array_equal(rec["m"], alone["m"])
    assert rec["pilot_cost"] > rec["budget_abs"]


@pytest.mark.parametrize(
    "statistics, tolerance",
    [(("expectation", "variance"), 1.0), (("sobol-main", "sobol-total"), 0.3)],
)
def test_tolerance_group_plan_meets_every_members_tolerance(tmp_path, statistics, tolerance):
    # The group budget starts at the largest member's tolerance budget, and
    # is scaled once when a member's predicted MSE still exceeds epsilon^2;
    # each member's record carries an equal share of it. What is left is
    # the integer rounding of the counts: rounding m[0] moves
    # sigma^2 / m[0] by at most a factor 1 + 1 / m[0].
    config = _tiny_config(tmp_path, statistics=statistics, budgets=None, tolerance=tolerance)
    for rep in range(4):
        records = [run_replicate(config, s, None, rep) for s in statistics]
        for stat, rec in zip(statistics, records):
            assert rec["predicted_mse"] <= tolerance**2 * (1.0 + 1.0 / rec["m"][0])
            alone = run_replicate(dataclasses.replace(config, statistics=(stat,)), stat, None, rep)
            assert rec["budget_abs"] * len(statistics) >= alone["budget_abs"]


def test_tolerance_mode_derives_budget(tmp_path):
    config = _tiny_config(tmp_path, budgets=None, tolerance=0.25, replicates=3)
    summary = run_study(config)
    entry = summary["statistics"]["expectation"]
    assert entry["budget_p_mean"] > 1.0
    assert entry["predicted_mse_mean"] <= 0.25**2 * 1.3


def test_component_weights_default_to_ones_and_follow_output_weights():
    def weights(stat_label, **settings):
        config = StudyConfig(**settings)
        return study._component_weights(config, config.build_hierarchy(), STATISTICS[stat_label])

    field = {"hierarchy": "synthetic-field", "n_points": 5}
    assert np.array_equal(weights("variance", **field), np.ones(5))
    assert np.array_equal(weights("sobol-main"), np.ones(3))
    got = weights("expectation", output_weights=(1, 2, 3, 4, 5), **field)
    assert np.array_equal(got, [1.0, 2.0, 3.0, 4.0, 5.0])


def test_reference_values_builtin_and_file(tmp_path):
    config = _tiny_config(tmp_path)
    h = config.build_hierarchy()
    assert reference_values(config, "expectation", h)[0] == 2.5
    ref_path = tmp_path / "ref.json"
    ref_path.write_text(json.dumps({"expectation": [1.25]}))
    config.reference_file = str(ref_path)
    assert reference_values(config, "expectation", h)[0] == 1.25
    field = StudyConfig(hierarchy="synthetic-field", n_points=4, budgets=(5.0,))
    fh = field.build_hierarchy()
    assert np.allclose(reference_values(field, "expectation", fh), 0.0)
    assert reference_values(field, "sobol-main", fh) is None


def test_reference_file_for_another_hierarchy_or_shape_is_refused(tmp_path):
    # at a quintic reference an ishigami study would read a mean of 0.451,
    # and a 3-entry mean would broadcast into 3 error components
    made = make_reference(
        _tiny_config(tmp_path, hierarchy="quintic", reference_samples=1000), tmp_path / "q.json"
    )
    assert made["_meta"]["hierarchy"] == "quintic"
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"expectation": [2.5, 2.5, 2.5], "variance": [10.8]}))
    cases = [(tmp_path / "q.json", "quintic"), (wide, "3 values")]
    for path, words in cases:
        config = _tiny_config(tmp_path, reference_file=str(path), replicates=1)
        with pytest.raises(MFMCError) as info:
            reference_values(config, "expectation", config.build_hierarchy())
        assert all(w in str(info.value) for w in ["reference_file", "'expectation'", words])
        with pytest.raises(MFMCError, match="reference_file"):
            run_study(config)
    # an entry of the right length, in a file without _meta, is a user oracle
    config = _tiny_config(tmp_path, reference_file=str(wide))
    assert reference_values(config, "variance", config.build_hierarchy()).tolist() == [10.8]


@pytest.mark.parametrize("text", ["5", '["expectation"]', "null"])
def test_reference_file_must_hold_an_object(tmp_path, capsys, text):
    # the first ended in "TypeError: argument of type 'int' is not
    # iterable", the second in an AttributeError on list.get
    ref = tmp_path / "ref.json"
    ref.write_text(text)
    out = tmp_path / "out"
    args = ["--set", f"reference_file={ref}", "--set", "replicates=1", "--out-dir", str(out)]
    assert main(["estimate", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "reference_file" in err and "JSON object" in err


@pytest.mark.parametrize("table, words", [
    ({"_meta": 5, "expectation": [2.5]}, "'_meta' must hold a JSON object"),
    ({"_meta": [], "expectation": [2.5]}, "'_meta' must hold a JSON object"),
    ({"expectation": {"a": 1}}, "'expectation' must be a list of numbers"),
    ({"expectation": ["x"]}, "'expectation' must be a list of numbers"),
], ids=["meta-int", "meta-list", "entry-object", "entry-string"])
def test_reference_file_values_are_checked(tmp_path, capsys, table, words):
    # the first two ended in "AttributeError: 'int' object has no attribute
    # 'get'" and the third in a TypeError, each with exit status 1
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps(table))
    args = ["--set", f"reference_file={ref}", "--set", "replicates=1",
            "--out-dir", str(tmp_path / "out")]
    assert main(["estimate", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(ref) in err and words in err


def test_make_reference_matches_analytic(tmp_path):
    config = _tiny_config(
        tmp_path,
        statistics=("expectation", "variance", "sobol-main"),
        reference_samples=200_000,
    )
    table = make_reference(config, tmp_path / "ref.json")
    assert table["expectation"][0] == pytest.approx(2.5, abs=0.03)
    assert table["variance"][0] == pytest.approx(10.845, abs=0.15)
    from mfmc.hierarchy import ishigami_sobol_indices, ishigami_variance

    main, _ = ishigami_sobol_indices()
    got = np.array(table["sobol-main"]) / ishigami_variance()
    assert np.allclose(got, main, atol=0.03)
    assert json.loads((tmp_path / "ref.json").read_text())["_meta"]["n_samples"] == 200_000


def test_sweep_writes_rows_and_respects_reference_requirement(tmp_path):
    config = _tiny_config(tmp_path, budgets=(10.0, 20.0), replicates=3)
    rows = replicate_sweep(config)
    assert len(rows) == 2
    sweep = (Path(config.out_dir) / "sweep.csv").read_text().splitlines()
    assert sweep[0].startswith("#")
    assert sweep[2].split(",")[0] == "budget" or sweep[2].startswith("budget")
    # per-budget artifacts in subdirectories
    assert (Path(config.out_dir) / "p10" / "summary.json").exists()

    # quintic has no closed-form Sobol indices
    unknown = StudyConfig(
        hierarchy="quintic",
        statistics=("sobol-main",),
        budgets=(5.0,),
        replicates=2,
        out_dir=str(tmp_path / "nope"),
    )
    with pytest.raises(MFMCError, match="no reference values for 'sobol-main'"):
        replicate_sweep(unknown)


def test_sweep_single_budget_degenerates_to_study_plus_csv(tmp_path):
    config = _tiny_config(tmp_path, budgets=(15.0,), replicates=2)
    rows = replicate_sweep(config)
    out = Path(config.out_dir)
    assert len(rows) == 1
    assert (out / "summary.json").exists()  # study output at top level
    assert (out / "sweep.csv").exists()


def test_pilot_then_allocate_without_reevaluation(tmp_path):
    config = _tiny_config(tmp_path, statistics=("expectation", "variance"))
    run_pilot(config)
    out = Path(config.out_dir)
    assert sorted(p.name for p in out.iterdir()) == ["pilot.json"]
    plans = run_allocate(config)
    assert (out / "allocation_expectation.json").exists()
    assert plans["expectation"].m[0] >= 1
    assert plans["variance"].m[0] >= 2


@pytest.mark.parametrize(
    "overrides",
    [
        {"statistics": ("expectation",)},
        {"statistics": ("variance",), "budgets": (200.0,), "include_pilot_cost": True},
        {
            "hierarchy": "quintic",
            "mode": "nonlinear",
            "pilot_size": 30,
            "regression_train_size": 30,
            "budgets": (200.0,),
            "include_pilot_cost": True,
        },
        {"statistics": ("expectation", "sobol-total"), "budgets": None, "tolerance": 0.3},
        {
            "statistics": ("expectation", "variance"),
            "budgets": None,
            "tolerance": 0.1,
            "pilot_size": 100,
            "include_pilot_cost": True,
        },
        {
            "statistics": ("variance", "sobol-total"),
            "costs": (1.0, 0.1, 0.002),
            "budgets": (1000.0,),
            "include_pilot_cost": True,
        },
    ],
)
def test_pilot_then_allocate_matches_replicate_zero(tmp_path, overrides):
    config = _tiny_config(tmp_path, **overrides)
    run_pilot(config)
    plans = run_allocate(config)
    budget = None if config.budgets is None else config.budgets[0]
    for stat in config.statistics:
        rec = run_replicate(config, stat, budget, 0)
        plan = plans[stat]
        assert np.array_equal(plan.m, rec["m"])
        assert np.array_equal(plan.retained, rec["retained"])
        assert plan.predicted_mse == rec["predicted_mse"]
        assert plan.budget == rec["budget_abs"]


@pytest.mark.parametrize(
    "overrides",
    [
        {"statistics": _ALL_STATISTICS, "budgets": (160.0,)},
        {"statistics": ("expectation", "variance"), "budgets": None, "tolerance": 0.5},
        {"statistics": ("variance", "expectation"), "budgets": (200.0,), "pilot_size": 30,
         "include_pilot_cost": True},
    ],
)
def test_allocate_writes_each_statistics_view_of_the_group_plan(tmp_path, overrides):
    config = _tiny_config(tmp_path, **overrides)
    run_pilot(config)
    run_allocate(config)
    budget = None if config.budgets is None else config.budgets[0]
    saved = {s: AllocationPlan.load(Path(config.out_dir) / f"allocation_{s}.json")
             for s in config.statistics}
    for stat in config.statistics:
        rec = run_replicate(config, stat, budget, 0)
        plan = saved[stat]
        assert np.array_equal(plan.m, rec["m"])
        assert np.array_equal(plan.alpha, rec["alpha"])
        assert plan.predicted_mse == rec["predicted_mse"]
        assert plan.budget == rec["budget_abs"]
    for first, second in [("expectation", "variance"), ("sobol-main", "sobol-total")]:
        if first in saved:
            assert np.array_equal(saved[first].m, saved[second].m)


def test_allocate_compares_the_values_a_run_reads(tmp_path):
    # unset costs are the default costs written out, and ishigami reads no
    # n_points, so neither makes the pilot stale
    args = [*_PILOT_ARGS, "--out-dir", str(tmp_path / "out")]
    assert main(["pilot", *args]) == 0
    key = json.loads((tmp_path / "out" / "pilot.json").read_text())["key"]
    assert key["costs"] == [1.0, 0.05, 0.001] and key["n_points"] is None
    for same in ("costs=[1, 0.05, 0.001]", "n_points=5"):
        assert main(["allocate", *args, "--set", same]) == 0


def test_cli_estimate_and_errors(tmp_path, capsys):
    out = tmp_path / "cli"
    code = main(
        [
            "estimate",
            "--set", "hierarchy=ishigami",
            "--set", 'statistics=["expectation"]',
            "--set", "budgets=[15]",
            "--set", "replicates=2",
            "--set", "pilot_size=30",
            "--seed", "5",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    assert (out / "summary.json").exists()
    assert "expectation" in capsys.readouterr().out

    code = main(["estimate", "--set", 'statistics=["kurtosis"]', "--out-dir", str(out)])
    assert code == 2
    assert "unknown statistic" in capsys.readouterr().err


def test_cli_infeasible_budget_is_nonzero_exit(tmp_path, capsys):
    code = main(
        [
            "estimate",
            "--set", "budgets=[0.2]",
            "--set", "replicates=1",
            "--set", "pilot_size=30",
            "--out-dir", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    assert "budget" in capsys.readouterr().err.lower()


def test_a_budget_the_pilot_share_uses_up_is_a_named_error(tmp_path, capsys):
    # 100 pilot rows cost 105.1 HF, more than the whole budget p = 20
    words = ["budgets", "p=20", "105.1 HF", "pilot_size=100", "include_pilot_cost"]
    config = _tiny_config(tmp_path, budgets=(20.0,), pilot_size=100, include_pilot_cost=True)
    with pytest.raises(InfeasibleBudgetError) as info:
        run_replicate(config, "expectation", 20.0, 0)
    assert all(word in str(info.value) for word in words)
    code = main(
        ["estimate", "--set", "budgets=[20]", "--set", "pilot_size=100",
         "--set", "include_pilot_cost=true", "--out-dir", str(tmp_path / "cli")]
    )
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ")
    assert all(word in err for word in words)


def test_inputs_are_drawn_no_more_than_a_row_block_at_a_time(tmp_path, monkeypatch):
    sample = Uniform.sample

    def limited(self, gen, n):
        if n > _BLOCK_ELEMENTS:
            raise MemoryError(f"no memory for {n} rows")
        return sample(self, gen, n)

    monkeypatch.setattr(Uniform, "sample", limited)
    # the plan asks for about 2.4e6 rows of the cheapest model
    config = _tiny_config(tmp_path, budgets=(1e4,))
    rec = run_replicate(config, "expectation", 1e4, 0)
    assert rec["m"].max() >= 2 * 10**6
    config = _tiny_config(tmp_path, reference_samples=2 * 10**6)
    table = make_reference(config, tmp_path / "ref.json")
    assert table["_meta"]["n_samples"] == 2 * 10**6


def test_cli_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "hierarchy": "ishigami",
                "statistics": ["expectation"],
                "budgets": [12],
                "replicates": 2,
                "pilot_size": 25,
                "out_dir": str(tmp_path / "from_file"),
            }
        )
    )
    code = main(["estimate", "--config", str(cfg), "--set", "replicates=3"])
    assert code == 0
    summary = json.loads((tmp_path / "from_file" / "summary.json").read_text())
    assert summary["config"]["replicates"] == 3


def test_cli_config_directory_is_an_error_not_a_traceback(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(tmp_path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err
    assert not out.exists()


@pytest.mark.parametrize("text", ["5", "null", '"x"', "[1, 2]"])
def test_cli_config_file_must_hold_an_object(tmp_path, capsys, text):
    # the first three ended in a TypeError traceback, the last read
    # "unknown config keys: [1, 2]"
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(cfg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cfg) in err and "JSON object" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [("pilot_budget", 60), ("budget_unit", "absolute"), ("sobol_cost_convention", "per-sample")],
)
def test_removed_config_keys_fail_loudly_and_name_themselves(tmp_path, capsys, key, value):
    # pilot_size/regression_train_size, high-fidelity-equivalent budgets and
    # the d + 2 runs charged per Sobol sample are the one way to set these
    # values
    with pytest.raises(UnknownNameError, match=key):
        StudyConfig.from_dict({key: value})
    out = str(tmp_path / "out")
    code = main(["estimate", "--set", f"{key}={json.dumps(value)}", "--out-dir", out])
    assert code == 2
    assert key in capsys.readouterr().err
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(["estimate", "--config", str(cfg), "--out-dir", out]) == 2
    assert key in capsys.readouterr().err
    assert not Path(out).exists()


def test_cli_make_reference_and_pilot(tmp_path, capsys):
    out = tmp_path / "mr"
    code = main(
        [
            "make-reference",
            "--set", "hierarchy=quintic",
            "--set", 'statistics=["expectation"]',
            "--set", "reference_samples=50000",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    assert (out / "reference.json").exists()
    code = main(
        [
            "pilot",
            "--set", 'statistics=["expectation"]',
            "--set", "pilot_size=30",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    assert (out / "pilot.json").exists()


def test_cli_pilot_prints_its_cost_and_allocate_refuses_a_file_without_it(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["--set", "pilot_size=30", "--out-dir", str(out)]
    assert main(["pilot", *args]) == 0
    assert "pilot[expectation]: N=30 cost=31.53" in capsys.readouterr().out
    path = out / "pilot.json"
    stale = json.loads(path.read_text())
    del stale["statistics"]["expectation"]["cost"]
    path.write_text(json.dumps(stale))
    assert main(["allocate", *args]) == 2
    err = capsys.readouterr().err
    assert "'cost'" in err and "pilot" in err


@pytest.mark.parametrize("text", ["[1]", "5", "null"])
def test_allocate_refuses_a_pilot_file_that_is_not_an_object(tmp_path, capsys, text):
    # "[1]" ended in "AttributeError: 'list' object has no attribute 'get'"
    # with exit status 1
    out = tmp_path / "out"
    args = ["--set", "pilot_size=30", "--out-dir", str(out)]
    assert main(["pilot", *args]) == 0
    (out / "pilot.json").write_text(text)
    assert main(["allocate", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / "pilot.json") in err and "JSON object" in err


@pytest.mark.parametrize("edit, words", [
    (lambda saved: saved.update(key=5), "entry 'key' must hold a JSON object"),
    (lambda saved: saved.pop("statistics"), "KeyError: 'statistics'"),
    (lambda saved: saved["statistics"].pop("variance"), "KeyError: 'variance'"),
    (lambda saved: saved.update(statistics=[1]), "TypeError"),
    (lambda saved: saved["statistics"].update(variance=None), "TypeError"),
], ids=["key-int", "no-statistics", "no-entry", "statistics-list", "entry-null"])
def test_allocate_refuses_a_pilot_file_with_malformed_values(tmp_path, capsys, edit, words):
    # the first ended in "AttributeError: 'int' object has no attribute
    # 'get'", the next two in "KeyError", the last two in a TypeError, each
    # with exit status 1
    out = tmp_path / "out"
    args = ["--set", "pilot_size=30", "--set", 'statistics=["expectation","variance"]',
            "--out-dir", str(out)]
    assert main(["pilot", *args]) == 0
    saved = json.loads((out / "pilot.json").read_text())
    edit(saved)
    (out / "pilot.json").write_text(json.dumps(saved))
    assert main(["allocate", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / "pilot.json") in err and words in err


_PILOT_ARGS = ["--set", "seed=5", "--set", "budgets=[200]", "--set", "include_pilot_cost=true",
               "--set", "pilot_size=30"]
_STALE = [
    ([], "pilot_size=100"),
    ([], "seed=6"),
    ([], "costs=[1, 0.1, 0.002]"),
    ([], "hierarchy=quintic"),
    ([], "mode=nonlinear"),
    (["--set", "mode=nonlinear", "--set", "regression_train_size=20"], "regression_train_size=25"),
    (["--set", "hierarchy=synthetic-field"], "n_points=5"),
    ([], 'statistics=["expectation","variance"]'),
]


@pytest.mark.parametrize("base, changed", _STALE, ids=[c.split("=")[0] for _, c in _STALE])
def test_allocate_refuses_a_pilot_from_another_config(tmp_path, capsys, base, changed):
    # each change would make replicate 0 draw or share another pilot, so a
    # plan read off the saved one would be silently stale
    args = [*_PILOT_ARGS, *base, "--out-dir", str(tmp_path / "out")]
    key = changed.split("=")[0]
    changed = ["--set", changed]
    assert main(["pilot", *args]) == 0
    assert main(["allocate", *args, *changed]) == 2
    err = capsys.readouterr().err
    assert all(word in err for word in [f"{key}=", "in the file", "in the config", "pilot.json"])
    assert main(["pilot", *args, *changed]) == 0
    assert main(["allocate", *args, *changed]) == 0


@pytest.mark.parametrize(
    "plan_stage",
    [
        {"budgets": (80.0,)},
        {"include_pilot_cost": False},
        {"budgets": None, "tolerance": 0.2},
        {"budgets": (300.0,), "output_weights": (2.0,), "replicates": 1, "jobs": 2},
        # a linear pilot fits no bridges
        {"regression_train_size": 25},
    ],
)
def test_allocate_reads_a_pilot_across_plan_stage_changes(tmp_path, plan_stage):
    pilot = _tiny_config(tmp_path, seed=5, budgets=(200.0,), include_pilot_cost=True,
                         pilot_size=30, statistics=("expectation", "variance"))
    run_pilot(pilot)
    config = dataclasses.replace(pilot, **plan_stage)
    plans = run_allocate(config)
    budget = None if config.budgets is None else config.budgets[0]
    for stat in config.statistics:
        rec = run_replicate(config, stat, budget, 0)
        assert np.array_equal(plans[stat].m, rec["m"])
        assert plans[stat].predicted_mse == rec["predicted_mse"]
        assert plans[stat].budget == rec["budget_abs"]


def test_benchmark_allocation_table_targets(tmp_path):
    """At budget 40 the averaged table lands on the known benchmark numbers."""
    config = _tiny_config(
        tmp_path,
        statistics=("expectation", "variance"),
        budgets=(40.0,),
        replicates=100,
        pilot_size=100,
        seed=2024,
    )
    summary = run_study(config)
    m1_exp = summary["statistics"]["expectation"]["m_mean"][0]
    assert 5.0 <= m1_exp <= 10.0
    alloc = (Path(config.out_dir) / "allocation_variance.csv").read_text().splitlines()
    header = alloc[0].split(",")
    f3_row = dict(zip(header, alloc[3].split(",")))
    assert abs(float(f3_row["alpha"]) - 0.93) < 0.05


def test_sweep_expectation_mse_decays_with_budget(tmp_path):
    config = _tiny_config(
        tmp_path, budgets=(40.0, 80.0, 160.0), replicates=50, pilot_size=100, seed=13
    )
    rows = replicate_sweep(config)
    mses = [row["empirical_mse"] for row in rows]
    assert mses[1] <= mses[0] * 1.1 and mses[2] <= mses[1] * 1.1


def test_replicate_csv_floats_have_full_precision(tmp_path):
    config = _tiny_config(tmp_path, replicates=1)
    run_study(config)
    rows = (Path(config.out_dir) / "replicates_expectation.csv").read_text().splitlines()
    value = rows[1].split(",")[4]
    assert float(value) == float(f"{float(value):.17g}")
    assert len(value.split(".")[-1]) > 8  # not truncated to a short format


def _field_config(**overrides):
    base = dict(hierarchy="synthetic-field", n_points=200, budgets=(700.0,), replicates=1)
    base.update(overrides)
    return StudyConfig(**base)


def _run_afresh(config, stat, budget):
    # on an empty memo, so that a traced call runs the replicate rather than
    # reading the one the warm-up call left
    study._MEMO.clear()
    return run_replicate(config, stat, budget, 0)


def _replicate_peak(stat, budget):
    config = _field_config(statistics=(stat,), budgets=(budget,))
    _run_afresh(config, stat, budget)  # warm up imports
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rec = _run_afresh(config, stat, budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = int(np.sum(rec["m"])) * 200 * 8
    assert outputs > 100e6  # what holding every model's outputs would take
    return peak


def test_streamed_expectation_replicate_memory_is_bounded():
    assert _replicate_peak("expectation", 700.0) < 16e6


def test_streamed_variance_replicate_memory_is_bounded():
    assert _replicate_peak("variance", 800.0) < 16e6


def test_reference_expectation_memory_is_bounded(tmp_path):
    n = 50_000
    config = _field_config(reference_samples=n)
    make_reference(config, tmp_path / "warm.json")  # warm up imports and caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        table = make_reference(config, tmp_path / "ref.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6  # the high-fidelity outputs alone would take 80 MB
    h = config.build_hierarchy()
    samples = draw_inputs(h, n, (config.seed, study._REFERENCE))
    outputs = h.models[0].evaluate_batch(whole_draw(samples)[0])
    assert np.array_equal(table["expectation"], np.add.reduce(outputs, axis=0) / n)


@pytest.mark.parametrize("statistics", [("variance",), ("expectation", "variance")])
def test_reference_variance_memory_is_bounded(tmp_path, monkeypatch, statistics):
    n = 50_000
    config = _field_config(reference_samples=n, statistics=statistics)
    make_reference(config, tmp_path / "warm.json")  # warm up imports and caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        table = make_reference(config, tmp_path / "ref.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6  # the high-fidelity outputs alone would take 80 MB
    h = config.build_hierarchy()
    samples = draw_inputs(h, n, (config.seed, study._REFERENCE))
    held = NestedEvaluations([h.models[0].evaluate_batch(whole_draw(samples)[0])], [n], 0.0)
    for label in statistics:
        expected = STATISTICS[label].single_level(held, 0, n)
        assert np.array_equal(table[label], expected)
    # one walk over the high-fidelity model serves every statistic
    rows = []
    evaluate_batch = Model.evaluate_batch

    def counted(model, inputs):
        rows.append(len(inputs))
        return evaluate_batch(model, inputs)

    monkeypatch.setattr(Model, "evaluate_batch", counted)
    make_reference(config, tmp_path / "counted.json")
    assert sum(rows) == n


# Bytes of one row block of scalar outputs, or of one model's outputs on
# 5-column Sobol blocks (_BLOCK_ELEMENTS float64 values either way).
_ROW_BLOCK_BYTES = 8 * _BLOCK_ELEMENTS


@pytest.mark.parametrize("statistics", [("expectation", "variance"), ("sobol-main", "sobol-total")])
def test_reference_inputs_are_drawn_a_row_block_at_a_time(tmp_path, statistics):
    config = StudyConfig(hierarchy="ishigami", statistics=statistics)
    assert config.reference_samples == 10**6
    peak = traced_peak(lambda: make_reference(config, tmp_path / "ref.json"))
    # the inputs alone would take 24 MB, or 48 MB for a Sobol block's base
    # and second sets
    assert peak < 6 * _ROW_BLOCK_BYTES


@pytest.mark.parametrize("stat", ["expectation", "sobol-total"])
def test_replicate_memory_does_not_grow_with_the_budget(tmp_path, stat):
    # the cheapest model's count grows tenfold with the budget (2.5e5 to
    # 2.5e6 rows for the expectation); its inputs are drawn, and its outputs
    # folded, a block at a time
    for budget in (1e3, 1e4):
        config = _tiny_config(tmp_path, statistics=(stat,), budgets=(budget,), pilot_size=100)
        peak = traced_peak(lambda: _run_afresh(config, stat, budget))
        assert peak < 6 * _ROW_BLOCK_BYTES


@pytest.mark.parametrize(
    "statistics", [("sobol-main",), ("sobol-total",), ("sobol-main", "sobol-total")]
)
def test_reference_sobol_memory_is_bounded(tmp_path, monkeypatch, statistics):
    n = 200_000
    config = StudyConfig(hierarchy="ishigami", statistics=statistics, reference_samples=n)
    h = config.build_hierarchy()
    table = {}
    peak = traced_peak(lambda: table.update(make_reference(config, tmp_path / "ref.json")))
    assert n * 5 * 8 > 12 * _ROW_BLOCK_BYTES  # what holding the outputs would take
    assert peak < 6 * _ROW_BLOCK_BYTES  # inputs included
    block = build_sobol_block(h, n, (config.seed, study._REFERENCE))
    held = evaluate_nested(h, block, [n, 0, 0])
    for label in statistics:
        assert np.array_equal(table[label], STATISTICS[label].single_level(held, 0, n))
    # one walk over the high-fidelity model serves both Sobol statistics
    rows = []
    evaluate_batch = Model.evaluate_batch

    def counted(model, inputs):
        rows.append(len(inputs))
        return evaluate_batch(model, inputs)

    monkeypatch.setattr(Model, "evaluate_batch", counted)
    make_reference(config, tmp_path / "counted.json")
    assert sum(rows) == 5 * n


@pytest.mark.parametrize(
    "overrides, stat",
    [
        pytest.param({}, "expectation", id="field-expectation"),
        pytest.param({}, "variance", id="field-variance"),
        pytest.param({"n_points": 1}, "expectation", id="one-point-field-expectation"),
        pytest.param({"n_points": 1}, "variance", id="one-point-field-variance"),
        *(
            pytest.param({"hierarchy": "ishigami"}, stat, id=f"ishigami-{stat}")
            for stat in ("expectation", "variance", "sobol-main", "sobol-total")
        ),
        *(
            pytest.param({"hierarchy": "quintic", "mode": "nonlinear"}, stat, id=f"bridged-{stat}")
            for stat in ("expectation", "variance")
        ),
    ],
)
def test_replicate_estimates_through_one_sum_for_plan_call(monkeypatch, overrides, stat):
    # Every statistic in every mode is estimated by one sum_for_plan call
    # for its group (the config's expectation joins a variance), and gives
    # the record that folding held (and bridged) outputs gives.
    config = _field_config(budgets=(20.0,), statistics=tuple(dict.fromkeys(("expectation", stat))),
                           **overrides)
    expected = run_replicate(config, stat, 20.0, 0)
    calls = []

    def held(hierarchy, plan, samples, statistics, bridges):
        calls.append(tuple(s.label for s in statistics))
        evals = estimators.evaluate_for_plan(hierarchy, plan, samples)
        return evals if bridges is None else estimators.apply_bridges(evals, bridges)

    monkeypatch.setattr(study, "sum_for_plan", held)
    study._MEMO.clear()
    got = run_replicate(config, stat, 20.0, 0)
    assert calls == [("expectation", "variance") if stat == "variance" else (stat,)]
    _same_record(expected, got)


class _SquareSum(NamedTuple):
    n: int
    total: np.ndarray


def _fold_square_sum(state, block, buf):
    total = np.add.reduce(np.square(block), axis=0)
    if state is None:
        return _SquareSum(len(block), total)
    return _SquareSum(state.n + len(block), state.total + total)


class _MeanSquareStatistic:
    """A statistic the package does not ship: the mean of the squared
    outputs, folded into a NamedTuple state of a row count and an array."""

    label = "mean-square"
    min_samples = 1
    needs_sobol_block = False
    fold = staticmethod(_fold_square_sum)

    def single_level(self, evals, model_index, m):
        state = evals.state(model_index, m, self.fold)
        assert state.n == m
        return state.total / m

    def pilot_contributions(self, evals, model_index, n):
        return evals.outputs[model_index][:n] ** 2


def test_a_statistic_registered_only_in_statistics_runs_a_study_and_a_reference(
    tmp_path, monkeypatch
):
    # a plugin added to STATISTICS alone failed on the rank list study.py
    # kept (a TypeError sorting a group, a KeyError picking its stream),
    # then on a finiteness check that read only the package's own state
    # types (a ValueError for an inhomogeneous shape)
    monkeypatch.setitem(STATISTICS, "mean-square", _MeanSquareStatistic())
    config = _tiny_config(tmp_path, statistics=("expectation", "mean-square"), replicates=3)
    entry = run_study(config)["statistics"]["mean-square"]
    assert entry["reference"] is None and entry["empirical_mse"] is None
    assert np.all(np.isfinite(entry["value_mean"]))
    costs = config.build_hierarchy().costs
    for rep in range(config.replicates):
        rec = run_replicate(config, "mean-square", 20.0, rep)
        mean = run_replicate(config, "expectation", 20.0, rep)
        m, kept = rec["m"], rec["retained"]
        assert np.array_equal(m, mean["m"])  # one plan for the plain-draw group
        assert m[0] >= 1 and np.all(m[~kept] == 0) and np.all(np.diff(m[kept]) >= 0)
        assert float(np.dot(costs, m)) <= 20.0 * costs[0] * (1 + 1e-12)
        assert rec["realized_cost"] == float(np.dot(costs, m)) / 2
        assert np.all(np.isfinite(rec["values"]))

    n = 3000
    ref = _tiny_config(tmp_path, statistics=("mean-square", "variance"), reference_samples=n)
    table = make_reference(ref, tmp_path / "ref.json")
    h = ref.build_hierarchy()
    samples = draw_inputs(h, n, (ref.seed, study._REFERENCE))
    y = evaluate_nested(h, samples, [n, 0, 0]).outputs[0]
    assert table["mean-square"] == pytest.approx([np.mean(y**2)], rel=1e-12)
    assert table["variance"] == pytest.approx([np.var(y, ddof=1)], rel=1e-10)
