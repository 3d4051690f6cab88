import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import traced_peak

from mfmc import estimators, study
from mfmc.cli import main
from mfmc.errors import MFMCError, UnknownNameError
from mfmc.regression import GaussianProcessBridge
from mfmc.estimators import STATISTICS
from mfmc.hierarchy import Model
from mfmc.sampling import (
    _BLOCK_ELEMENTS,
    NestedEvaluations,
    SobolSampleBlock,
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
    study._fit_bridges.cache_clear()
    config = _bridged_config(tmp_path)
    run_study(config)
    # one GP per low-fidelity model and replicate, shared by both statistics
    assert len(fits) == config.replicates * (3 - 1)


def test_bridge_memo_never_stale(tmp_path):
    variants = {
        "base": _bridged_config(tmp_path),
        "seed": _bridged_config(tmp_path, seed=8),
        "train": _bridged_config(tmp_path, regression_train_size=25),
    }
    calls = [
        ("base", "expectation", 0), ("seed", "expectation", 0), ("base", "variance", 0),
        ("train", "expectation", 0), ("train", "variance", 0), ("base", "expectation", 1),
        ("base", "variance", 0), ("seed", "variance", 1), ("seed", "expectation", 1),
    ]
    interleaved = [run_replicate(variants[v], stat, 40.0, rep) for v, stat, rep in calls]
    for (v, stat, rep), rec in zip(calls, interleaved):
        study._fit_bridges.cache_clear()
        study._pilot_evaluations.cache_clear()
        _same_record(rec, run_replicate(variants[v], stat, 40.0, rep))


_ALL_STATISTICS = ("expectation", "variance", "sobol-main", "sobol-total")


def test_pilot_draws_evaluated_once_per_replicate(tmp_path, monkeypatch):
    evaluated = []
    original = study.evaluate_nested

    def counted(hierarchy, samples, *args):
        evaluated.append(samples)
        return original(hierarchy, samples, *args)

    monkeypatch.setattr(study, "evaluate_nested", counted)
    study._pilot_evaluations.cache_clear()
    config = _tiny_config(tmp_path, statistics=_ALL_STATISTICS, budgets=(160.0,), replicates=3)
    run_study(config)
    # per replicate, one plain draw (expectation, variance) and one Sobol
    # block (sobol-main, sobol-total), not one draw per statistic
    assert len(evaluated) == 2 * config.replicates
    assert sum(isinstance(s, SobolSampleBlock) for s in evaluated) == config.replicates


def test_pilot_memo_never_stale(tmp_path):
    variants = {
        "base": _tiny_config(tmp_path, statistics=_ALL_STATISTICS, budgets=(160.0,)),
        "costs": _tiny_config(
            tmp_path, statistics=_ALL_STATISTICS, budgets=(160.0,), costs=(1.0, 0.1, 0.002)
        ),
        "pilot": _tiny_config(tmp_path, statistics=_ALL_STATISTICS, budgets=(160.0,), pilot_size=30),
    }
    calls = [
        (v, stat, rep)
        for rep in (0, 1)
        for stat in ("expectation", "sobol-main", "variance", "sobol-total")
        for v in variants
    ]
    interleaved = [run_replicate(variants[v], stat, 160.0, rep) for v, stat, rep in calls]
    for (v, stat, rep), rec in zip(calls, interleaved):
        study._pilot_evaluations.cache_clear()
        _same_record(rec, run_replicate(variants[v], stat, 160.0, rep))


@pytest.mark.parametrize("jobs", [1, 2])
def test_multi_statistic_study_matches_single_statistic_studies(tmp_path, jobs):
    joint = run_study(_bridged_config(tmp_path, jobs=jobs), out_dir=tmp_path / "joint")
    for stat in ("expectation", "variance"):
        out = tmp_path / stat
        single = run_study(_bridged_config(tmp_path, statistics=(stat,)), out_dir=out)
        for name in (f"replicates_{stat}.csv", f"allocation_{stat}.csv"):
            assert (out / name).read_bytes() == (tmp_path / "joint" / name).read_bytes()
        assert single["statistics"][stat] == joint["statistics"][stat]


def test_cost_ledger_consistency(tmp_path):
    config = _tiny_config(tmp_path)
    summary = run_study(config)
    out = Path(config.out_dir)
    rows = (out / "replicates_expectation.csv").read_text().strip().splitlines()[1:]
    costs = [float(r.split(",")[-1]) for r in rows]
    entry = summary["statistics"]["expectation"]
    assert entry["realized_cost_total"] == pytest.approx(sum(costs), rel=1e-9)
    assert entry["total_cost"] == pytest.approx(entry["realized_cost_total"], rel=1e-9)


def test_cost_ledger_with_pilot_fold_in(tmp_path):
    config = _tiny_config(tmp_path, include_pilot_cost=True, budgets=(60.0,))
    summary = run_study(config)
    entry = summary["statistics"]["expectation"]
    assert entry["total_cost"] == pytest.approx(
        entry["realized_cost_total"] + entry["pilot_cost_total"], rel=1e-9
    )
    # folding the pilot in shrinks the estimation budget
    assert entry["budget_p_mean"] < 60.0


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
    ],
)
def test_validate_rejects_values_that_used_to_fail_inside_a_replicate(overrides, error, key):
    with pytest.raises(error, match=key):
        StudyConfig(**overrides).validate()


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

    field = StudyConfig(
        hierarchy="synthetic-field",
        n_points=3,
        statistics=("sobol-main",),
        budgets=(5.0,),
        replicates=2,
        out_dir=str(tmp_path / "nope"),
    )
    with pytest.raises(MFMCError):
        replicate_sweep(field)


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
    assert (out / "pilot_expectation.json").exists()
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
    assert (out / "pilot_expectation.json").exists()


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


def _replicate_peak(stat, budget):
    config = _field_config(budgets=(budget,))
    run_replicate(config, stat, budget, 0)  # warm up imports and caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rec = run_replicate(config, stat, budget, 0)
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
    outputs = h.models[0].evaluate_batch(samples.inputs)
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
    held = NestedEvaluations([h.models[0].evaluate_batch(samples.inputs)], [n], 0.0)
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


def test_reference_sobol_inputs_are_held_twice_not_d_plus_two_times(tmp_path):
    n = 200_000
    config = StudyConfig(hierarchy="ishigami", statistics=("sobol-main",), reference_samples=n)
    peak = traced_peak(lambda: make_reference(config, tmp_path / "ref.json"))
    # the base and second sets take 2 x 4.8 MB; holding the d = 3 mixed sets
    # as well would add 14.4 MB
    assert peak < 16e6


@pytest.mark.parametrize(
    "statistics", [("sobol-main",), ("sobol-total",), ("sobol-main", "sobol-total")]
)
def test_reference_sobol_memory_is_bounded(tmp_path, monkeypatch, statistics):
    n = 200_000
    config = StudyConfig(hierarchy="ishigami", statistics=statistics, reference_samples=n)
    h = config.build_hierarchy()
    drawn = traced_peak(lambda: build_sobol_block(h, n, (config.seed, study._REFERENCE)))
    table = {}
    peak = traced_peak(lambda: table.update(make_reference(config, tmp_path / "ref.json")))
    row_block = 8 * _BLOCK_ELEMENTS
    assert n * 5 * 8 > 12 * row_block  # what holding the outputs would take
    assert peak - drawn < 6 * row_block  # beyond the drawn Sobol block
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
    # Every statistic in every mode is estimated by one sum_for_plan call,
    # and gives the record that folding held (and bridged) outputs gives.
    config = _field_config(budgets=(20.0,), **overrides)
    expected = run_replicate(config, stat, 20.0, 0)
    calls = []

    def held(hierarchy, plan, samples, statistic, cost_factor, bridges):
        calls.append(statistic.label)
        evals = estimators.evaluate_for_plan(hierarchy, plan, samples, cost_factor)
        return evals if bridges is None else estimators.apply_bridges(evals, bridges)

    monkeypatch.setattr(study, "sum_for_plan", held)
    got = run_replicate(config, stat, 20.0, 0)
    assert calls == [stat]
    _same_record(expected, got)
