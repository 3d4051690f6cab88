import json
from pathlib import Path

import numpy as np
import pytest

from mfmc.cli import main
from mfmc.errors import MFMCError, UnknownNameError
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


def test_tolerance_mode_derives_budget(tmp_path):
    config = _tiny_config(tmp_path, budgets=None, tolerance=0.25, replicates=3)
    summary = run_study(config)
    entry = summary["statistics"]["expectation"]
    assert entry["budget_p_mean"] > 1.0
    assert entry["predicted_mse_mean"] <= 0.25**2 * 1.3


def test_pilot_budget_splits_evenly(tmp_path):
    config = _tiny_config(tmp_path, pilot_budget=80)
    assert config.pilot_size == 40 and config.regression_train_size == 40


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
            "pilot_budget": 60,
            "budgets": (200.0,),
            "include_pilot_cost": True,
        },
        {"statistics": ("expectation", "sobol-total"), "budgets": None, "tolerance": 0.3},
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
