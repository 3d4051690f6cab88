"""The example scripts under scripts/ run end to end at tiny sizes."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "name, args",
    [
        ("run_ishigami_study", ["--replicates", "2"]),
        ("run_quintic_study", ["--replicates", "2"]),
        ("run_pilot_sensitivity", ["--replicates", "5", "--mse-replicates", "5"]),
    ],
)
def test_example_script_runs(name, args, tmp_path, monkeypatch, capsys):
    # the scripts put src/ on sys.path and parse sys.argv
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    monkeypatch.chdir(tmp_path)
    if name != "run_pilot_sensitivity":
        sys.argv += ["--out-dir", str(tmp_path / "out")]
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out.strip()
    if name != "run_pilot_sensitivity":
        assert list((tmp_path / "out").rglob("summary.json"))
