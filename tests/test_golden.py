"""Study outputs against the committed golden table (tests/data/golden.json).

``scripts/make_golden.py`` records the table; a change that moves an entry
on purpose regenerates it and says which entries changed and why. The
digests are compared only on the numpy version that recorded them, since
another version may round a transcendental function differently; the
sample counts and values are compared everywhere.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "data" / "golden.json").read_text())


def _script():
    spec = importlib.util.spec_from_file_location("make_golden", ROOT / "scripts" / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def studies():
    script = _script()
    assert set(script.CONFIGS) == set(GOLDEN["studies"])
    return {name: script.record(name) for name in script.CONFIGS}


def test_golden_digests(studies):
    differ = [name for name, entry in studies.items()
              if entry["files"] != GOLDEN["studies"][name]["files"]]
    if np.__version__ != GOLDEN["numpy"]:
        # the reason says whether this numpy reproduces the recorded bits
        pytest.skip(f"digests were recorded on numpy {GOLDEN['numpy']}, this is numpy "
                    f"{np.__version__}; {len(differ)} of {len(studies)} studies differ "
                    f"({', '.join(differ) or 'none'}); test_golden_values still runs")
    for name in differ:
        assert studies[name]["files"] == GOLDEN["studies"][name]["files"], name


def test_golden_values(studies):
    for name, entry in studies.items():
        assert entry["config"] == GOLDEN["studies"][name]["config"], name
        golden = GOLDEN["studies"][name]["replicates"]
        assert entry["replicates"].keys() == golden.keys(), name
        for stat, records in entry["replicates"].items():
            assert len(records) == len(golden[stat]), (name, stat)
            for rep, (got, want) in enumerate(zip(records, golden[stat])):
                where = f"{name}, {stat}, replicate {rep}"
                assert got["m"] == want["m"], where
                np.testing.assert_allclose(got["values"], want["values"], rtol=1e-12, atol=0,
                                           err_msg=where)
