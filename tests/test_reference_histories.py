"""Training histories against the committed reference (see tests/data/reference_histories.py)."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_path = Path(__file__).with_name("data") / "reference_histories.py"
_spec = importlib.util.spec_from_file_location("reference_histories", _path)
reference_histories = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference_histories)

REFERENCE = json.loads(reference_histories.PATH.read_text())


@pytest.mark.parametrize("name", list(reference_histories.RUNS))
def test_history_matches_reference(name):
    got = reference_histories.run(name)
    for key, expected in REFERENCE[name].items():
        np.testing.assert_allclose(got[key], expected, rtol=1e-10, atol=0, err_msg=f"{name}: {key}")
