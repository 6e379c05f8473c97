"""The summary of ``scripts/bench.py``, on hand-made run results (no
benchmark run)."""

import importlib.util
import os

import pytest

from conftest import DATA_DIR


def _bench():
    """``scripts/bench.py``, imported as a module."""
    path = os.path.join(DATA_DIR, "..", "scripts", "bench.py")
    spec = importlib.util.spec_from_file_location("bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _metrics(k2_s, nll):
    return {"k2_s": {"value": k2_s, "unit": "s"},
            "nll_bayes": {"value": nll, "unit": "nats/row"}}


def test_summary_gives_min_quartiles_and_median_in_run_order():
    runs = [_metrics(t, -3.5) for t in (0.5, 0.1, 0.4, 0.2, 0.3)]
    got = _bench().summarize(runs)
    assert set(got) == {"k2_s", "nll_bayes"}
    k2 = got["k2_s"]
    assert k2["unit"] == "s" and k2["values"] == [0.5, 0.1, 0.4, 0.2, 0.3]
    assert k2["min"] == 0.1 and k2["median"] == 0.3
    assert k2["q1"] == pytest.approx(0.2) and k2["q3"] == pytest.approx(0.4)
    assert got["nll_bayes"] == {"unit": "nats/row", "values": [-3.5] * 5, "min": -3.5,
                                "q1": -3.5, "median": -3.5, "q3": -3.5}


def test_summary_of_one_run_is_that_run():
    got = _bench().summarize([_metrics(0.25, -3.0)])
    assert got["k2_s"] == {"unit": "s", "values": [0.25], "min": 0.25,
                           "q1": 0.25, "median": 0.25, "q3": 0.25}
    # an even count takes the mean of the middle pair
    assert _bench().summarize([_metrics(t, 0.0) for t in (1.0, 2.0)])["k2_s"]["median"] == 1.5
