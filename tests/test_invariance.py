"""Row order does not change the answer: the same data with its rows
permuted gives the same policies, pass counts and learned graphs."""

import os

import numpy as np
import pytest

from conftest import DATA_DIR
from dvbn.dataset import load_csv, load_schema
from dvbn.evaluation import naive_bayes_structure
from dvbn.multivar import discretize_all, equal_width_set
from dvbn.structure import k2_multi_restart, multi_restart
from planted import planted_chain


def _bundled(name):
    return load_csv(os.path.join(DATA_DIR, f"{name}.csv"),
                    load_schema(os.path.join(DATA_DIR, f"{name}.schema.json")))


def _k2_structure(d):
    """Best of 1000-restart K2 (seed 0) on the equal-width k=3 image of ``d``."""
    return k2_multi_restart(equal_width_set(d, 3).image, 1000, 0)[0]


def _permuted(d, seed):
    return d.subset_rows(np.random.default_rng(seed).permutation(d.n_rows))


@pytest.mark.parametrize("method", ["bayes", "mdl"])
@pytest.mark.parametrize("name, structure",
                         [("wine", "k2"), ("iris", "k2"), ("iris", "naive_bayes")])
def test_fixed_structure_discretization_ignores_row_order(name, structure, method):
    d = _bundled(name)
    g = _k2_structure(d) if structure == "k2" else naive_bayes_structure(d, "species")

    def run(data):
        pset = discretize_all(data, g, method=method)
        return pset.policies, pset.pass_count, pset.converged

    want = run(d)
    for seed in range(5):
        assert run(_permuted(d, seed)) == want


@pytest.mark.parametrize("method", ["bayes", "mdl"])
@pytest.mark.parametrize("name", ["iris", "planted"])
def test_joint_learning_ignores_row_order(name, method):
    d = _bundled("iris") if name == "iris" else planted_chain(500, 0)

    def run(data):
        res = multi_restart(data, 2, 0, max_parents=2, method=method)
        return res.graph.edges, res.policies.policies

    want = run(d)
    for seed in range(3):
        assert run(_permuted(d, seed)) == want
