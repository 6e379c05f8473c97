import os
import warnings

import numpy as np
import pytest

from conftest import DATA_DIR, assert_same_image, random_mixed
from dvbn import multivar
from dvbn.dataset import MixedDataset, Variable, load_csv, load_schema, sorted_view
from dvbn.discretizer import discretize_one
from dvbn.errors import ValidationError
from dvbn.evaluation import naive_bayes_structure
from dvbn.graph import Dag
from dvbn.multivar import (PolicySet, apply_policies, discretize_all,
                           equal_width_set, initial_interval_count)
from dvbn.policy import DiscretizationPolicy, equal_width
from dvbn.structure import k2_multi_restart


def test_initial_interval_count():
    d, _ = random_mixed(0)
    assert initial_interval_count(d) == 2  # largest discrete cardinality
    d2 = MixedDataset([Variable("x", "continuous")],
                      {"x": np.array([1.0, 2.0])})
    assert initial_interval_count(d2) == 5  # no discrete variables: default


def test_apply_policies():
    d, _ = random_mixed(0)
    pol = DiscretizationPolicy((float(np.median(d.columns["X"])),),
                               float(d.columns["X"].min()),
                               float(d.columns["X"].max()))
    pols = {"X": pol, "Y": DiscretizationPolicy((), 0.0, 1.0)}
    d_star = apply_policies(d, pols)
    assert d_star.cardinalities == {"A": 2, "X": 2, "Y": 1, "B": 2}
    assert set(np.unique(d_star.columns["X"])) <= {1, 2}


def test_discretize_all_converges_and_is_idempotent():
    d, g = random_mixed(1)
    order = g.reverse_topological({"X", "Y"})
    pset = discretize_all(d, g)
    assert pset.converged and pset.pass_count >= 1
    # a converged fixed point: one more single-variable pass changes nothing
    d_star = apply_policies(d, pset.policies)
    for x in order:
        again = discretize_one(d_star, g, x, sorted_view(d, x))
        assert again.edges == pset.policies[x].edges


def test_discretize_all_stops_a_cycle_at_max_passes():
    d, g = random_mixed(79)  # its bayes passes settle into a 2-cycle
    with pytest.warns(UserWarning, match=f"within MAX_PASSES={multivar.MAX_PASSES} passes"):
        pset = discretize_all(d, g)
    assert pset.pass_count == multivar.MAX_PASSES and not pset.converged


def test_discretize_all_empty_is_noop():
    d = MixedDataset([Variable("A", "discrete", 2), Variable("B", "discrete", 3)],
                     {"A": np.array([1, 2, 1]), "B": np.array([3, 1, 2])})
    g = Dag({"A": 2, "B": 3}).add_edge("A", "B")
    pset = discretize_all(d, g)
    assert (pset.policies, pset.pass_count, pset.converged) == ({}, 0, True)
    assert_same_image(pset.image, apply_policies(d, {}))


def test_policy_set_repr_and_eq_ignore_the_image():
    d, g = random_mixed(0)
    pset = discretize_all(d, g)
    other = PolicySet(pset.policies, pset.pass_count, pset.converged,
                      equal_width_set(d, 5).image)
    assert other.image.cardinalities != pset.image.cardinalities
    assert other == pset and repr(other) == repr(pset)
    assert "image" not in repr(pset)


def test_discretize_all_checks_the_method_with_nothing_to_solve():
    d = MixedDataset([Variable("A", "discrete", 2)], {"A": np.array([1, 2, 1])})
    with pytest.raises(ValidationError, match="unknown discretization method 'nonsense'"):
        discretize_all(d, Dag(["A"]), method="nonsense")


def test_children_are_solved_before_parents(monkeypatch):
    d, g = random_mixed(4)
    g2 = g.add_edge("X", "Y")
    solved = []

    def recording(d_star, g, x, col, method="bayes"):
        solved.append(x)
        return discretize_one(d_star, g, x, col, method=method)

    monkeypatch.setattr(multivar, "discretize_one", recording)
    pset = discretize_all(d, g2)
    assert solved[:2] == ["Y", "X"]  # Y is X's child: Y comes first
    assert set(pset.policies) == {"X", "Y"}


def _full_resolve_reference(d, g, cont_vars, method="bayes"):
    """The pass loop as first written: every pass re-solves every variable."""
    k0 = initial_interval_count(d)
    cols = {x: sorted_view(d, x) for x in cont_vars}
    policies = {x: equal_width(cols[x], k0) for x in cont_vars}
    d_star = apply_policies(d, policies)
    pass_count = 0
    converged = False
    while pass_count < multivar.MAX_PASSES:
        pass_count += 1
        changed = False
        for x in cont_vars:
            pol = discretize_one(d_star, g, x, cols[x], method=method)
            if pol.edges != policies[x].edges:
                changed = True
            policies[x] = pol
            d_star = d_star.replace_column(x, pol.apply_array(d.columns[x]), pol.k)
        if not changed:
            converged = True
            break
    return PolicySet(policies, pass_count, converged, d_star)


def _assert_same_run(d, g, order, method):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = discretize_all(d, g, method=method)
        ref = _full_resolve_reference(d, g, order, method=method)
    assert (got.pass_count, got.converged) == (ref.pass_count, ref.converged)
    assert {x: (p.edges, p.domain_min, p.domain_max) for x, p in got.policies.items()} \
        == {x: (p.edges, p.domain_min, p.domain_max) for x, p in ref.policies.items()}
    # the returned image is the data under the returned policies
    assert_same_image(got.image, apply_policies(d, got.policies))
    return got


@pytest.mark.parametrize("method", ["bayes", "mdl"])
def test_stale_only_passes_match_full_resolve(method):
    unconverged = []
    for seed in range(300):
        d, g = random_mixed(seed)
        order = g.reverse_topological({"X", "Y"})
        if not _assert_same_run(d, g, order, method).converged:
            unconverged.append(seed)
    if method == "bayes":
        assert 79 in unconverged  # the known 2-cycle is kept, pass for pass


@pytest.mark.parametrize("method", ["bayes", "mdl"])
def test_stale_only_passes_match_full_resolve_on_wine(method):
    d = load_csv(os.path.join(DATA_DIR, "wine.csv"),
                 load_schema(os.path.join(DATA_DIR, "wine.schema.json")))
    cont = d.continuous_names()
    g, _, _ = k2_multi_restart(equal_width_set(d, 3).image, 5, seed=0)
    assert any(p in cont and c in cont for p, c in g.edges)
    _assert_same_run(d, g, g.reverse_topological(set(cont)), method)


@pytest.mark.parametrize("method", ["bayes", "mdl"])
def test_naive_bayes_features_are_solved_once(monkeypatch, method):
    # a feature's blanket is the class alone, so no solve makes another
    # feature stale: one solving pass, then one pass that solves nothing
    d = load_csv(os.path.join(DATA_DIR, "iris.csv"),
                 load_schema(os.path.join(DATA_DIR, "iris.schema.json")))
    g = naive_bayes_structure(d, "species")
    cont = d.continuous_names()
    solved = []

    def counting(d_star, g, x, col, method="bayes"):
        solved.append(x)
        return discretize_one(d_star, g, x, col, method=method)

    monkeypatch.setattr(multivar, "discretize_one", counting)
    pset = discretize_all(d, g, method=method)
    assert sorted(solved) == sorted(cont)
    assert pset.pass_count == 2 and pset.converged


@pytest.mark.parametrize("method", ["bayes", "mdl"])
def test_discretize_all_on_edgeless_graph_gives_one_interval(method):
    # with an empty blanket the objective has only its prior; no Wine
    # variable has a gap wide enough for that prior alone to split it
    d = load_csv(os.path.join(DATA_DIR, "wine.csv"),
                 load_schema(os.path.join(DATA_DIR, "wine.schema.json")))
    pset = discretize_all(d, Dag(d.names), method=method)
    assert set(pset.policies) == set(d.continuous_names())
    assert all(p.k == 1 for p in pset.policies.values())


def _isolated_edges(values, method):
    d = MixedDataset([Variable("x", "continuous")], {"x": np.array(values, dtype=float)})
    return discretize_all(d, Dag(d.names), method=method).policies["x"].edges


def test_bayes_prior_alone_splits_an_isolated_variable_at_a_wide_gap():
    # with an empty blanket L = 2, and a split at a gap g of the range r moves
    # the prior by -ln(e^z - 1), z = 2g/r: a gain once g/r > ln 2 / 2 = 0.3466
    clusters = [0, 0.1, 0.2, 0.3, 3.0, 3.1] * 3
    assert _isolated_edges(clusters, "bayes") == (1.65,)
    assert _isolated_edges(clusters, "mdl") == ()
    for gap, want in ((0.347, (0.5,)), (0.345, ())):
        end = (1 - gap) / 2
        assert _isolated_edges([0, end, 1 - end, 1] * 3, "bayes") == want, gap
