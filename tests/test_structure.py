import math

import numpy as np
import pytest

from conftest import random_mixed
from dvbn.dataset import DiscreteDataset, MixedDataset, Variable
from dvbn.errors import ValidationError
from dvbn.graph import Dag
from dvbn.multivar import PolicySet
from dvbn.structure import (family_score, k2_multi_restart, k2_pass,
                            learn_dvbn, multi_restart, network_score)


def tiny_discrete(seed=0, n=40):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 3, n).astype(np.int64)
    b = np.where(rng.random(n) < 0.9, a, 3 - a).astype(np.int64)  # b tracks a
    c = rng.integers(1, 3, n).astype(np.int64)
    return DiscreteDataset({"a": a, "b": b, "c": c}, {"a": 2, "b": 2, "c": 2})


def test_family_score_manual():
    # two binary rows [1, 2]: score = ln Γ(2) - ln Γ(2+2) + 2 ln Γ(2)
    d = DiscreteDataset({"a": np.array([1, 2], dtype=np.int64)}, {"a": 2})
    got = family_score("a", [], d)
    expected = math.lgamma(2) - math.lgamma(4) + 2 * math.lgamma(2)
    assert got == pytest.approx(expected)


def test_family_score_cache_hit():
    d = tiny_discrete()
    cache = {}
    v1 = family_score("b", ["a"], d, cache)
    assert ("b", ("a",)) in cache
    assert family_score("b", ["a"], d, cache) == v1


def test_k2_finds_strong_dependency():
    d = tiny_discrete()
    g = k2_pass(d, ["a", "b", "c"])
    assert ("a", "b") in g.edges
    # every accepted parent set beats the empty one
    for x in g.nodes:
        pa = g.parents(x)
        if pa:
            assert family_score(x, pa, d) > family_score(x, [], d)


def test_k2_respects_order_and_parent_cap():
    d = tiny_discrete()
    g = k2_pass(d, ["b", "a", "c"])
    assert ("a", "b") not in g.edges  # a comes after b in the order
    g2 = k2_pass(d, ["a", "c", "b"], max_parents=0)
    assert g2.edges == []


def test_network_score_decomposes():
    d = tiny_discrete()
    g = Dag({"a": 2, "b": 2, "c": 2}).add_edge("a", "b")
    total = network_score(g, d)
    parts = sum(family_score(x, g.parents(x), d) for x in g.nodes)
    assert total == pytest.approx(parts)


def test_k2_multi_restart_deterministic():
    d = tiny_discrete()
    r1 = k2_multi_restart(d, 20, seed=7)
    r2 = k2_multi_restart(d, 20, seed=7)
    assert r1[0] == r2[0] and r1[1] == r2[1] and r1[2] == r2[2]
    with pytest.raises(ValidationError):
        k2_multi_restart(d, 0, seed=7)


def test_learn_dvbn_runs_and_scores():
    d, _ = random_mixed(5)
    res = learn_dvbn(d, order=list(d.names))
    assert set(res.policies.policies) == {"X", "Y"}
    # the reported score is the network score of the returned model
    from dvbn.multivar import apply_policies
    d_star = apply_policies(d, res.policies.policies)
    assert res.score == pytest.approx(network_score(res.graph, d_star))


def test_learn_dvbn_order_validation():
    d, _ = random_mixed(6)
    with pytest.raises(ValidationError):
        learn_dvbn(d, order=["X", "Y"])  # not all variables


def test_multi_restart_on_discrete_data_is_plain_k2():
    # no continuous variable: nothing to rediscretize, so the joint learner
    # must pick what plain K2 restarts pick
    dd = tiny_discrete(seed=3, n=60)
    d = MixedDataset([Variable(x, "discrete", 2) for x in dd.columns], dd.columns)
    res = multi_restart(d, 6, seed=2)
    g, score, restart = k2_multi_restart(dd, 6, seed=2)
    assert res.graph.edges
    assert sorted(res.graph.edges) == sorted(g.edges)
    assert (res.score, res.restart_seed) == (score, restart)
    assert res.policies == PolicySet({}, 0, True)


def test_multi_restart_deterministic_and_best():
    d, _ = random_mixed(7)
    r1 = multi_restart(d, 3, seed=1)
    r2 = multi_restart(d, 3, seed=1)
    assert r1.score == r2.score
    assert sorted(r1.graph.edges) == sorted(r2.graph.edges)
    # result JSON is well formed
    import json
    doc = json.loads(r1.to_json())
    assert {"score", "graph", "policies"} <= set(doc)
