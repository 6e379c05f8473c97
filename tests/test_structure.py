import json
import math
import os

import numpy as np
import pytest

from conftest import DATA_DIR, random_discrete, random_mixed
from dvbn import structure
from dvbn.dataset import (DiscreteDataset, MixedDataset, Variable, load_csv,
                          load_schema)
from dvbn.errors import ValidationError
from dvbn.graph import Dag
from dvbn.multivar import PolicySet
from dvbn.structure import (family_score, k2_multi_restart, k2_pass,
                            learn_dvbn, multi_restart, network_score)
from planted import planted_chain, recalled


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
    edges, _ = k2_pass(d, ["a", "b", "c"])
    g = Dag(d.cardinalities, edges)
    assert ("a", "b") in g.edges
    # every accepted parent set beats the empty one
    for x in g.nodes:
        pa = g.parents(x)
        if pa:
            assert family_score(x, pa, d) > family_score(x, [], d)


def test_k2_respects_order_and_parent_cap():
    d = tiny_discrete()
    edges, _ = k2_pass(d, ["b", "a", "c"])
    assert ("a", "b") not in edges  # a comes after b in the order
    edges2, _ = k2_pass(d, ["a", "c", "b"], max_parents=0)
    assert edges2 == []


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


def test_multi_restart_checks_the_method_on_discrete_data():
    # nothing is ever rediscretized here, so only an up-front check can refuse it
    dd = tiny_discrete()
    d = MixedDataset([Variable(x, "discrete", 2) for x in dd.columns], dd.columns)
    with pytest.raises(ValidationError, match="unknown discretization method 'nonsense'"):
        multi_restart(d, 1, 0, method="nonsense")


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


def _k2_pass_reference(d_star, order, max_parents=None, cache=None,
                       on_accept=None):
    """The greedy loop before per-family rankings: every step re-scores each
    remaining predecessor and takes the max of (score, name).  Builds the
    graph edge by edge and reads its score back through network_score."""
    g = Dag({x: d_star.cardinalities[x] for x in order})
    for i, x in enumerate(order):
        pa = []
        p_old = family_score(x, pa, d_star, cache)
        while max_parents is None or len(pa) < max_parents:
            candidates = [y for y in order[:i] if y not in pa]
            if not candidates:
                break
            scored = [(family_score(x, pa + [y], d_star, cache), y) for y in candidates]
            best_score, best_y = max(scored, key=lambda t: (t[0], t[1]))
            if best_score <= p_old:
                break
            g = g.add_edge(best_y, x)
            pa.append(best_y)
            if on_accept is None:
                p_old = best_score
            else:
                d_star = on_accept(g.edges)
                if cache is not None:
                    cache.clear()
                p_old = family_score(x, pa, d_star, cache)
    return g.edges, network_score(g, d_star, cache)


@pytest.mark.parametrize("max_parents", [None, 0, 1, 2])
def test_k2_matches_reference_loop_exactly(monkeypatch, max_parents):
    for seed in range(300):
        d = random_discrete(seed)
        order = [list(d.columns)[i] for i in
                 np.random.default_rng(seed).permutation(len(d.columns))]
        want = _k2_pass_reference(d, order, max_parents)
        for cache in (None, {}):
            assert k2_pass(d, order, max_parents, cache=cache) == want, seed
        got = k2_multi_restart(d, 4, seed=seed, max_parents=max_parents)
        with monkeypatch.context() as m:
            m.setattr(structure, "k2_pass", _k2_pass_reference)
            ref = k2_multi_restart(d, 4, seed=seed, max_parents=max_parents)
        assert got[1:] == ref[1:], seed
        assert got[0] == ref[0] and got[0].edges == ref[0].edges, seed


@pytest.mark.parametrize("max_parents", [None, 0, 1, 2])
def test_k2_pass_score_is_network_score_bit_for_bit(max_parents):
    for seed in range(300):
        d = random_discrete(seed)
        order = [list(d.columns)[i] for i in
                 np.random.default_rng(seed).permutation(len(d.columns))]
        edges, score = k2_pass(d, order, max_parents)
        g = Dag({x: d.cardinalities[x] for x in order}, edges)
        assert score.hex() == network_score(g, d).hex(), seed


def test_k2_ties_go_to_the_larger_name():
    # a and b are the same column, so x|a and x|b score exactly alike
    rng = np.random.default_rng(0)
    a = rng.integers(1, 3, 30).astype(np.int64)
    x = np.where(rng.random(30) < 0.9, a, 3 - a).astype(np.int64)
    d = DiscreteDataset({"a": a, "b": a.copy(), "x": x}, {"a": 2, "b": 2, "x": 2})
    assert family_score("x", ["a"], d) == family_score("x", ["b"], d)
    for order in (["a", "b", "x"], ["b", "a", "x"]):
        for max_parents in (None, 1):
            for k2 in (k2_pass, _k2_pass_reference):
                edges, _ = k2(d, order, max_parents)
                assert Dag(d.cardinalities, edges).parents("x") == ["b"]


def test_joint_learn_matches_reference_loop_exactly(monkeypatch):
    # random_mixed has continuous columns, so every accept rediscretizes and
    # clears the cache (the on_accept path)
    edges = 0
    for seed in range(40):
        d, _ = random_mixed(seed)
        max_parents = [None, 1, 2][seed % 3]
        order = list(d.names)[::-1]
        got = (learn_dvbn(d, order, max_parents=max_parents).to_json(),
               multi_restart(d, 3, seed=seed, max_parents=max_parents).to_json())
        with monkeypatch.context() as m:
            m.setattr(structure, "k2_pass", _k2_pass_reference)
            want = (learn_dvbn(d, order, max_parents=max_parents).to_json(),
                    multi_restart(d, 3, seed=seed, max_parents=max_parents).to_json())
        assert got == want, seed
        edges += len(json.loads(got[1])["graph"]["edges"])
    assert edges > 40


def test_joint_learning_learns_edges_on_wine():
    # K2 starts on the equal-width seed image, not on a collapse to k=1
    d = load_csv(os.path.join(DATA_DIR, "wine.csv"),
                 load_schema(os.path.join(DATA_DIR, "wine.schema.json")))
    res = multi_restart(d, 1, 0, max_parents=2)
    assert res.graph.edges
    assert any(p.k > 1 for p in res.policies.policies.values())


@pytest.mark.parametrize("seed", range(5))
def test_joint_learning_recalls_planted_chain(seed):
    res = multi_restart(planted_chain(500, seed), 1, seed, max_parents=2)
    assert recalled(res.graph.edges) == 3, res.graph.edges
    assert not any("Z" in e for e in res.graph.edges), res.graph.edges  # Z is independent
