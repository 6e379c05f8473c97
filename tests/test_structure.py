import json
import math
import os

import numpy as np
import pytest

from conftest import DATA_DIR, assert_same_image, random_discrete, random_mixed
from dvbn import structure
from dvbn.dataset import DiscreteDataset, MixedDataset, Variable, load_csv, load_schema
from dvbn.errors import ValidationError
from dvbn.graph import Dag
from dvbn.multivar import apply_policies, equal_width_set, initial_interval_count
from dvbn.structure import (family_score, k2_multi_restart, k2_pass,
                            learn_dvbn, multi_restart, network_score)
from oracles import k2_pass_reference
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
    d_star = apply_policies(d, res.policies.policies)
    assert res.score == pytest.approx(network_score(res.graph, d_star))


@pytest.mark.parametrize("method", ["bayes", "mdl"])
def test_learned_image_is_the_data_under_the_learned_policies(method):
    d = planted_chain(500, 0)
    res = multi_restart(d, 1, 0, max_parents=2, method=method)
    # Z is unlinked, so it keeps its equal-width seed in the policies and image
    assert not res.graph.markov_blanket("Z")
    seed = equal_width_set(d, initial_interval_count(d))
    assert res.policies.policies["Z"] == seed.policies["Z"]
    assert_same_image(res.policies.image, apply_policies(d, res.policies.policies))
    assert res.score == network_score(res.graph, res.policies.image)


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
    pset = res.policies
    assert (pset.policies, pset.pass_count, pset.converged) == ({}, 0, True)
    assert_same_image(pset.image, dd)


def test_multi_restart_checks_the_method_on_discrete_data():
    # nothing is ever rediscretized here, so only an up-front check can refuse it
    dd = tiny_discrete()
    d = MixedDataset([Variable(x, "discrete", 2) for x in dd.columns], dd.columns)
    with pytest.raises(ValidationError, match="unknown discretization method 'nonsense'"):
        multi_restart(d, 1, 0, method="nonsense")


def test_multi_restart_refuses_codes_outside_the_cardinality():
    d = MixedDataset([Variable("a", "discrete", 2), Variable("b", "discrete", 2)],
                     {"a": np.array([1, 2, 3, 1], dtype=np.int64),
                      "b": np.array([1, 1, 2, 2], dtype=np.int64)})
    with pytest.raises(ValidationError, match="column 'a' has values outside 1..2"):
        multi_restart(d, 1, 0)


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


@pytest.mark.parametrize("max_parents", [None, 0, 1, 2])
def test_k2_matches_reference_loop_exactly(monkeypatch, max_parents):
    for seed in range(300):
        d = random_discrete(seed)
        order = [list(d.columns)[i] for i in
                 np.random.default_rng(seed).permutation(len(d.columns))]
        want = k2_pass_reference(d, order, max_parents)
        for cache in (None, {}):
            assert k2_pass(d, order, max_parents, cache=cache) == want, seed
        got = k2_multi_restart(d, 4, seed=seed, max_parents=max_parents)
        with monkeypatch.context() as m:
            m.setattr(structure, "k2_pass", k2_pass_reference)
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


def _k2_images():
    """The equal-width k=3 images of Wine and Iris."""
    for name in ("wine", "iris"):
        d = load_csv(os.path.join(DATA_DIR, f"{name}.csv"),
                     load_schema(os.path.join(DATA_DIR, f"{name}.schema.json")))
        yield equal_width_set(d, 3).image


def _assert_rankings_are_family_scores(d, seed, sizes):
    """Rank afresh every family that K2 visits over 4 random orders: each
    ranking lists every column x could add, best first, with the score that
    family_score gives, bit for bit, and keeps that score in the cache.
    ``sizes`` records the size of each scored batch; returns whether some
    ranking scored the candidates of one cardinality in several batches."""
    names = list(d.columns)
    rng = np.random.default_rng(seed)
    visited = {}
    for _ in range(4):
        k2_pass(d, [names[i] for i in rng.permutation(len(names))], cache=visited)
    split = False
    for x, parents, _ in (key for key in visited if len(key) == 3):
        cache = {}
        start = len(sizes)
        ranking = structure._ranking(x, parents, d, cache)
        assert ranking == sorted(ranking, reverse=True)
        assert sorted(y for _, y in ranking) == sorted(set(names) - {x, *parents})
        assert sum(sizes[start:]) == len(ranking)
        split |= len(sizes) - start > len({d.cardinalities[y] for _, y in ranking})
        assert cache[(x, parents, "ranked")] is ranking
        for score, y in ranking:
            family = tuple(sorted(parents + (y,)))
            assert score.hex() == cache[(x, family)].hex() == family_score(x, family, d).hex()
    return split


@pytest.mark.parametrize("budget", [None, 1, 40])
def test_ranking_scores_are_family_scores_bit_for_bit(monkeypatch, budget):
    # a small budget splits the candidates of one cardinality into several
    # batches (of one family each at 1)
    sizes = []
    scores = structure._scores

    def recorded(codes, batch, q, r, n):
        # a batch's count table and codes fit the budget unless it holds
        # one family
        assert batch == 1 or max(batch * q * r, len(codes)) <= structure.BLOCK_ELEMENTS
        sizes.append(batch)
        return scores(codes, batch, q, r, n)
    monkeypatch.setattr(structure, "_scores", recorded)
    if budget is not None:
        monkeypatch.setattr(structure, "BLOCK_ELEMENTS", budget)
    datasets = [random_discrete(seed) for seed in range(300)] + list(_k2_images())
    split = [_assert_rankings_are_family_scores(d, seed, sizes)
             for seed, d in enumerate(datasets)]
    assert any(split) == (budget is not None)
    assert (max(sizes) == 1) == (budget == 1)


def test_k2_ties_go_to_the_larger_name():
    # a and b are the same column, so x|a and x|b score exactly alike
    rng = np.random.default_rng(0)
    a = rng.integers(1, 3, 30).astype(np.int64)
    x = np.where(rng.random(30) < 0.9, a, 3 - a).astype(np.int64)
    d = DiscreteDataset({"a": a, "b": a.copy(), "x": x}, {"a": 2, "b": 2, "x": 2})
    assert family_score("x", ["a"], d) == family_score("x", ["b"], d)
    for order in (["a", "b", "x"], ["b", "a", "x"]):
        for max_parents in (None, 1):
            for k2 in (k2_pass, k2_pass_reference):
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
            m.setattr(structure, "k2_pass", k2_pass_reference)
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
