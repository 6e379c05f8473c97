import json
import math
import os
from bisect import bisect

import numpy as np
import pytest

from conftest import DATA_DIR, assert_same_image, random_discrete, random_mixed
from dvbn import counts, multivar, structure
from dvbn.dataset import DiscreteDataset, MixedDataset, Variable, load_csv, load_schema
from dvbn.errors import ValidationError
from dvbn.graph import Dag
from dvbn.multivar import apply_policies, equal_width_set, initial_interval_count
from dvbn.structure import (family_score, k2_multi_restart, k2_pass,
                            learn_dvbn, multi_restart, network_score)
from oracles import (exact_structure, k2_multi_restart_reference, k2_pass_reference,
                     learn_dvbn_reference)
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


def _assert_same_restarts(got, want, label):
    """Two ``(graph, score, restart)`` results: the same edges in insertion
    order, the same score bits and the same restart."""
    assert got[0] == want[0] and got[0].edges == want[0].edges, label
    assert got[1].hex() == want[1].hex() and got[2] == want[2], label


@pytest.mark.parametrize("max_parents", [None, 0, 1, 2])
def test_k2_matches_reference_loop_exactly(max_parents):
    for seed in range(300):
        d = random_discrete(seed)
        order = [list(d.columns)[i] for i in
                 np.random.default_rng(seed).permutation(len(d.columns))]
        want = k2_pass_reference(d, order, max_parents)
        assert k2_pass(d, order, max_parents) == want, seed
        _assert_same_restarts(k2_multi_restart(d, 4, seed=seed, max_parents=max_parents),
                              k2_multi_restart_reference(d, 4, seed, max_parents), seed)


def _assert_every_restart_scores_as_the_reference(d, n_restarts, seed, max_parents=None):
    """The walk over all the restarts' orders gives each order the score
    that k2_pass_reference gives it, bit for bit: the earliest of tied
    maxima reads every score's bits."""
    names = list(d.columns)
    orders = structure._random_orders(len(names), n_restarts, seed)
    _, scores = structure._k2_walk(d, orders, max_parents, {})
    cache = {}
    for r, (order, score) in enumerate(zip(orders, scores.tolist())):
        _, want = k2_pass_reference(d, [names[i] for i in order], max_parents, cache)
        assert score.hex() == want.hex(), (seed, r)


@pytest.mark.parametrize("max_parents", [None, 0, 1, 2])
def test_every_restart_scores_as_the_reference_loop(max_parents):
    for seed in range(300):
        _assert_every_restart_scores_as_the_reference(random_discrete(seed), 4, seed,
                                                      max_parents)


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


def test_k2_never_scores_above_the_exact_structure():
    # K2's restarts search a subset of the DAGs that the exact program does;
    # on Wine the exact optimum is -1833.74 against -1836.46 for K2
    beaten = 0
    for i, d in enumerate([*_k2_images(), *map(random_discrete, range(60))]):
        g, best = exact_structure(d, max_parents=2)
        exact = network_score(g, d)
        assert all(len(g.parents(x)) <= 2 for x in g.nodes)
        assert exact == pytest.approx(best, rel=1e-12), i
        k2 = network_score(k2_multi_restart(d, 1000, seed=i, max_parents=2)[0], d)
        assert k2 <= exact + 1e-12 * abs(exact), i
        beaten += k2 < exact - 1e-9 * abs(exact)
        if i == 0:
            assert (round(exact, 2), round(k2, 2)) == (-1833.74, -1836.46)
    # the greedy search misses the optimum on some of them
    assert beaten > 0


def _with_constant_columns(seed):
    """random_discrete with cardinality-1 columns, as the joint path makes
    them, sorted first and last among the names."""
    d = random_discrete(seed)
    ones = np.ones(d.n_rows, dtype=np.int64)
    return DiscreteDataset({"V0": ones, **d.columns, "Vz": ones.copy()},
                           {"V0": 1, **d.cardinalities, "Vz": 1})


def _wide_discrete(seed, n=120):
    """Ten columns: five random bits, their 32-valued code and a noisy copy
    of it, and exact copies of three bits.  K2 gives the code five parents or
    more, so a candidate lands at every place among them."""
    rng = np.random.default_rng(seed)
    bits = [rng.integers(1, 3, n) for _ in range(5)]
    code = sum((b - 1) << i for i, b in enumerate(bits)) + 1
    noisy = np.where(rng.random(n) < 0.1, rng.integers(1, 33, n), code)
    names = ["V" + c for c in rng.permutation(list("abcdefghij"))]
    cols = [*bits, code, noisy, *bits[:3]]
    cards = [2] * 5 + [32, 32] + [2] * 3
    return DiscreteDataset({v: c.astype(np.int64) for v, c in zip(names, cols)},
                           dict(zip(names, cards)))


def _ranking_datasets():
    yield from (random_discrete(seed) for seed in range(300))
    yield from _k2_images()
    yield from (_with_constant_columns(seed) for seed in range(60))
    yield from (_wide_discrete(seed) for seed in range(10))


def _stored_rankings(d, seed):
    """The rankings that K2 stores over 4 random orders, by family."""
    rng = np.random.default_rng(seed)
    visited = {}
    for _ in range(4):
        structure._k2_walk(d, rng.permutation(len(d.columns))[None], None, visited)
    # beside the rankings, K2 keeps only the parentless scores it reads
    assert all(len(key) == 3 or key[1] == () for key in visited)
    return {key[:2]: visited[key] for key in visited if len(key) == 3}


def _assert_rankings_are_family_scores(d, seed, sizes):
    """Every ranking that K2 stores over 4 random orders lists every column x
    could add, best first, with the score that family_score gives, bit for
    bit.  Ranking each family afresh records the size of each scored batch
    in ``sizes``; returns whether some ranking scored the candidates of one
    cardinality in several batches."""
    names = list(d.columns)
    split = False
    for (x, parents), ranking in _stored_rankings(d, seed).items():
        assert ranking == sorted(ranking, reverse=True)
        assert sorted(y for _, y in ranking) == sorted(set(names) - {x, *parents})
        start = len(sizes)
        assert structure._ranking(x, parents, d) == ranking
        assert sum(sizes[start:]) == len(ranking)
        split |= len(sizes) - start > len({d.cardinalities[y] for _, y in ranking})
        for score, y in ranking:
            family = tuple(sorted(parents + (y,)))
            assert score.hex() == family_score(x, family, d).hex()
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
    split = [_assert_rankings_are_family_scores(d, seed, sizes)
             for seed, d in enumerate(_ranking_datasets())]
    # the wide data need several batches even at the default budget
    assert any(split[:-10]) == (budget is not None) and any(split[-10:])
    assert (max(sizes) == 1) == (budget == 1)


def test_ranking_data_cover_constant_columns_and_every_place():
    # the data of the bit-for-bit check rank a cardinality-1 x and
    # cardinality-1 candidates, and put a candidate at each of the six places
    # among five parents
    places, constant_x, constant_y = set(), False, False
    for seed, d in enumerate(_ranking_datasets()):
        for (x, parents), ranking in _stored_rankings(d, seed).items():
            constant_x |= d.cardinalities[x] == 1
            constant_y |= any(d.cardinalities[y] == 1 for _, y in ranking)
            places |= {(len(parents), bisect(parents, y)) for _, y in ranking}
    assert constant_x and constant_y
    assert {(5, i) for i in range(6)} <= places
    assert max(size for size, _ in places) >= 6


def test_every_restart_scores_as_the_reference_loop_on_constant_wide_and_wine_data():
    for seed in range(60):
        _assert_every_restart_scores_as_the_reference(_with_constant_columns(seed), 4, seed)
    for seed in range(10):
        _assert_every_restart_scores_as_the_reference(_wide_discrete(seed), 4, seed)
    _assert_every_restart_scores_as_the_reference(next(_k2_images()), 1000, 0)


@pytest.mark.parametrize("seed", [0, 1])
def test_k2_restarts_on_the_bundled_images_match_the_reference_loop(seed):
    for d in _k2_images():
        _assert_same_restarts(k2_multi_restart(d, 50, seed),
                              k2_multi_restart_reference(d, 50, seed), seed)


def test_restart_orders_are_successive_permutations(monkeypatch):
    # one permuted call draws the rows of successive rng.permutation calls
    for n in (1, 2, 5, 14, 30):
        for n_restarts in (1, 7, 2000):
            for seed in range(10):
                rng = np.random.default_rng(seed)
                want = [rng.permutation(n) for _ in range(n_restarts)]
                got = structure._random_orders(n, n_restarts, seed)
                assert got.shape == (n_restarts, n)
                assert (got == want).all(), (n, n_restarts, seed)
    for bad in (0, -1):
        with pytest.raises(ValidationError, match="n_restarts must be >= 1"):
            structure._random_orders(5, bad, 0)
    # the joint learner's restarts take the same orders
    d, _ = random_mixed(3)
    seen = []
    learn = structure.learn_dvbn

    def recorded(d, order, **kwargs):
        seen.append(order)
        return learn(d, order, **kwargs)
    monkeypatch.setattr(structure, "learn_dvbn", recorded)
    multi_restart(d, 5, seed=4)
    rng = np.random.default_rng(4)
    assert seen == [[d.names[i] for i in rng.permutation(len(d.names))]
                    for _ in range(5)]
    with pytest.raises(ValidationError, match="n_restarts must be >= 1"):
        multi_restart(d, 0, seed=4)


def test_each_ranking_takes_one_encoder_pass(monkeypatch):
    # the encoder runs once per K2 cache entry: once for each stored ranking
    # and once for each parentless score, and never for a cache hit
    calls, ranked, caches = [], [], []
    encode, rank, score = counts.prefix_codes, structure._ranking, structure.family_score

    def counted(*args):
        calls.append(len(args[0]))
        return encode(*args)

    def recorded_ranking(x, parents, d_star):
        ranked.append((x, parents))
        return rank(x, parents, d_star)

    def recorded_score(x, parents, d_star, cache=None):
        caches.append(cache)
        return score(x, parents, d_star, cache)
    for module in (counts, structure):
        monkeypatch.setattr(module, "prefix_codes", counted)
    monkeypatch.setattr(structure, "_ranking", recorded_ranking)
    monkeypatch.setattr(structure, "family_score", recorded_score)
    wine = next(_k2_images())
    k2_multi_restart(wine, 1000, 0)
    cache, = {id(c): c for c in caches}.values()
    rankings = [key for key in cache if len(key) == 3]
    assert len(rankings) > 500
    # each ranking is built once, and the cache holds every one built
    assert sorted(ranked) == sorted(set(ranked)) == sorted(key[:2] for key in rankings)
    assert len(calls) == len(cache) == len(rankings) + len(wine.columns)
    # each ranking's pass encodes x and its parents together
    assert sorted(calls) == sorted([1] * len(wine.columns)
                                   + [1 + len(parents) for _, parents, _ in rankings])


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


def _joint_run(monkeypatch, learn, d, order, **kwargs):
    """``learn(d, order, **kwargs)``'s JSON, the image of each
    rediscretization it runs, and the ``(x, parents)`` of each ranking it
    builds."""
    images, ranked = [], []
    discretize, rank = multivar.discretize_all, structure._ranking

    def recorded_fit(*args, **kw):
        fit = discretize(*args, **kw)
        images.append(fit.image)
        return fit

    def recorded_ranking(x, parents, d_star):
        ranked.append((x, parents))
        return rank(x, parents, d_star)
    with monkeypatch.context() as m:
        for module in (multivar, structure):
            m.setattr(module, "discretize_all", recorded_fit)
        m.setattr(structure, "_ranking", recorded_ranking)
        got = learn(d, order, **kwargs).to_json()
    return got, images, ranked


def _joint_cases():
    """``(d, order, max_parents, method)``: random_mixed seeds in two orders,
    every max_parents with both methods, and the planted chain."""
    for seed in range(40):
        d, _ = random_mixed(seed)
        for order in (list(d.names), list(d.names)[::-1]):
            yield d, order, [None, 1, 2][seed % 3], ("bayes", "mdl")[seed % 2]
    for seed in range(3):
        d = planted_chain(250, seed)
        for method in ("bayes", "mdl"):
            yield d, list(d.names), 2, method


def test_joint_learn_matches_reference_loop_exactly(monkeypatch):
    # random_mixed and the chain have continuous columns, so every accept
    # rediscretizes and rescores on the new image
    accepts = 0
    for case, (d, order, max_parents, method) in enumerate(_joint_cases()):
        kwargs = {"max_parents": max_parents, "method": method}
        got, images, ranked = _joint_run(monkeypatch, learn_dvbn, d, order, **kwargs)
        want, want_images, _ = _joint_run(monkeypatch, learn_dvbn_reference, d, order,
                                          **kwargs)
        assert got == want, case
        # one rediscretization per accepted edge, each on the reference's image
        assert len(images) == len(want_images) == len(json.loads(got)["graph"]["edges"])
        for image, want_image in zip(images, want_images):
            assert_same_image(image, want_image)
        # no (x, parents) state is ranked twice within one learn, and the
        # first node, with no predecessor to add, is never ranked
        assert len(ranked) == len(set(ranked)), case
        assert order[0] not in {x for x, _ in ranked}, case
        accepts += len(images)
    assert accepts > 150
    # the restarts pick the same learn
    for seed in range(10):
        d, _ = random_mixed(seed)
        got = multi_restart(d, 3, seed=seed, max_parents=2).to_json()
        with monkeypatch.context() as m:
            m.setattr(structure, "learn_dvbn", learn_dvbn_reference)
            want = multi_restart(d, 3, seed=seed, max_parents=2).to_json()
        assert got == want, seed


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
