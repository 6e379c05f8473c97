"""Each check accepts the program's real output and rejects a wrong one."""

import numpy as np
import pytest

import checks
import dvbn
import layers
import oracle
import synth
import workloads
from dvbn.discretizer import mdl_objective


@pytest.fixture(scope="module")
def blanket():
    """A 300-row synthetic blanket, its solves and the oracle's view of it."""
    n = 300
    x, disc = synth.blanket_sample(n, seed=1)
    g = dvbn.Dag({"X": None, **{k: synth.LEVELS for k in disc}})
    for p, c in synth.EDGES:
        g = g.add_edge(p, c)
    d = dvbn.MixedDataset([dvbn.Variable("X", "continuous")]
                          + [dvbn.Variable(k, "discrete", 3) for k in disc],
                          {"X": x, **disc})
    d_star = dvbn.DiscreteDataset({**disc, "X": np.ones(n, dtype=np.int64)},
                                  {**{k: 3 for k in disc}, "X": 1})
    col = dvbn.sorted_view(d, "X")
    cols = {k: v.tolist() for k, v in disc.items()}
    parents = [(cols[p], 3) for p in synth.PARENTS]
    children = [(cols[c], 3, [(cols[s], 3)]) for c, s in zip(synth.CHILDREN, synth.SPOUSES)]
    pols = {m: dvbn.discretize_one(d_star, g, "X", col, method=m) for m in ("bayes", "mdl")}
    return dict(x=x.tolist(), parents=parents, children=children, pols=pols,
                d_star=d_star, g=g, col=col)


@pytest.fixture(scope="module")
def iris():
    return workloads._load("iris")


def _next_midpoint(x, e):
    uniq = sorted(set(x))
    i = next(i for i, (a, b) in enumerate(zip(uniq, uniq[1:])) if (a + b) / 2 == e)
    return (uniq[i + 1] + uniq[i + 2]) / 2


def test_oracle_objectives_match_package(blanket):
    ctx = dvbn.counts.build_context(blanket["d_star"], blanket["g"], "X", blanket["col"])
    for method, pol in blanket["pols"].items():
        if method == "bayes":
            want = dvbn.objective(blanket["col"], ctx, pol)
            got = oracle.bayes_objective(blanket["x"], blanket["parents"],
                                         blanket["children"], list(pol.edges), ctx.L)
        else:
            want = mdl_objective(pol, blanket["col"], ctx)
            got = oracle.mdl_objective(blanket["x"], blanket["parents"],
                                       blanket["children"], list(pol.edges))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("method", ["bayes", "mdl"])
def test_solve_check(blanket, method):
    edges = list(blanket["pols"][method].edges)
    args = (blanket["x"], blanket["parents"], blanket["children"])
    assert checks.check_solve(*args, edges, method, L=3) == []
    shifted = edges[:-1] + [_next_midpoint(blanket["x"], edges[-1])]
    assert checks.check_solve(*args, shifted, method, L=3)
    assert checks.check_solve(*args, [], method, L=3)
    off_midpoint = edges[:-1] + [edges[-1] + 1e-7]
    assert checks.check_solve(*args, off_midpoint, method, L=3)


def test_k2_check(iris):
    image = workloads._equal_width_image(iris, 3)
    g, score, _ = dvbn.k2_multi_restart(image, 20, seed=0)
    cols, cards = workloads._plain(image)
    parents = workloads._parents(g)
    assert checks.check_k2(cols, cards, parents, score) == []
    assert checks.check_k2(cols, cards, parents, score * (1 + 1e-6))

    noise = np.random.default_rng(0).integers(1, 4, size=iris.n_rows).tolist()
    child = next(x for x, pa in parents.items() if pa)
    fam = oracle.family_score(cols[child], cards[child], [(cols[p], cards[p]) for p in parents[child]])
    with_noise = oracle.family_score(
        cols[child], cards[child],
        [(cols[p], cards[p]) for p in parents[child]] + [(noise, 3)])
    assert with_noise < fam  # the added parent lowers the family score
    fails = checks.check_k2({**cols, "N": noise}, {**cards, "N": 3},
                            {**parents, child: parents[child] + ["N"], "N": []},
                            score + with_noise - fam + oracle.family_score(noise, 3, []))
    assert any("parent N" in f for f in fails)


def test_fold_check(iris):
    g = dvbn.naive_bayes_structure(iris, "species")
    with workloads.captured_policy_sets() as psets:
        rep = dvbn.cross_validate(iris, "bayes", structure=g, folds=5, seed=3)
    cols, cards = workloads._plain(iris)
    tests = [t.tolist() for t in dvbn.fold_indices(iris.n_rows, 5, 3)]
    pols = [workloads._policies(p) for p in psets]
    parents = workloads._parents(g)
    assert checks.check_folds("t", cols, cards, parents, tests, pols, rep.folds) == []
    off = list(rep.folds)
    off[2] += 1e-6
    assert checks.check_folds("t", cols, cards, parents, tests, pols, off)
    widened = [dict(p) for p in pols]
    edges, lo, hi = widened[0]["sepal_length"]
    widened[0]["sepal_length"] = (edges, lo - 0.1, hi)
    assert checks.check_folds("t", cols, cards, parents, tests, widened, rep.folds)
    assert checks.check_folds("t", cols, cards, parents, tests[1:] + tests[:1],
                              pols, rep.folds)


def test_partition_check():
    assert checks.check_partition([[0, 2], [1, 3]], 4) == []
    assert checks.check_partition([[0, 1], [1, 3]], 4)
    assert checks.check_partition([[0, 1, 2], [3]], 4)


def test_small_checks():
    assert checks.check_converged("m", [True, True]) == []
    assert checks.check_converged("m", [True, False])
    assert checks.check_converged("m", [])
    assert checks.check_ordering(20.1, 21.4) == []
    assert checks.check_ordering(21.4, 21.4)
    assert checks.check_accuracy("m", [0.9, 0.96]) == []
    assert checks.check_accuracy("m", [0.8, 0.96])
    assert checks.check_accuracy("m", [1.0, 0.97])
    assert checks.check_same_edges({"a": (1.0,)}, {"a": (1.0,)}) == []
    assert checks.check_same_edges({"a": (1.0,)}, {"a": (1.5,)})


def test_tracing_changes_no_output_and_counts_calls(blanket):
    d_star, g, col = blanket["d_star"], blanket["g"], blanket["col"]
    plain = dvbn.discretize_one(d_star, g, "X", col, method="bayes")
    orig = dvbn.scoring.h_matrix
    tracer = layers.Tracer()
    with layers.rebound(tracer.wrappers()):
        assert dvbn.discretizer.h_matrix is dvbn.scoring.h_matrix is not orig
        tracer.begin_op()
        for _ in range(2):
            traced = dvbn.discretize_one(d_star, g, "X", col, method="bayes")
    assert dvbn.discretizer.h_matrix is dvbn.scoring.h_matrix is orig
    assert traced == plain
    s = tracer.stats
    assert s["scoring.h_matrix.calls"] == s["discretizer.bayes_dp.calls"] == 2
    assert s["scoring.h_matrix.cells"] == 2 * col.m ** 2
    assert s["discretizer.discretize_one.repeats"] == 1
    total = s["discretizer.discretize_one.self_s"] + sum(
        s[f"{k}.self_s"] for k in ("counts.build_context", "scoring.h_matrix",
                                   "discretizer.bayes_dp"))
    assert 0 < s["discretizer.discretize_one.self_s"] < total


def test_cache_hits_counted(iris):
    image = workloads._equal_width_image(iris, 3)
    tracer = layers.Tracer()
    with layers.rebound(tracer.wrappers()):
        dvbn.k2_multi_restart(image, 5, seed=0)
    s = tracer.stats
    assert 0 < s["structure.family_score.cache_hits"] < s["structure.family_score.calls"]


def test_benchmark_json_names_match_the_emitted_metrics():
    import json
    import os
    import run
    import setup_probe
    with open(os.path.join(setup_probe.ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.UNITS
    emitted = layers.metric_names() + [f"overhead.{op}_s" for op in workloads.OPS]
    assert [m["name"] for m in doc["per_layer"]] == emitted
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
