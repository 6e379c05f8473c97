"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` and in
failure output) in addition to its assertions.
"""

import itertools
import math
import os

import numpy as np
import pytest

from conftest import random_instance, random_mixed, random_policy
from dvbn.counts import build_context, interval_counts
from dvbn.dataset import (DiscreteDataset, load_csv,
                          load_schema, sorted_column, sorted_view)
from dvbn.discretizer import discretize_one, mdl_objective, mdl_penalty
from dvbn.evaluation import (cross_validate, fit_parameters, loglik_density,
                             loglik_discrete, naive_bayes_protocol)
from dvbn.graph import Dag
from dvbn.multivar import apply_policies, discretize_all
from dvbn.policy import equal_width, policy_from_lambda, representations
from dvbn.scoring import h, mdl_interval_term, objective, prior_terms
from dvbn.structure import family_score, k2_multi_restart, k2_pass, network_score
from oracles import oracle_objective
from synthetic import run_bench
from test_scoring import to_raw

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'}: {criterion}" + (f" ({detail})" if detail else "")
    print(line)
    assert ok, line


def _exhaustive_minimum(col, ctx, kind: str) -> float:
    """Minimum objective over every edge subset, summing direct per-interval
    kernels; shares no code with the dynamic programs or kernel matrices."""
    m, n, s = col.m, ctx.n, col.last_occurrence
    kern = {}
    for u in range(m):
        a = 0 if u == 0 else int(s[u - 1])
        for v in range(u + 1, m + 1):
            if kind == "bayes":
                kern[(u, v)] = h(ctx, a + 1, int(s[v - 1]))
            else:
                kern[(u, v)] = mdl_interval_term(ctx, a + 1, int(s[v - 1]))
    best = math.inf
    for r in range(m):
        for combo in itertools.combinations(range(1, m), r):
            bounds = (0,) + combo + (m,)
            tot = sum(kern[(bounds[i], bounds[i + 1])]
                      for i in range(len(bounds) - 1))
            if kind == "bayes":
                lam = [int(s[b - 1]) for b in combo] + [n]
                tot += prior_terms(col, lam, ctx.L)
            else:
                tot += mdl_penalty(r + 1, m, ctx)
            if tot < best:
                best = tot
    return best


def test_criterion_1_bayes_dp_optimality():
    worst = 0.0
    for seed in range(200):
        d_star, g, col = random_instance(seed, n_max=16, m_max=12)
        ctx = build_context(d_star, g, "X", col)
        pol = discretize_one(d_star, g, "X", col, method="bayes")
        got = objective(col, ctx, pol)
        ref = _exhaustive_minimum(col, ctx, "bayes")
        worst = max(worst, abs(got - ref))
    report("criterion 1: Bayesian DP equals exhaustive minimum on 200 instances",
           worst <= 1e-9, f"max |delta| = {worst:.2e}")


def test_criterion_2_mdl_dp_optimality():
    worst = 0.0
    for seed in range(200):
        d_star, g, col = random_instance(seed, n_max=16, m_max=12)
        ctx = build_context(d_star, g, "X", col)
        pol = discretize_one(d_star, g, "X", col, method="mdl")
        got = mdl_objective(pol, col, ctx)
        ref = _exhaustive_minimum(col, ctx, "mdl")
        worst = max(worst, abs(got - ref))
    report("criterion 2: MDL DP equals exhaustive minimum on 200 instances",
           worst <= 1e-9, f"max |delta| = {worst:.2e}")


def test_criterion_3_objective_matches_independent_oracle():
    worst = 0.0
    for seed in range(500):
        d_star, g, col = random_instance(seed)
        ctx = build_context(d_star, g, "X", col)
        pol = random_policy(seed + 10_000, col)
        x, parents, children = to_raw(d_star, g, col)
        ref = oracle_objective(x, parents, children, list(pol.edges), ctx.L)
        worst = max(worst, abs(objective(col, ctx, pol) - ref))
    report("criterion 3: objective matches independent evaluation on 500 pairs",
           worst <= 1e-9, f"max |delta| = {worst:.2e}")


def test_criterion_4_iris_reproduction():
    d = load_csv(os.path.join(DATA, "iris.csv"),
                 load_schema(os.path.join(DATA, "iris.schema.json")))
    accs = {"bayes": [], "mdl": []}
    for seed in range(5):
        res = naive_bayes_protocol(d, "species", folds=10, seed=seed)
        for m in accs:
            accs[m].append(res[m]["accuracy"])
    means = {m: float(np.mean(v)) for m, v in accs.items()}
    full = naive_bayes_protocol(d, "species", folds=10, seed=0)
    divergences = [v for v in full["bayes"]["policies"]
                   if full["bayes"]["policies"][v].edges
                   != full["mdl"]["policies"][v].edges]
    if divergences:
        print(f"edge divergence between methods on: {divergences}")
    ok = (all(0.90 <= means[m] <= 0.98 for m in means) and not divergences)
    report("criterion 4: Iris naive-Bayes accuracy in [0.90, 0.98] for both "
           "methods and coincident edges",
           ok, f"mean accuracy bayes={means['bayes']:.3f} mdl={means['mdl']:.3f}")


def test_criterion_5_wine_method_ordering():
    d = load_csv(os.path.join(DATA, "wine.csv"),
                 load_schema(os.path.join(DATA, "wine.schema.json")))
    pols = {v: equal_width(sorted_column(d.columns[v]), 3)
            for v in d.continuous_names()}
    d_star = apply_policies(d, pols)
    g, _, _ = k2_multi_restart(d_star, 1000, seed=0)
    rb = cross_validate(d, "bayes", structure=g, folds=10, seed=0)
    rm = cross_validate(d, "mdl", structure=g, folds=10, seed=0)
    report("criterion 5: Wine fixed-structure mean LL, Bayesian > MDL",
           rb.mean > rm.mean, f"bayes={rb.mean:.4f} mdl={rm.mean:.4f}")


def test_criterion_6_auto_mpg_under_segmentation():
    path = os.path.join(DATA, "auto-mpg.csv")
    if not os.path.exists(path):
        msg = ("criterion 6 SKIPPED: data/auto-mpg.csv is not present. The "
               "Auto MPG dataset is not redistributable from this environment; "
               "supply the raw UCI file and convert it with "
               "convert_uci_auto_mpg in scripts/make_datasets.py, then rerun.")
        print(msg)
        pytest.skip(msg)
    d = load_csv(path, load_schema(os.path.join(DATA, "auto-mpg.schema.json")))
    cont = d.continuous_names()
    pols = {v: equal_width(sorted_column(d.columns[v]), 5) for v in cont}
    d_star = apply_policies(d, pols)
    g, _, _ = k2_multi_restart(d_star, 1000, seed=0)
    mdl = discretize_all(d, g, method="mdl")
    bayes = discretize_all(d, g, method="bayes")
    mdl_empty = all(p.k == 1 for p in mdl.policies.values())
    bayes_cut = sum(1 for p in bayes.policies.values() if p.k > 1)
    report("criterion 6: Auto MPG fixed structure, MDL zero edges vs Bayesian cuts",
           mdl_empty and bayes_cut >= 3,
           f"mdl all k=1: {mdl_empty}, bayes variables with edges: {bayes_cut}/5")


def test_criterion_7_complexity_scaling():
    _, slopes = run_bench([250, 500, 1000, 2000], seed=0)
    b, m = slopes["bayes"], slopes["mdl"]
    report("criterion 7: Bayesian log-log slope in [1.5, 2.6] and below MDL slope",
           1.5 <= b <= 2.6 and b < m, f"bayes={b:.3f} mdl={m:.3f}")


# ---------------------------------------------------------------------------
# Criterion 8: property suites, 1000 seeded cases each
# ---------------------------------------------------------------------------

N_CASES = 1000


def test_criterion_8a_counts_additivity():
    for seed in range(N_CASES):
        d_star, g, col = random_instance(seed)
        ctx = build_context(d_star, g, "X", col)
        rng = np.random.default_rng(seed)
        if ctx.n < 3:
            continue
        b = int(rng.integers(1, ctx.n))
        left = interval_counts(ctx, 1, b)
        right = interval_counts(ctx, b + 1, ctx.n)
        whole = interval_counts(ctx, 1, ctx.n)
        assert len(left) == len(right) == len(whole) == len(ctx.blocks)
        for lt, rt, wt in zip(left, right, whole):
            assert np.array_equal(lt + rt, wt)
    report(f"criterion 8a: interval counts additive over splits "
           f"({N_CASES} cases)", True)


def test_criterion_8b_loglik_additivity():
    for seed in range(N_CASES):
        d, g = random_mixed(seed)
        pols = {v: equal_width(sorted_column(d.columns[v]), 2)
                for v in d.continuous_names()}
        model = fit_parameters(apply_policies(d, pols), g)
        idx = np.arange(d.n_rows)
        half = d.n_rows // 2
        t1, t2 = d.subset_rows(idx[:half]), d.subset_rows(idx[half:])
        whole = (loglik_discrete(model, apply_policies(d, pols))
                 + loglik_density(d, pols))
        parts = sum(loglik_discrete(model, apply_policies(t, pols))
                    + loglik_density(t, pols) for t in (t1, t2))
        assert whole == pytest.approx(parts, abs=1e-9)
    report(f"criterion 8b: held-out log-likelihood additive over row blocks "
           f"({N_CASES} cases)", True)


def test_criterion_8c_density_normalization():
    for seed in range(N_CASES):
        rng = np.random.default_rng(seed)
        x = np.round(rng.normal(0, 1, int(rng.integers(4, 20))), 2)
        col = sorted_column(x)
        if col.m < 2:
            continue
        pol = random_policy(seed, col)
        d_star = DiscreteDataset({"x": pol.apply_array(x)}, {"x": pol.k})
        model = fit_parameters(d_star, Dag({"x": pol.k}))
        b = model.beta["x"][0]
        probs = (1.0 + b) / (pol.k + b.sum())
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        widths = np.array([pol.interval_width(i) for i in range(1, pol.k + 1)])
        if np.all(widths > 0):
            density = probs / widths
            assert float(np.sum(density * widths)) == pytest.approx(1.0, abs=1e-12)
    report(f"criterion 8c: piecewise-uniform density normalizes to 1 "
           f"({N_CASES} cases)", True)


def test_criterion_8d_k2_score_monotonicity():
    for seed in range(N_CASES):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 26))
        cols, cards = {}, {}
        for name in ("a", "b", "c"):
            card = int(rng.integers(2, 4))
            cols[name] = rng.integers(1, card + 1, n).astype(np.int64)
            cards[name] = card
        d_star = DiscreteDataset(cols, cards)
        order = [["a", "b", "c"][i] for i in rng.permutation(3)]
        edges, _ = k2_pass(d_star, order)
        g = Dag(cards, edges)
        for x in g.nodes:
            pa = g.parents(x)
            if pa:
                assert family_score(x, pa, d_star) > family_score(x, [], d_star)
        empty = Dag(cards)
        assert network_score(g, d_star) >= network_score(empty, d_star) - 1e-9
    report(f"criterion 8d: every K2-accepted parent set strictly improves its "
           f"family score ({N_CASES} cases)", True)


def test_criterion_8e_discretize_all_idempotence():
    checked = 0
    for seed in range(N_CASES):
        d, g = random_mixed(seed)
        order = g.reverse_topological({"X", "Y"})
        pset = discretize_all(d, g)
        if not pset.converged:
            continue
        checked += 1
        d_star = apply_policies(d, pset.policies)
        for x in order:
            again = discretize_one(d_star, g, x, sorted_view(d, x))
            assert again.edges == pset.policies[x].edges
    report(f"criterion 8e: converged multi-variable discretization is a fixed "
           f"point ({checked}/{N_CASES} converged cases)", checked >= N_CASES * 0.9)


def test_criterion_8f_objective_nonnegativity():
    for seed in range(N_CASES):
        d_star, g, col = random_instance(seed)
        ctx = build_context(d_star, g, "X", col)
        pol = random_policy(seed + 20_000, col)
        assert objective(col, ctx, pol) >= 0.0
    report(f"criterion 8f: Bayesian objective is nonnegative ({N_CASES} cases)",
           True)


def test_criterion_8g_policy_lambda_gamma_round_trip():
    for seed in range(N_CASES):
        rng = np.random.default_rng(seed)
        x = np.round(rng.normal(0, 1, int(rng.integers(3, 20))), 1)
        col = sorted_column(x)
        if col.m < 2:
            continue
        pol = random_policy(seed, col)
        lam, gam = representations(pol, col)
        assert int(lam[-1]) == col.n
        assert int(gam.sum()) == col.n
        assert np.array_equal(np.cumsum(gam), lam)
        # gamma matches the actual per-interval sample counts
        counts = np.bincount(pol.apply_array(x), minlength=pol.k + 1)[1:]
        assert np.array_equal(counts, gam)
        back = policy_from_lambda(lam, col)
        assert back.edges == pol.edges
    report(f"criterion 8g: policy/cumulative/per-interval representations "
           f"round-trip ({N_CASES} cases)", True)
