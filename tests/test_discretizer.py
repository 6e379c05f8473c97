import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import blanket_instance, dense_kernel, kernel_chunks, random_instance
from dvbn import discretizer, scoring
from dvbn.counts import build_context
from dvbn.dataset import DiscreteDataset, SortedColumn, sorted_column, sorted_view
from dvbn.discretizer import (bayes_dp, discretize_one, mdl_dp, mdl_dp_elements,
                              mdl_objective, mdl_penalty)
from dvbn.errors import DataError, ValidationError
from dvbn.graph import Dag
from dvbn.policy import DiscretizationPolicy, midpoint_candidates
from dvbn.scoring import h_matrix, mdl_h_matrix, neg_log1m_exp, objective
from synthetic import discrete_image, generate_synthetic


def _best_subset(col: SortedColumn, evaluate) -> DiscretizationPolicy:
    """Exhaustive minimum over all midpoint-edge subsets; ties prefer fewer
    edges, then the lexicographically smaller edge tuple."""
    if col.m > 20:
        raise ValidationError("exhaustive search refused for m > 20")
    mids = [float(e) for e in midpoint_candidates(col)]
    lo, hi = float(col.values[0]), float(col.values[-1])
    best_val, best_policy = None, None
    for r in range(len(mids) + 1):
        for combo in itertools.combinations(mids, r):
            p = DiscretizationPolicy(combo, lo, hi)
            val = evaluate(p)
            if best_val is None or val < best_val:
                best_val, best_policy = val, p
            elif val == best_val:
                key = (len(p.edges), p.edges)
                if key < (len(best_policy.edges), best_policy.edges):
                    best_policy = p
    return best_policy


def brute_force_bayes(d_star: DiscreteDataset, g: Dag, x: str,
                      col: SortedColumn) -> DiscretizationPolicy:
    ctx = build_context(d_star, g, x, col)
    return _best_subset(col, lambda p: objective(col, ctx, p))


def brute_force_mdl(d_star: DiscreteDataset, g: Dag, x: str,
                    col: SortedColumn) -> DiscretizationPolicy:
    ctx = build_context(d_star, g, x, col)
    return _best_subset(col, lambda p: mdl_objective(p, col, ctx))


def test_bayes_dp_matches_brute_force():
    for seed in range(40):
        d_star, g, col = random_instance(seed, n_max=12, m_max=8)
        ctx = build_context(d_star, g, "X", col)
        pol = discretize_one(d_star, g, "X", col, method="bayes")
        ref = brute_force_bayes(d_star, g, "X", col)
        assert objective(col, ctx, pol) == pytest.approx(
            objective(col, ctx, ref), abs=1e-9)


def test_mdl_dp_matches_brute_force():
    for seed in range(40):
        d_star, g, col = random_instance(seed, n_max=12, m_max=8)
        ctx = build_context(d_star, g, "X", col)
        pol = discretize_one(d_star, g, "X", col, method="mdl")
        ref = brute_force_mdl(d_star, g, "X", col)
        assert mdl_objective(pol, col, ctx) == pytest.approx(
            mdl_objective(ref, col, ctx), abs=1e-9)


def test_single_unique_value_gives_empty_policy():
    x = np.array([1.0, 1.0, 1.0])
    d_star = DiscreteDataset({"X": np.ones(3, dtype=np.int64),
                              "P": np.array([1, 2, 1], dtype=np.int64)},
                             {"X": 1, "P": 2})
    g = Dag({"X": None, "P": 2}).add_edge("P", "X")
    col = sorted_column(x)
    assert discretize_one(d_star, g, "X", col, method="bayes").k == 1
    assert discretize_one(d_star, g, "X", col, method="mdl").k == 1


def test_brute_force_refuses_large_m():
    x = np.arange(25, dtype=float)
    d_star = DiscreteDataset({"X": np.ones(25, dtype=np.int64),
                              "P": np.tile([1, 2], 13)[:25].astype(np.int64)},
                             {"X": 1, "P": 2})
    g = Dag({"X": None, "P": 2}).add_edge("P", "X")
    col = sorted_column(x)
    with pytest.raises(ValidationError, match="m > 20"):
        brute_force_bayes(d_star, g, "X", col)


def test_mdl_objective_rejects_too_many_intervals():
    d_star, g, col = random_instance(0)
    ctx = build_context(d_star, g, "X", col)
    from dvbn.policy import DiscretizationPolicy, midpoint_candidates
    mids = midpoint_candidates(col)
    big = DiscretizationPolicy(tuple(float(e) for e in mids) + (col.values[-1] + 1.0,),
                               float(col.values[0]), float(col.values[-1]) + 2.0)
    with pytest.raises(ValidationError):
        mdl_objective(big, col, ctx)


def test_mdl_dp_per_k_totals_are_achievable():
    # per_k[k-1] must equal the best k-interval objective found exhaustively
    d_star, g, col = random_instance(3, n_max=10, m_max=6)
    ctx = build_context(d_star, g, "X", col)
    hmdl = mdl_h_matrix(ctx, col)
    _, _, per_k = mdl_dp(col, hmdl, ctx)
    import itertools
    from dvbn.policy import DiscretizationPolicy, midpoint_candidates
    mids = [float(e) for e in midpoint_candidates(col)]
    lo, hi = float(col.values[0]), float(col.values[-1])
    for k in range(1, col.m + 1):
        best = min(mdl_objective(DiscretizationPolicy(c, lo, hi), col, ctx)
                   for c in itertools.combinations(mids, k - 1))
        assert per_k[k - 1] == pytest.approx(best, abs=1e-9)


def test_mdl_penalty_k1():
    # at k = 1 only the child conditional parameters remain; no edge entropy
    import math
    d_star, g, col = random_instance(1)
    ctx = build_context(d_star, g, "X", col)
    params = sum(blk.j_cond * (blk.j - 1) for blk in ctx.blocks[1:])
    expected = 0.5 * math.log(ctx.n) * params  # + ln 1 = 0
    assert mdl_penalty(1, col.m, ctx) == pytest.approx(expected)


def _penalties_loop(m, n, a, b):
    """The layer penalties as a scalar loop over k, three ``math.log`` per k."""
    half_log_n, out = 0.5 * math.log(n), []
    for k in range(1, m + 1):
        out.append(half_log_n * (a * k - b) + math.log(k))
        if 1 < k < m:
            p = (k - 1) / (m - 1)
            out[-1] += (m - 1) * (-p * math.log(p) - (1 - p) * math.log(1 - p))
    return out


def test_layer_penalties_equal_mdl_penalty_bit_for_bit():
    # mdl_dp takes the penalty of every layer from _penalties, built from
    # tables per m; the references are the scalar loop over k and the
    # penalty of one k by its scalar formula, the binary entropy 0 at p = 0
    # and p = 1
    def penalty(k, m, n, a, b):
        total = 0.5 * math.log(n) * (a * k - b) + math.log(k)
        if m > 1:
            p = (k - 1) / (m - 1)
            h = -p * math.log(p) - (1 - p) * math.log(1 - p) if 0.0 < p < 1.0 else 0.0
            total += (m - 1) * h
        return total

    # more values of m than the tables keep, so some are built afresh on the
    # way back
    ms = [1, 2, 3, 10, 127, *range(200, 200 + 2 * scoring.TABLE_SIZES), 2, 10, 700]
    for n, (a, b), m in itertools.product([1, 2, 150, 3000],
                                          [(1, 1), (3, 3), (7, 3), (40, 9)], ms):
        got = [p.hex() for p in discretizer._penalties(m, n, a, b)]
        assert got == [p.hex() for p in _penalties_loop(m, n, a, b)]
        # k = 1 and k = m included
        assert got == [penalty(k, m, n, a, b).hex() for k in range(1, m + 1)]
    d_star, g, col = random_instance(1)
    ctx = build_context(d_star, g, "X", col)
    got = discretizer._penalties(col.m, ctx.n, *discretizer._param_counts(ctx))
    assert [p.hex() for p in got] == [mdl_penalty(k, col.m, ctx).hex()
                                      for k in range(1, col.m + 1)]


def test_layer_penalty_tables_cannot_be_mutated():
    want = _penalties_loop(50, 160, 9, 3)
    log_k, entropy = discretizer._interval_count_terms(50)
    for table in (log_k, entropy):
        with pytest.raises(ValueError):
            table[1] = 0.0
    # the list a caller gets is its own
    got = discretizer._penalties(50, 160, 9, 3)
    got[:] = [0.0] * len(got)
    assert discretizer._penalties(50, 160, 9, 3) == want
    assert log_k.tolist() == [math.log(k) for k in range(1, 51)]


def test_mdl_solve_error_names_its_variable(monkeypatch):
    d_star, g, col = blanket_instance(40, 0)
    monkeypatch.setattr(discretizer, "MAX_DENSE_BYTES", 8 * mdl_dp_elements(col.m) - 1)
    with pytest.raises(DataError, match=r"^variable 'X': a column with \d+ unique values"):
        discretize_one(d_star, g, "X", col, method="mdl")


def test_dispatcher_rejects_unknown_method():
    d_star, g, col = random_instance(0)
    with pytest.raises(ValidationError):
        discretize_one(d_star, g, "X", col, method="nope")
    # also when the column has one value and there is nothing to solve
    with pytest.raises(ValidationError):
        discretize_one(d_star, g, "X", sorted_column(np.ones(3)), method="nope")


def test_prior_L_comes_from_the_data_not_the_graph():
    # a solve reads every cardinality from d_star, so a graph with the same
    # nodes and edges but no cardinalities gives the same policies
    checked = 0
    for seed in range(200):
        d_star, g, col = random_instance(seed)
        L = max(d_star.cardinalities[b] for b in g.markov_blanket("X"))
        if L <= 2 or col.m == 1:
            continue
        checked += 1
        bare = Dag(g.nodes, g.edges)
        assert build_context(d_star, bare, "X", col).L == L
        for method in ("bayes", "mdl"):
            want = discretize_one(d_star, g, "X", col, method=method)
            assert discretize_one(d_star, bare, "X", col, method=method) == want, seed
    assert checked > 50


def test_returned_objective_is_optimal_substructure():
    # the DP's S[m] equals the objective of the policy it returns
    from dvbn.discretizer import bayes_dp
    from dvbn.scoring import h_matrix
    for seed in range(20):
        d_star, g, col = random_instance(seed, n_max=12, m_max=8)
        ctx = build_context(d_star, g, "X", col)
        hm = h_matrix(ctx, col)
        _, S, _, _ = bayes_dp(col, hm, ctx.L)
        pol = discretize_one(d_star, g, "X", col, method="bayes")
        assert S[col.m] == pytest.approx(objective(col, ctx, pol), abs=1e-9)


# B is the largest m whose m x m candidates fit in one block
B = math.isqrt(discretizer.BLOCK_ELEMENTS)


def _mdl_dp_reference(col: SortedColumn, hmdl: np.ndarray, ctx):
    """The layer loop as first written: each layer gathers and masks the full
    (m-k+1) x m block of split candidates."""
    m = col.m
    u0 = col.uniques
    hmask = hmdl.copy()
    hmask[np.tril_indices(m, k=-1)] = np.inf
    s_prev = hmask[0, :].copy()
    per_k = [mdl_penalty(1, m, ctx) + float(s_prev[m - 1])]
    backs = [None, None]
    best_k, best_total = 1, per_k[0]
    for k in range(2, m + 1):
        idx_u = np.arange(k - 1, m)
        a = s_prev[idx_u - 1][:, None] + hmask[idx_u, :]
        rev = a[::-1]
        arg_rev = np.argmin(rev, axis=0)
        s_new = rev[arg_rev, np.arange(m)]
        backs.append(idx_u[len(idx_u) - 1 - arg_rev].astype(np.int32))
        total_k = mdl_penalty(k, m, ctx) + float(s_new[m - 1])
        per_k.append(total_k)
        if total_k < best_total:
            best_k, best_total = k, total_k
        s_prev = s_new
    edges = []
    v = m
    for k in range(best_k, 1, -1):
        u = int(backs[k][v - 1])
        edges.append(float(u0[u - 1] + u0[u]) / 2.0)
        v = u
    return tuple(reversed(edges)), best_total, per_k


def _assert_mdl_dp_matches_reference(d_star, g, col):
    ctx = build_context(d_star, g, "X", col)
    hmdl = dense_kernel(mdl_h_matrix(ctx, col), col.m)
    assert mdl_dp(col, mdl_h_matrix(ctx, col), ctx) == _mdl_dp_reference(col, hmdl, ctx)


def test_mdl_dp_matches_reference_layer_loop_exactly():
    for seed in range(1000):
        d_star, g, col = random_instance(seed)
        if col.m > 1:
            _assert_mdl_dp_matches_reference(d_star, g, col)


@pytest.mark.parametrize("n, decimals", [(B - 1, None), (B, None), (B + 1, None),
                                         (3 * B, None), (3 * B, 1), (700, None)],
                         ids=["B-1", "B", "B+1", "3B", "3B_tied", "700"])
def test_mdl_dp_matches_reference_at_large_m(n, decimals):
    # B as for the Bayesian DP below; 700 all-unique rows is the MDL solve of
    # perfbench's synth_blanket workload
    d_star, g, col = blanket_instance(n, n, decimals)
    assert (col.m < n) == (decimals is not None)
    _assert_mdl_dp_matches_reference(d_star, g, col)


@pytest.mark.parametrize("budget", [1, 7, 40])
def test_mdl_dp_matches_reference_in_small_blocks(monkeypatch, budget):
    # layers wider than the budget run in row blocks trimmed to their live
    # columns, and the kernel arrives in as small row chunks; 3B tied values
    # give long layers with equal candidates, and 120 rows rounded to 7
    # values a value whose 34 rows span several chunks
    monkeypatch.setattr(discretizer, "BLOCK_ELEMENTS", budget)
    monkeypatch.setattr(scoring, "BLOCK_ELEMENTS", budget)
    for seed in range(200):
        d_star, g, col = random_instance(seed)
        if col.m > 1:
            _assert_mdl_dp_matches_reference(d_star, g, col)
    _assert_mdl_dp_matches_reference(*blanket_instance(3 * B, 0, 1))
    _assert_mdl_dp_matches_reference(*blanket_instance(120, 0, 0))


def test_mdl_dp_memory_projection_covers_its_traced_peak():
    d_star, g, col = blanket_instance(700, 700)
    ctx = build_context(d_star, g, "X", col)
    hmdl = mdl_h_matrix(ctx, col)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mdl_dp(col, hmdl, ctx)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    projected = 8 * mdl_dp_elements(col.m)
    # the projection covers the peak, and not by much: it counts what is held
    assert 0.9 * projected <= peak <= projected


def test_bayes_solve_holds_no_dense_kernel():
    # the kernel's chunks stream into the DP: at m = 3000 one m x m float64
    # array would take 72 MB, and the whole solve stays under 5% of that
    d_star, g, col = blanket_instance(3000, 3000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        discretize_one(d_star, g, "X", col, method="bayes")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert col.m == 3000
    assert peak < 0.05 * 8 * col.m ** 2


def test_mdl_dp_tie_prefers_larger_split():
    # every split of a 2-interval policy costs 2; the single interval costs
    # 100 and more intervals cost more: the last candidate edge must win
    col = sorted_column(np.array([0.0, 1.0, 2.0, 3.0]))
    d_star = DiscreteDataset({"X": np.ones(4, dtype=np.int64),
                              "P": np.array([1, 2, 1, 2], dtype=np.int64)},
                             {"X": 1, "P": 2})
    g = Dag({"X": None, "P": 2}).add_edge("P", "X")
    ctx = build_context(d_star, g, "X", col)
    hmdl = np.triu(np.ones((4, 4)))
    hmdl[0, 3] = 100.0
    edges, total, per_k = mdl_dp(col, kernel_chunks(hmdl), ctx)
    assert edges == (2.5,)
    assert total == per_k[1] == mdl_penalty(2, 4, ctx) + 2.0
    assert (edges, total, per_k) == _mdl_dp_reference(col, hmdl, ctx)


@pytest.mark.parametrize("budget", [None, 3], ids=["one_block", "row_blocks"])
@pytest.mark.parametrize("m, edges", [(5, (1.5, 3.5)), (7, (1.5, 3.5, 5.5))])
def test_mdl_dp_tie_at_a_later_layer_prefers_larger_split(monkeypatch, m, edges, budget):
    # an interval of one or two values costs 1, a longer one 100, so the best
    # path has ceil(m/2) intervals.  At its last layer the end m ties between
    # a last interval of one value and one of two: the larger split, one
    # value, must win; every earlier layer of the path has a single best.
    # A budget of 3 runs the layers of 2 or more ends in row blocks.
    if budget is not None:
        monkeypatch.setattr(discretizer, "BLOCK_ELEMENTS", budget)
    col = sorted_column(np.arange(float(m)))
    d_star = DiscreteDataset({"X": np.ones(m, dtype=np.int64),
                              "P": (np.arange(m) % 2 + 1).astype(np.int64)},
                             {"X": 1, "P": 2})
    g = Dag({"X": None, "P": 2}).add_edge("P", "X")
    ctx = build_context(d_star, g, "X", col)
    u, e = np.indices((m, m))  # entry (u, e) covers the values u+1 .. e+1
    hmdl = np.where(e - u < 2, 1.0, 100.0) * (e >= u)
    got = mdl_dp(col, kernel_chunks(hmdl), ctx)
    best_k = len(edges) + 1
    assert best_k >= 3
    assert got == (edges, mdl_penalty(best_k, m, ctx) + best_k, got[2])
    assert got == _mdl_dp_reference(col, hmdl, ctx)


def test_mdl_dp_per_k_totals_are_python_floats():
    # RESULTS.json hashes the repr of per_k, and np.float64 has another repr
    d_star, g, col = blanket_instance(200, 0)
    ctx = build_context(d_star, g, "X", col)
    per_k = mdl_dp(col, mdl_h_matrix(ctx, col), ctx)[2]
    assert type(per_k) is list and len(per_k) == col.m
    assert all(type(total) is float for total in per_k)


@pytest.mark.parametrize("pen, best_k", [([10.0, 1.0, 0.0, 10.0], 2),
                                          ([3.0, 2.0, 1.0, 0.0], 1)])
def test_mdl_dp_tied_totals_pick_the_smaller_k(monkeypatch, pen, best_k):
    # every interval costs 1, so k intervals cost k and the totals are
    # pen[k-1] + k: exactly tied at k = 2, 3 in the first case and at every
    # k in the second.  The smallest tied k must win.
    col = sorted_column(np.array([0.0, 1.0, 2.0, 3.0]))
    d_star = DiscreteDataset({"X": np.ones(4, dtype=np.int64),
                              "P": np.array([1, 2, 1, 2], dtype=np.int64)},
                             {"X": 1, "P": 2})
    g = Dag({"X": None, "P": 2}).add_edge("P", "X")
    ctx = build_context(d_star, g, "X", col)
    monkeypatch.setattr(discretizer, "_penalties", lambda m, n, a, b: list(pen))
    edges, total, per_k = mdl_dp(col, kernel_chunks(np.triu(np.ones((4, 4)))), ctx)
    assert per_k == [p + k for k, p in enumerate(pen, start=1)]
    assert total == per_k[best_k - 1] == min(per_k)
    assert len(edges) == best_k - 1


def _bayes_dp_reference(col: SortedColumn, hm: np.ndarray, L: int):
    """The Bayesian DP as first written: a scalar loop over every candidate
    split u of every end v, keeping the last u on ties."""
    u0 = col.uniques
    m = col.m
    rng = float(u0[-1] - u0[0])
    Lr = L / rng
    W = [0.0] * (m + 1)
    for i in range(1, m):
        W[i] = neg_log1m_exp(L * float(u0[i] - u0[i - 1]) / rng)
    S = [0.0] * (m + 1)
    back = [0] * (m + 1)
    S[1] = W[1] + float(hm[0, 0])
    for v in range(2, m + 1):
        col_v = hm[:v, v - 1].tolist()
        uv = float(u0[v - 1])
        best = W[v] + col_v[0] + Lr * (uv - float(u0[0]))
        bu = 0
        for u in range(1, v):
            cand = W[v] + col_v[u] + Lr * (uv - float(u0[u])) + S[u]
            if cand <= best:
                best, bu = cand, u
        S[v] = best
        back[v] = bu
    return S, back, W


def _assert_bayes_dp_matches_reference(d_star, g, col):
    ctx = build_context(d_star, g, "X", col)
    hm = dense_kernel(h_matrix(ctx, col), col.m)
    assert bayes_dp(col, h_matrix(ctx, col), ctx.L)[1:] == _bayes_dp_reference(col, hm, ctx.L)


def test_bayes_dp_matches_reference_loop_exactly():
    for seed in range(1000):
        d_star, g, col = random_instance(seed)
        if col.m > 1:
            _assert_bayes_dp_matches_reference(d_star, g, col)


@pytest.mark.parametrize("n, decimals", [(B - 1, None), (B, None), (B + 1, None),
                                         (3 * B, None), (3 * B, 1)],
                         ids=["B-1", "B", "B+1", "3B", "3B_tied"])
def test_bayes_dp_matches_reference_at_block_edges(n, decimals):
    d_star, g, col = blanket_instance(n, n, decimals)
    assert (col.m < n) == (decimals is not None)
    _assert_bayes_dp_matches_reference(d_star, g, col)


@pytest.mark.parametrize("budget", [1, 7, 40])
def test_bayes_dp_matches_reference_in_small_blocks(monkeypatch, budget):
    # the DP takes its blocks of ends from the kernel's row chunks
    monkeypatch.setattr(scoring, "BLOCK_ELEMENTS", budget)
    for seed in range(200):
        d_star, g, col = random_instance(seed)
        if col.m > 1:
            _assert_bayes_dp_matches_reference(d_star, g, col)
    _assert_bayes_dp_matches_reference(*blanket_instance(120, 0, 0))


def test_bayes_dp_tie_prefers_larger_split():
    # values 0..3 and L = 3 make Lr = 1 and every edge penalty w.  With
    # hm[1, 1] = -w the best two-unique prefix costs exactly w, like the
    # one-unique prefix, so ending at v = 4 the splits u = 1 and u = 2 both
    # cost (0 + 1) + 2 + w = (0 + 2) + 1 + w.  The later split must win.
    col = sorted_column(np.array([0.0, 1.0, 2.0, 3.0]))
    w = neg_log1m_exp(1.0)
    hm = np.full((4, 4), 100.0)
    hm[0, 0] = 0.0
    hm[1, 1] = -w
    hm[1, 3] = 1.0
    hm[2, 3] = 2.0
    _, S, back, W = bayes_dp(col, kernel_chunks(hm), 3)
    assert S[1] == S[2] == w
    assert back[4] == 2 and back[2] == 1
    assert S[4] == 3.0 + w
    assert (S, back, W) == _bayes_dp_reference(col, hm, 3)


@pytest.mark.parametrize("method,n", [("bayes", 500), ("bayes", 1000), ("mdl", 500)])
def test_single_variable_cut_recovery(method, n):
    # two children follow X through its 1/3 and 2/3 quantiles (20% noise):
    # the solve finds both cuts, each within 2% of the rows of its quantile
    for seed in range(5):
        d, g = generate_synthetic(n, seed, n_parents=0, spouses_per_child=0)
        col = sorted_view(d, "X")
        pol = discretize_one(discrete_image(d), g, "X", col, method=method)
        assert pol.k == 3, (seed, pol.edges)
        planted = np.quantile(d.columns["X"], [1 / 3, 2 / 3])
        rows = np.abs(np.searchsorted(col.values, pol.edges)
                      - np.searchsorted(col.values, planted))
        assert np.all(rows <= 0.02 * n), (seed, rows)
