import math

import numpy as np
import pytest

from conftest import (blanket_instance, dense_kernel, random_instance,
                      random_policy)
from dvbn import discretizer, scoring
from dvbn.counts import build_context
from dvbn.dataset import DiscreteDataset, sorted_column
from dvbn.errors import DataError, ValidationError
from dvbn.graph import Dag
from dvbn.policy import DiscretizationPolicy
from dvbn.scoring import (_klogk_entries, _occurrence_before, h, h_matrix, log_binom,
                          log_multinomial, mdl_h_matrix, mdl_interval_term,
                          neg_log1m_exp, objective, prior_terms)
from oracles import oracle_mdl, oracle_objective


def to_raw(d_star, g, col):
    """Original-order value lists for the independent oracles."""
    inv = np.empty(col.n, dtype=int)
    inv[col.permutation] = np.arange(col.n)
    x = [float(col.values[inv[i]]) for i in range(col.n)]
    parents_n, children_n, spouses_n = g.neighbors_for_discretization("X")
    parents = [(list(map(int, d_star.columns[p])), d_star.cardinalities[p])
               for p in sorted(parents_n)]
    children = []
    for c, ss in zip(children_n, spouses_n):
        sp = [(list(map(int, d_star.columns[s])), d_star.cardinalities[s])
              for s in sorted(ss)]
        children.append((list(map(int, d_star.columns[c])),
                         d_star.cardinalities[c], sp))
    return x, parents, children


def test_log_binom_and_multinomial():
    assert log_binom(5, 2) == pytest.approx(math.log(10))
    assert log_binom(4, 0) == 0.0
    assert log_multinomial(4, [2, 1, 1]) == pytest.approx(math.log(12))
    with pytest.raises(ValidationError):
        log_binom(2, 3)
    with pytest.raises(ValidationError):
        log_multinomial(4, [2, 1])


def test_log_gamma_table_matches_scipy_gammaln_bit_for_bit():
    gammaln = pytest.importorskip("scipy.special").gammaln
    k = np.arange(1, 300_001)
    assert np.array_equal(scoring.log_gamma_table(300_000)[k], gammaln(k))


def test_log_gamma_table_is_close_to_math_lgamma():
    k = np.arange(1, 300_001)
    table = scoring.log_gamma_table(300_000)[k]
    ref = np.array([math.lgamma(i) for i in k])
    assert table[:2].tolist() == [0.0, 0.0]  # ln Γ(1) = ln Γ(2) = 0
    assert np.all(np.abs(table[2:] - ref[2:]) <= 1e-13 * ref[2:])


def test_klogk_table_is_k_log_k():
    table = scoring.klogk_table(300_000)
    assert table[0] == 0.0
    assert table[1:300_001].tolist() == [k * math.log(k) for k in range(1, 300_001)]


@pytest.mark.parametrize("table", [scoring.log_gamma_table, scoring.klogk_table],
                         ids=["log_gamma", "klogk"])
def test_tables_of_any_size_agree_and_are_read_only(table):
    # more sizes than are memoized, so some are built afresh on the way back
    tops = [20, 21, 5000, 13, *range(100, 100 + 2 * scoring.TABLE_SIZES), 20]
    largest = table(5000).copy()
    for top in tops:
        t = table(top)
        assert len(t) == top + 1
        assert t.tobytes() == largest[:top + 1].tobytes()
        with pytest.raises(ValueError):
            t[3] = 0.0


def test_neg_log1m_exp():
    assert neg_log1m_exp(1.0) == pytest.approx(-math.log(1 - math.exp(-1.0)))
    assert neg_log1m_exp(1e-12) > 20  # stable, not -log(0)
    with pytest.raises(ValidationError):
        neg_log1m_exp(0.0)


def test_prior_terms_hand_case():
    # values 0, 1, 3; one edge after the first unique (lambda = [1, 3]), L = 2
    col = sorted_column(np.array([0.0, 1.0, 3.0]))
    got = prior_terms(col, [1, 3], 2)
    rng = 3.0
    expected = (-math.log(1 - math.exp(-2 * 1.0 / rng))  # edge gap 1.0
                + 2 * 0.0 / rng                          # first interval length
                + 2 * (3.0 - 1.0) / rng)                 # second interval length
    assert got == pytest.approx(expected)


def test_h_matrix_matches_direct_kernel():
    for seed in range(40):
        d_star, g, col = random_instance(seed)
        ctx = build_context(d_star, g, "X", col)
        hm = dense_kernel(h_matrix(ctx, col), col.m)
        s = col.last_occurrence
        for u in range(col.m):
            for v in range(u + 1, col.m + 1):
                a = 0 if u == 0 else int(s[u - 1])
                assert hm[u, v - 1] == pytest.approx(h(ctx, a + 1, int(s[v - 1])),
                                                     abs=1e-9)


def test_mdl_h_matrix_matches_direct_kernel():
    for seed in range(40):
        d_star, g, col = random_instance(seed)
        ctx = build_context(d_star, g, "X", col)
        hm = dense_kernel(mdl_h_matrix(ctx, col), col.m)
        s = col.last_occurrence
        for u in range(col.m):
            for v in range(u + 1, col.m + 1):
                a = 0 if u == 0 else int(s[u - 1])
                assert hm[u, v - 1] == pytest.approx(
                    mdl_interval_term(ctx, a + 1, int(s[v - 1])), abs=1e-9)


def test_objective_matches_independent_oracle():
    for seed in range(100):
        d_star, g, col = random_instance(seed)
        ctx = build_context(d_star, g, "X", col)
        pol = random_policy(seed + 1, col)
        x, parents, children = to_raw(d_star, g, col)
        expected = oracle_objective(x, parents, children, list(pol.edges), ctx.L)
        assert objective(col, ctx, pol) == pytest.approx(expected, abs=1e-9)


def test_mdl_terms_match_independent_oracle():
    from dvbn.discretizer import mdl_objective
    for seed in range(100):
        d_star, g, col = random_instance(seed)
        ctx = build_context(d_star, g, "X", col)
        pol = random_policy(seed + 2, col)
        x, parents, children = to_raw(d_star, g, col)
        expected = oracle_mdl(x, parents, children, list(pol.edges))
        assert mdl_objective(pol, col, ctx) == pytest.approx(expected, abs=1e-9)


def test_objective_degenerate_column():
    x = np.array([2.0, 2.0, 2.0])
    d_star = DiscreteDataset({"X": np.ones(3, dtype=np.int64),
                              "P": np.array([1, 2, 1], dtype=np.int64)},
                             {"X": 1, "P": 2})
    g = Dag({"X": None, "P": 2}).add_edge("P", "X")
    col = sorted_column(x)
    ctx = build_context(d_star, g, "X", col)
    pol = DiscretizationPolicy((), 2.0, 2.0)
    assert objective(col, ctx, pol) == float(ctx.L)
    with pytest.raises(ValidationError):
        objective(col, ctx, DiscretizationPolicy((2.5,), 2.0, 3.0))


# ---------------------------------------------------------------------------
# The row-blocked kernel builder against the one-boundary-at-a-time loop
# ---------------------------------------------------------------------------

def _boundary_counts_reference(codes, j, s):
    m = len(s)
    out = np.zeros((m, j), dtype=np.int64)
    prev = 0
    for u in range(1, m):
        b = int(s[u - 1])
        out[u] = out[u - 1] + np.bincount(codes[prev:b], minlength=j)
        prev = b
    return out


def _kernel_matrix_reference(ctx, col, block_term):
    """The kernel builder as first written: one cumulative sum per split
    boundary u over the rows of its own intervals."""
    m, n, s = col.m, ctx.n, col.last_occurrence
    hm = np.zeros((m, m))
    for value, j, cond, j_cond, cell in ctx.blocks:
        if j <= 1:
            continue
        term = block_term(value, j)
        G, C = _occurrence_before(cell), _boundary_counts_reference(cell, j * j_cond, s)
        if j_cond > 1:
            Gc, Cc = _occurrence_before(cond), _boundary_counts_reference(cond, j_cond, s)
        for u in range(m):
            a = 0 if u == 0 else int(s[u - 1])
            c_cell = G[a:] - C[u, cell[a:]]
            c_cond = Gc[a:] - Cc[u, cond[a:]] if j_cond > 1 else np.arange(n - a)
            csum = np.cumsum(term(c_cell, c_cond, a))
            hm[u, u:] += csum[s[u:] - 1 - a]
    return hm


def _h_matrix_reference(ctx, col):
    def block_term(value, j):
        return lambda c_cell, c_cond, a: np.log(c_cond + j) - np.log(c_cell + 1)
    return _kernel_matrix_reference(ctx, col, block_term)


def _mdl_h_matrix_reference(ctx, col):
    log_n = math.log(ctx.n)
    klogk = _klogk_entries(ctx.n + 1)

    def phi(c):  # (c+1)ln(c+1) - c ln c
        return klogk[c + 1] - klogk[c]

    def block_term(value, j):
        log_m = np.log(np.maximum(np.bincount(value, minlength=j), 1))
        return lambda c_cell, c_cond, a: -(
            phi(c_cell) - log_m[value[a:]] - phi(c_cond) + log_n)
    return _kernel_matrix_reference(ctx, col, block_term)


def _assert_bytes_equal(got, want):
    # byte equality, unlike np.array_equal, also tells -0.0 from +0.0
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _assert_kernels_match_reference(d_star, g, col):
    ctx = build_context(d_star, g, "X", col)
    _assert_bytes_equal(dense_kernel(h_matrix(ctx, col), col.m),
                        _h_matrix_reference(ctx, col))
    _assert_bytes_equal(dense_kernel(mdl_h_matrix(ctx, col), col.m),
                        _mdl_h_matrix_reference(ctx, col))


def test_kernels_match_reference_loop_exactly():
    for seed in range(1000):
        _assert_kernels_match_reference(*random_instance(seed))


# B is the side of the largest all-unique column that fits in one block
B = math.isqrt(scoring.BLOCK_ELEMENTS)


@pytest.mark.parametrize("n, decimals", [(B - 1, None), (B, None), (B + 1, None),
                                         (3 * B, None), (3 * B, 1)],
                         ids=["B-1", "B", "B+1", "3B", "3B_tied"])
def test_kernels_match_reference_at_block_edges(n, decimals):
    d_star, g, col = blanket_instance(n, n, decimals)
    assert (col.m < n) == (decimals is not None)
    _assert_kernels_match_reference(d_star, g, col)


def test_mdl_kernel_matches_reference_when_one_configuration_holds_every_row():
    # every block sees one cell and one condition, so the counts reach n-1:
    # the top entry of mdl_h_matrix's phi table
    d_star, g, col = blanket_instance(300, 0)
    ones = {name: np.ones(col.n, dtype=np.int64) for name in d_star.columns}
    ctx = build_context(DiscreteDataset(ones, d_star.cardinalities), g, "X", col)
    _assert_bytes_equal(dense_kernel(mdl_h_matrix(ctx, col), col.m),
                        _mdl_h_matrix_reference(ctx, col))


@pytest.mark.parametrize("budget", [1, 7, 40])
def test_kernels_match_reference_in_small_blocks(monkeypatch, budget):
    monkeypatch.setattr(scoring, "BLOCK_ELEMENTS", budget)
    for seed in range(200):
        _assert_kernels_match_reference(*random_instance(seed))
    # 120 rows rounded to 7 values: the 34 rows of one value span several
    # row chunks, so prefix sums run on across chunks inside a tie
    _assert_kernels_match_reference(*blanket_instance(120, 0, 0))


def test_dense_arrays_over_budget_are_refused_before_allocation():
    # m = 20000 unique values: the MDL DP's m x m float64 kernel alone would
    # take 3.2 GB, so the solve is refused before its first chunk is built
    m = 20000
    assert 8 * m * m > discretizer.MAX_DENSE_BYTES
    d_star, g, col = blanket_instance(m, 0)
    with pytest.raises(DataError, match="20000 unique values.*MDL layers"):
        discretizer.discretize_one(d_star, g, "X", col, method="mdl")
