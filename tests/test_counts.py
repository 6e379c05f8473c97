import math

import numpy as np
import pytest

from conftest import random_instance
from dvbn.counts import build_context, interval_counts, prefix_codes
from dvbn.dataset import DiscreteDataset, sorted_column
from dvbn.discretizer import discretize_one
from dvbn.errors import ValidationError
from dvbn.graph import Dag


def small_instance():
    x = np.array([3.0, 1.0, 2.0, 1.0])
    p = np.array([1, 2, 1, 2], dtype=np.int64)
    c = np.array([2, 1, 2, 1], dtype=np.int64)
    s = np.array([1, 1, 2, 2], dtype=np.int64)
    d_star = DiscreteDataset({"X": np.ones(4, dtype=np.int64), "P": p, "C": c, "S": s},
                             {"X": 1, "P": 2, "C": 2, "S": 2})
    g = Dag({"X": None, "P": 2, "C": 2, "S": 2})
    g = g.add_edge("P", "X").add_edge("X", "C").add_edge("S", "C")
    return d_star, g, sorted_column(x)


def test_context_codes_follow_sorted_order():
    d_star, g, col = small_instance()
    ctx = build_context(d_star, g, "X", col)
    # sorted x is rows 1, 3, 2, 0 of the original data
    assert list(col.permutation) == [1, 3, 2, 0]
    parents, grp = ctx.blocks
    assert parents.j == 2
    assert list(parents.value) == [1, 1, 0, 0]
    assert list(parents.cond) == [0, 0, 0, 0] and parents.j_cond == 1
    assert list(parents.cell) == list(parents.value)
    assert list(grp.value) == [0, 0, 1, 1]
    assert list(grp.cond) == [0, 1, 1, 0]
    assert list(grp.cell) == [0, 1, 3, 2]
    assert ctx.L == 2


def test_interval_counts_match_manual():
    d_star, g, col = small_instance()
    ctx = build_context(d_star, g, "X", col)
    t = interval_counts(ctx, 1, 2)
    assert t[0].tolist() == [[0], [2]]
    assert t[0].sum() == 2
    assert t[1].tolist() == [[1, 1], [0, 0]]
    full = interval_counts(ctx, 1, 4)
    assert full[0].sum() == 4
    assert list(full[1].sum(axis=0)) == [2, 2]


def test_interval_counts_bad_range():
    d_star, g, col = small_instance()
    ctx = build_context(d_star, g, "X", col)
    for a, b in [(0, 2), (3, 2), (1, 5)]:
        with pytest.raises(ValidationError):
            interval_counts(ctx, a, b)


def test_out_of_range_codes_rejected():
    d_star, g, col = small_instance()
    with pytest.raises(ValidationError):
        bad = d_star.replace_column("P", np.array([1, 2, 3, 2], dtype=np.int64), 2)
        build_context(bad, g, "X", col)


def test_sorted_column_must_have_the_data_rows():
    # a 4-row column against 8 rows of blanket data would be solved on the
    # first 4 rows alone
    d_star = DiscreteDataset({"X": np.ones(8, dtype=np.int64),
                              "P": np.array([1, 2] * 4, dtype=np.int64)}, {"X": 1, "P": 2})
    g = Dag({"X": None, "P": 2}).add_edge("P", "X")
    col = sorted_column(np.array([0.1, 0.6, 0.8, 0.2]))
    with pytest.raises(ValidationError, match="4 rows"):
        build_context(d_star, g, "X", col)
    with pytest.raises(ValidationError, match="4 rows"):
        discretize_one(d_star, g, "X", col)


def test_counts_additive_over_split():
    for seed in range(50):
        d_star, g, col = random_instance(seed)
        ctx = build_context(d_star, g, "X", col)
        n = ctx.n
        if n < 3:
            continue
        b = n // 2
        left = interval_counts(ctx, 1, b)
        right = interval_counts(ctx, b + 1, n)
        whole = interval_counts(ctx, 1, n)
        assert len(left) == len(right) == len(whole) == len(ctx.blocks)
        for lt, rt, wt in zip(left, right, whole):
            assert np.array_equal(lt + rt, wt)


def test_every_prefix_code_is_the_joint_code_of_that_prefix():
    # cardinality-1 columns (as the joint path makes them) included
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        cards = [int(c) for c in rng.integers(1, 6, int(rng.integers(0, 7)))]
        columns = [rng.integers(1, c + 1, n).astype(np.int64) for c in cards]
        codes, radix = prefix_codes(columns, cards, n)
        assert len(codes) == len(radix) == len(columns) + 1
        for i in range(len(columns) + 1):
            want, want_radix = prefix_codes(columns[:i], cards[:i], n)
            assert np.array_equal(codes[i], want[-1]) and radix[i] == want_radix[-1], (seed, i)
            # the first column least significant, written out by hand
            by_hand = [sum((int(col[row]) - 1) * math.prod(cards[:j])
                           for j, col in enumerate(columns[:i])) for row in range(n)]
            assert codes[i].tolist() == by_hand and radix[i] == math.prod(cards[:i])
