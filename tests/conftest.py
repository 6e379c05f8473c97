"""Shared fixtures and random-instance generators for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from dvbn.dataset import DiscreteDataset, MixedDataset, Variable, sorted_column
from dvbn.graph import Dag
from dvbn.policy import DiscretizationPolicy, midpoint_candidates

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


def random_instance(seed: int, n_max: int = 16, m_max: int = 12,
                    levels_max: int = 3):
    """Small random target column with a random discrete Markov blanket.

    Layouts cycle through: parent only, child only, parent + child, and
    child + spouse, so instances occur with and without spouses.  Returns
    ``(d_star, graph, sorted_column)``; the target's own column in ``d_star``
    is a placeholder and is never read by the discretizers.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, n_max + 1))
    grid = np.unique(np.round(rng.normal(0.0, 1.0, int(rng.integers(2, m_max + 1))), 3))
    x = rng.choice(grid, size=n)
    while len(np.unique(x)) < 2:
        x = rng.choice(grid, size=n)

    layout = seed % 4
    names = {0: ["P"], 1: ["C"], 2: ["P", "C"], 3: ["C", "S"]}[layout]
    edge_spec = {0: [("P", "X")], 1: [("X", "C")],
                 2: [("P", "X"), ("X", "C")],
                 3: [("X", "C"), ("S", "C")]}[layout]

    cols = {"X": np.ones(n, dtype=np.int64)}
    cards = {"X": 1}
    for name in names:
        card = int(rng.integers(2, levels_max + 1))
        cols[name] = rng.integers(1, card + 1, size=n).astype(np.int64)
        cards[name] = card
    g = Dag({name: (None if name == "X" else cards[name]) for name in cols})
    for p, c in edge_spec:
        g = g.add_edge(p, c)
    return DiscreteDataset(cols, cards), g, sorted_column(x)


def random_policy(seed: int, col) -> DiscretizationPolicy:
    """Random subset of the midpoint candidates as a policy."""
    rng = np.random.default_rng(seed)
    mids = midpoint_candidates(col)
    take = rng.random(len(mids)) < 0.4
    edges = tuple(float(e) for e in mids[take])
    return DiscretizationPolicy(edges, float(col.values[0]), float(col.values[-1]))


def random_mixed(seed: int, n_max: int = 14):
    """Small mixed dataset plus a structure over it, for pipeline tests."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, n_max + 1))
    a = rng.integers(1, 3, size=n).astype(np.int64)
    x = np.round(a + rng.normal(0, 0.5, n), 2)
    y = np.round(rng.normal(0, 1.0, n), 2)
    b = ((x > np.median(x)).astype(np.int64) + 1)
    d = MixedDataset(
        [Variable("A", "discrete", 2), Variable("X", "continuous"),
         Variable("Y", "continuous"), Variable("B", "discrete", 2)],
        {"A": a, "X": x, "Y": y, "B": b})
    g = Dag({"A": 2, "X": None, "Y": None, "B": 2})
    g = g.add_edge("A", "X")
    g = g.add_edge("X", "B")
    g = g.add_edge("Y", "B")
    return d, g


def assert_same_image(got: DiscreteDataset, want: DiscreteDataset) -> None:
    """``got`` equals ``want`` column for column and cardinality for
    cardinality, in the same column order."""
    assert list(got.columns) == list(want.columns)
    assert list(got.cardinalities.items()) == list(want.cardinalities.items())
    for name, col in want.columns.items():
        assert got.columns[name].dtype == col.dtype, name
        assert np.array_equal(got.columns[name], col), name


def random_discrete(seed: int) -> DiscreteDataset:
    """Small discrete dataset whose columns are random, noisy copies of an
    earlier column, or exact duplicates of one (so family scores tie)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 41))
    cols, cards = {}, {}
    for j in range(int(rng.integers(2, 8))):
        name = "V" + "abcdefg"[j]
        kind = rng.integers(3) if cols else 0
        if kind == 0:
            cards[name] = int(rng.integers(2, 5))
            cols[name] = rng.integers(1, cards[name] + 1, n).astype(np.int64)
            continue
        src = list(cols)[int(rng.integers(len(cols)))]
        cols[name], cards[name] = cols[src].copy(), cards[src]
        if kind == 1:  # noisy copy
            flip = rng.random(n) < 0.2
            cols[name][flip] = rng.integers(1, cards[name] + 1, int(flip.sum()))
    return DiscreteDataset(cols, cards)


def blanket_instance(n: int, seed: int, decimals: int | None = None):
    """Target column of ``n`` rows with a parent, a child with a spouse and a
    child without one, so every kernel block kind occurs.  Values are unique
    unless ``decimals`` rounds them into ties.  Returns ``(d_star, graph,
    sorted_column)`` like :func:`random_instance`."""
    rng = np.random.default_rng(seed)
    p = rng.integers(1, 4, size=n)
    x = p + rng.normal(0.0, 1.0, size=n)
    if decimals is not None:
        x = np.round(x, decimals)
    s = rng.integers(1, 3, size=n)
    c1 = (np.searchsorted(np.quantile(x, [0.3, 0.7]), x) + s) % 3 + 1
    c2 = (x > np.median(x)).astype(np.int64) + 1
    cols = {"X": np.ones(n, dtype=np.int64), "P": p, "S": s, "C1": c1, "C2": c2}
    cards = {"X": 1, "P": 3, "S": 2, "C1": 3, "C2": 2}
    cols = {k: v.astype(np.int64) for k, v in cols.items()}
    g = Dag({k: (None if k == "X" else c) for k, c in cards.items()})
    for a, b in (("P", "X"), ("X", "C1"), ("S", "C1"), ("X", "C2")):
        g = g.add_edge(a, b)
    return DiscreteDataset(cols, cards), g, sorted_column(x)


def dense_kernel(chunks, m: int) -> np.ndarray:
    """The m×m kernel matrix, entry ``(u, v-1)`` over sorted rows
    ``s_u+1..s_v`` and 0 where v <= u, from the end-major chunks of
    ``dvbn.scoring.h_matrix`` or ``mdl_h_matrix``."""
    hm = np.zeros((m, m))
    for v1, v2, K in chunks:
        hm[:K.shape[1], v1 - 1:v2 - 1] = K.T
    return hm


def kernel_chunks(hm: np.ndarray):
    """The end-major chunks of an m×m kernel matrix laid out as
    :func:`dense_kernel` returns it, one interval end per chunk, built as
    they are consumed."""
    for v in range(1, len(hm) + 1):
        yield v, v + 1, hm[:v, v - 1:v].T
