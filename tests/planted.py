"""A seeded mixed network with a known DAG, for recall tests of joint learning.

    A (3 levels) -> X (normal, mean 2A) -> Y (mean shift where X > 4)
        -> B (Y above a threshold, 15% of labels flipped);   Z independent.
"""

from __future__ import annotations

import numpy as np

from dvbn.dataset import MixedDataset, Variable

#: the planted skeleton, as undirected pairs
PLANTED_EDGES = {frozenset(e) for e in (("A", "X"), ("X", "Y"), ("Y", "B"))}


def planted_chain(n: int, seed: int) -> MixedDataset:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 4, n)
    x = rng.normal(2.0 * a, 1.0)
    y = rng.normal(np.where(x > 4.0, 3.0, 0.0), 1.0)
    b = np.where(y > 1.5, 2, 1)
    b = np.where(rng.random(n) < 0.15, 3 - b, b)
    z = rng.normal(0.0, 1.0, n)
    variables = [Variable("A", "discrete", 3), Variable("X", "continuous"),
                 Variable("Y", "continuous"), Variable("B", "discrete", 2),
                 Variable("Z", "continuous")]
    columns = {"A": a.astype(np.int64), "X": x, "Y": y,
               "B": b.astype(np.int64), "Z": z}
    return MixedDataset(variables, columns, source=f"<planted chain n={n} seed={seed}>")


def recalled(edges) -> int:
    """How many planted edges ``edges`` holds, ignoring direction."""
    return len(PLANTED_EDGES & {frozenset(e) for e in edges})
