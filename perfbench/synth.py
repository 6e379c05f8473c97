"""Seeded synthetic Markov blanket for the single-blanket workload.

Kept inside the benchmark, apart from ``dvbn.bench``, so that a change to the
package cannot move the benchmark's inputs.  Arrays only: the caller wraps
them in package types.
"""

from __future__ import annotations

import numpy as np

LEVELS = 3
PARENTS = ("P0", "P1")
CHILDREN = ("C0", "C1")
SPOUSES = ("S0", "S1")          # SPOUSES[j] is the other parent of CHILDREN[j]
EDGES = (("P0", "X"), ("P1", "X"), ("X", "C0"), ("S0", "C0"),
         ("X", "C1"), ("S1", "C1"))


def blanket_sample(n: int, seed: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """``n`` rows of a continuous target ``X`` with 2 discrete parents and
    2 children, each child with one spouse.  Discrete codes are 1..LEVELS.

    ``X`` is a sum of the parents plus Gaussian noise, so its values are
    almost surely all unique; each child follows the tercile of ``X``,
    shifted by its spouse, with 20% of rows replaced by noise.
    """
    rng = np.random.default_rng(seed)
    disc = {p: rng.integers(1, LEVELS + 1, size=n) for p in PARENTS}
    x = disc["P0"] + disc["P1"] + rng.normal(0.0, 1.0, size=n)
    tercile = np.searchsorted(np.quantile(x, [1 / 3, 2 / 3]), x)  # 0..2
    for child, spouse in zip(CHILDREN, SPOUSES):
        s = rng.integers(1, LEVELS + 1, size=n)
        noise = rng.integers(0, LEVELS, size=n)
        signal = np.where(rng.random(n) < 0.2, noise, tercile)
        disc[spouse] = s
        disc[child] = (signal + s) % LEVELS + 1
    return x, {k: v.astype(np.int64) for k, v in disc.items()}
