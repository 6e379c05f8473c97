"""Discretization policies: edge lists and their integer representations.

A policy maps a real value to an interval index in ``1..k`` via a strictly
increasing edge list; values below the first edge map to 1 and values at or
above the last edge map to k, so out-of-range inputs clamp to end intervals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import SortedColumn
from .errors import ValidationError


@dataclass(frozen=True)
class DiscretizationPolicy:
    edges: tuple[float, ...]
    domain_min: float
    domain_max: float

    def __post_init__(self):
        e = self.edges
        if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
            raise ValidationError("edges must be strictly increasing")

    @property
    def k(self) -> int:
        return len(self.edges) + 1

    def apply_array(self, xs: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.edges, xs, side="right").astype(np.int64) + 1

    def interval_width(self, i: int) -> float:
        """Width of interval ``i`` with end intervals bounded by the training domain."""
        bounds = (self.domain_min,) + self.edges + (self.domain_max,)
        return bounds[i] - bounds[i - 1]

    def to_json(self, variable: str | None = None) -> str:
        doc = {"edges": list(self.edges), "domain": [self.domain_min, self.domain_max]}
        if variable is not None:
            doc = {"variable": variable, **doc}
        return json.dumps(doc, indent=2)


def midpoint_candidates(col: SortedColumn) -> np.ndarray:
    """Midpoints between consecutive unique values; the only legal edge sites."""
    u = col.uniques
    return (u[:-1] + u[1:]) / 2.0


def representations(p: DiscretizationPolicy, col: SortedColumn):
    """Cumulative (λ) and per-interval (γ) sample counts for a policy.

    Every edge must fall strictly between two consecutive unique values of the
    column (the midpoint restriction).
    """
    n = col.n
    lam = []
    for e in p.edges:
        lo = int(np.searchsorted(col.values, e, side="left"))
        hi = int(np.searchsorted(col.values, e, side="right"))
        if lo != hi:
            raise ValidationError(f"edge {e} coincides with a sample value")
        if lo == 0 or lo == n:
            raise ValidationError(f"edge {e} falls outside the data range")
        lam.append(lo)
    lam.append(n)
    lam_arr = np.array(lam, dtype=np.int64)
    gam = np.diff(np.concatenate(([0], lam_arr)))
    return lam_arr, gam


def policy_from_lambda(lam: np.ndarray, col: SortedColumn) -> DiscretizationPolicy:
    """Reconstruct the midpoint-edge policy whose cumulative counts are ``lam``."""
    edges = []
    for l in lam[:-1]:
        if l <= 0 or l >= col.n:
            raise ValidationError(f"λ value {l} out of range")
        lo, hi = col.values[l - 1], col.values[l]
        if lo == hi:
            raise ValidationError(f"λ value {l} does not sit on a unique boundary")
        edges.append((lo + hi) / 2.0)
    return DiscretizationPolicy(tuple(edges), float(col.values[0]), float(col.values[-1]))


def equal_width(col: SortedColumn, k: int) -> DiscretizationPolicy:
    """Equal-width policy with ``k`` intervals over the training range.

    Edges that land exactly on a sample value are nudged to the nearest
    midpoint candidate so every policy stays in the midpoint candidate space;
    a degenerate column yields the single-interval policy.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    lo, hi = float(col.uniques[0]), float(col.uniques[-1])
    if hi == lo:
        return DiscretizationPolicy((), lo, hi)
    raw = [lo + j * (hi - lo) / k for j in range(1, k)]
    mids = midpoint_candidates(col)
    edges = []
    for e in raw:
        if np.any(col.values == e):
            e = float(mids[np.argmin(np.abs(mids - e))])
        if lo < e < hi and (not edges or e > edges[-1]):
            edges.append(e)
    return DiscretizationPolicy(tuple(edges), lo, hi)
