"""Sufficient statistics for the discretization objectives.

The neighbor context flattens a target variable's Markov blanket into
per-row integer codes, aligned with the target's sorted sample order.  Count
tables over any contiguous interval of sorted rows are then cheap bincounts,
and interval sweeps can extend counts one row at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DiscreteDataset, SortedColumn
from .errors import ValidationError
from .graph import Dag


@dataclass(frozen=True)
class ChildGroup:
    """Per-child flattened codes: child value and joint spouse instantiation."""

    j_child: int
    j_spouse: int
    child_codes: np.ndarray   # 0-based, sorted-row order
    spouse_codes: np.ndarray  # 0-based joint spouse codes
    pair_codes: np.ndarray    # 0-based joint (spouses, child), child most significant


@dataclass(frozen=True)
class NeighborContext:
    n: int
    j_parent: int
    parent_codes: np.ndarray  # 0-based joint parent codes, sorted-row order
    children: list[ChildGroup]
    L: int


def joint_codes(columns: list[np.ndarray], cards: list[int], n: int) -> tuple[np.ndarray, int]:
    """Mixed-radix code of ``n`` rows of 1-based columns, the first column
    least significant, and the number of joint configurations."""
    codes = np.zeros(n, dtype=np.int64)
    radix = 1
    for col, card in zip(columns, cards):
        codes += (col - 1) * radix
        radix *= card
    return codes, radix


def family_counts(d_star: DiscreteDataset, x: str, parents) -> np.ndarray:
    """``(q, r)`` counts of x's values per joint configuration of ``parents``."""
    names = [x, *parents]
    r = d_star.cardinalities[x]
    codes, qr = joint_codes([d_star.columns[v] for v in names],
                            [d_star.cardinalities[v] for v in names], d_star.n_rows)
    return np.bincount(codes, minlength=qr).reshape(qr // r, r)


def _checked_column(d_star: DiscreteDataset, name: str, perm: np.ndarray) -> np.ndarray:
    col = d_star.columns[name][perm]
    card = d_star.cardinalities[name]
    if np.any(col < 1) or np.any(col > card):
        raise ValidationError(f"column {name!r} has values outside 1..{card}")
    return col


def build_context(d_star: DiscreteDataset, g: Dag, x: str, col: SortedColumn) -> NeighborContext:
    """Flatten x's Markov blanket into sorted-row codes.

    All variables other than ``x`` must be discrete in ``d_star`` and its rows
    must align with ``col.permutation``.
    """
    parents, children, spouses = g.neighbors_for_discretization(x)
    perm = col.permutation
    n = len(perm)
    cards = d_star.cardinalities
    parents = sorted(parents)
    parent_codes, j_parent = joint_codes(
        [_checked_column(d_star, p, perm) for p in parents], [cards[p] for p in parents], n)
    groups = []
    for child, spouse_set in zip(children, spouses):
        ccol = _checked_column(d_star, child, perm)
        names = sorted(spouse_set)
        scols = [_checked_column(d_star, s, perm) for s in names]
        scards = [cards[s] for s in names]
        spouse_codes, j_spouse = joint_codes(scols, scards, n)
        pair_codes, _ = joint_codes(scols + [ccol], scards + [cards[child]], n)
        groups.append(ChildGroup(cards[child], j_spouse, ccol - 1,
                                 spouse_codes, pair_codes))
    L = g.markov_blanket_max_cardinality(x)
    return NeighborContext(n=n, j_parent=j_parent,
                           parent_codes=parent_codes, children=groups, L=L)


@dataclass(frozen=True)
class CountTable:
    """Counts over one interval of sorted rows."""

    parent_counts: np.ndarray                      # (J_P,)
    child_tables: list[np.ndarray]                 # (J_C, J_S) per child


def interval_counts(ctx: NeighborContext, a: int, b: int) -> CountTable:
    """Counts over sorted rows ``a..b`` (1-based, inclusive)."""
    if not (1 <= a <= b <= ctx.n):
        raise ValidationError(f"invalid interval [{a},{b}] for n={ctx.n}")
    sl = slice(a - 1, b)
    parent_counts = np.bincount(ctx.parent_codes[sl], minlength=ctx.j_parent)
    tables = []
    for grp in ctx.children:
        flat = np.bincount(grp.pair_codes[sl], minlength=grp.j_child * grp.j_spouse)
        tables.append(flat.reshape(grp.j_child, grp.j_spouse))
    return CountTable(parent_counts, tables)
