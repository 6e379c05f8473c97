"""Sufficient statistics for the discretization objectives.

The neighbor context flattens a target variable's Markov blanket into a list
of uniform blocks of per-row integer codes, aligned with the target's sorted
sample order.  Each block is one factor of the objectives: a value counted
under a condition.  Block 0 is the joint parent configuration under a single
condition; each later block is one child given its joint spouse
configuration.  Count tables over any contiguous interval of sorted rows are
then cheap bincounts, and interval sweeps can extend counts one row at a
time.  One mixed-radix encoder, :func:`prefix_codes`, codes every joint
configuration: a blanket block or a family takes its last entry through
:func:`column_codes`, and a K2 ranking reads every prefix of one pass over
the family.  Every cardinality, the prior's L included, comes from the
discretized data, not from the graph.  No code is checked here: a
``DiscreteDataset`` checks its codes once, when it is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import DiscreteDataset, SortedColumn
from .errors import ValidationError
from .graph import Dag


class Block(NamedTuple):
    """One factor of the blanket: a value code given a condition code, both
    0-based and in sorted-row order."""

    value: np.ndarray   # the factor's value
    j: int              # number of values
    cond: np.ndarray    # the condition it is counted under
    j_cond: int         # number of conditions
    cell: np.ndarray    # joint (condition, value), value most significant


@dataclass(frozen=True)
class NeighborContext:
    n: int
    blocks: list[Block]  # x's parents under one condition, then each child
    L: int               # largest cardinality in the blanket (2 if empty)


def prefix_codes(columns: list[np.ndarray], cards: list[int],
                 n: int) -> tuple[list[np.ndarray], list[int]]:
    """Mixed-radix codes of every prefix of ``n`` rows of 1-based columns,
    the first column least significant: entry i of the code list and of the
    radix list belong to ``columns[:i]``, so entry 0 is all zeros with radix
    1 and the last entry is the full code."""
    codes, radix = [np.zeros(n, dtype=np.int64)], [1]
    for col, card in zip(columns, cards):
        code = (col - 1) * radix[-1]
        code += codes[-1]
        codes.append(code)
        radix.append(radix[-1] * card)
    return codes, radix


def column_codes(d_star: DiscreteDataset, names) -> tuple[np.ndarray, int]:
    """Mixed-radix code of the named columns of ``d_star``, the first name
    least significant, and the number of joint configurations: the last
    entry of :func:`prefix_codes`."""
    codes, radix = prefix_codes([d_star.columns[v] for v in names],
                                [d_star.cardinalities[v] for v in names], d_star.n_rows)
    return codes[-1], radix[-1]


def family_counts(d_star: DiscreteDataset, x: str, parents) -> np.ndarray:
    """``(q, r)`` counts of x's values per joint configuration of ``parents``."""
    r = d_star.cardinalities[x]
    codes, qr = column_codes(d_star, [x, *parents])
    return np.bincount(codes, minlength=qr).reshape(qr // r, r)


def build_context(d_star: DiscreteDataset, g: Dag, x: str, col: SortedColumn) -> NeighborContext:
    """Flatten x's Markov blanket into sorted-row codes.

    ``g`` gives only the blanket's shape; every cardinality, L included, is
    read from ``d_star``.  All variables other than ``x`` must be discrete in
    ``d_star`` and its rows must align with ``col.permutation``; a ``col``
    with another row count is a :class:`ValidationError`.
    """
    if col.n != d_star.n_rows:
        raise ValidationError(f"sorted column has {col.n} rows, the data {d_star.n_rows}")
    parents, children, spouses = g.neighbors_for_discretization(x)
    perm = col.permutation
    n = len(perm)
    columns, cards = d_star.columns, d_star.cardinalities
    value, j = column_codes(d_star, sorted(parents))
    value = value[perm]
    blocks = [Block(value, j, np.zeros(n, dtype=np.int64), 1, value)]
    for child, spouse_set in zip(children, spouses):
        value = columns[child][perm] - 1
        cond, j_cond = column_codes(d_star, sorted(spouse_set))
        cond = cond[perm]
        blocks.append(Block(value, cards[child], cond, j_cond, cond + value * j_cond))
    return NeighborContext(n, blocks, max((cards[b] for b in g.markov_blanket(x)), default=2))


def interval_counts(ctx: NeighborContext, a: int, b: int) -> list[np.ndarray]:
    """Per block, the ``(j, j_cond)`` counts over sorted rows ``a..b``
    (1-based, inclusive)."""
    if not (1 <= a <= b <= ctx.n):
        raise ValidationError(f"invalid interval [{a},{b}] for n={ctx.n}")
    sl = slice(a - 1, b)
    return [np.bincount(cell[sl], minlength=j * j_cond).reshape(j, j_cond)
            for _, j, _, j_cond, cell in ctx.blocks]
