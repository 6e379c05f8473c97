"""Single-variable optimal discretization.

Two exact solvers over the midpoint candidate space: a quadratic dynamic
program for the Bayesian objective, and a layered (cubic) dynamic program for
the MDL baseline.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .counts import NeighborContext, build_context
from .dataset import DiscreteDataset, SortedColumn
from .errors import DataError, ValidationError
from .graph import Dag
from .policy import DiscretizationPolicy, representations
from .scoring import (BLOCK_ELEMENTS, TABLE_SIZES, _logs, h_matrix, mdl_h_matrix,
                      mdl_interval_term, neg_log1m_exp)

#: Largest total size, in bytes, of the dense m×m float64 arrays that the MDL
#: DP may allocate (m = unique values of the column): 1 GiB admits its arrays
#: for up to 9,455 unique values.  Larger requests raise :class:`DataError`
#: before anything is allocated.  The kernels stream in chunks, and the
#: Bayesian solve holds no m×m array and has no such bound.
MAX_DENSE_BYTES = 1 << 30


def _policy(col: SortedColumn, edges: tuple[float, ...] = ()) -> DiscretizationPolicy:
    return DiscretizationPolicy(edges, float(col.values[0]), float(col.values[-1]))


def bayes_dp(col: SortedColumn, chunks, L: int):
    """Optimal-prefix recursion over unique-value boundaries.

    ``chunks`` is the Bayesian kernel as :func:`dvbn.scoring.h_matrix` yields
    it: end-major chunks ``(v1, v2, K)`` in increasing end order, ``K[i, u]``
    the interval kernel over rows ``s_u+1..s_v`` for v = v1 + i and every
    u < v2 - 1.  Returns ``(edges, S, back, W)``: the optimal policy's edges,
    ``S[v]`` the best objective over rows ``1..s_v`` (``S[0] = 0``),
    ``back[v]`` its last split boundary u (0 = a single interval) and ``W[v]``
    the edge penalty after unique v (``W[m] = 0``).  Ties prefer the larger
    split index (fewer, later edges).  A gap whose ``L·gap/range`` underflows
    to 0, or a range whose ``L/range`` overflows, is a :class:`DataError`.

    Each chunk is consumed as it arrives: it forms every
    ``(W[v] + K[i, u]) + Lr·(u_v - u_u)`` of its ends at once, last split
    first; each v then adds ``S[u]``, also kept last first, and takes one
    argmin, whose first hit is the larger u.  The single interval adds
    ``S[0] = 0``, which leaves its candidate (never -0.0) as is.
    """
    u0 = col.uniques
    m = col.m
    rng = float(u0[-1] - u0[0])
    if rng <= 0:
        raise ValidationError("degenerate column has no DP to run")
    Lr = L / rng
    if math.isinf(Lr):
        raise DataError("the range of its values is too small for the prior")

    # W[1..m-1]; each argument L·gap/rng rounds exactly as in scalar floats
    z = (L * np.diff(u0) / rng).tolist()
    if min(z) == 0.0:
        raise DataError("a gap between its values underflows relative to its range")
    W = [0.0, *map(neg_log1m_exp, z), 0.0]

    rS = np.zeros(m + 1)  # rS[m-v] = S[v]
    back = [0] * (m + 1)
    Wv = np.array(W)
    for v1, v2, K in chunks:
        # row i: the candidates u = v2-2..0 of v = v1 + i, before S[u]
        cand = np.add(K[:, v2 - 2::-1], Wv[v1:v2, None])
        cand += Lr * (u0[v1 - 1:v2 - 1, None] - u0[v2 - 2::-1])
        for v, c in zip(range(v1, v2), cand):
            c = c[v2 - 1 - v:]
            c += rS[m - v + 1:]
            t = int(c.argmin())
            rS[m - v] = c[t]
            back[v] = v - 1 - t
    return _edges_from_back(back, col), rS[::-1].tolist(), back, W


def _edges_from_back(back: list[int], col: SortedColumn) -> tuple[float, ...]:
    u0 = col.uniques
    edges = []
    v = len(back) - 1
    while back[v] != 0:
        u = back[v]
        edges.append(float(u0[u - 1] + u0[u]) / 2.0)
        v = u
    return tuple(reversed(edges))


# ---------------------------------------------------------------------------
# MDL baseline
# ---------------------------------------------------------------------------

def _param_counts(ctx: NeighborContext) -> tuple[int, int]:
    """The exact integers ``(a, b)`` such that a policy with k intervals has
    ``a·k − b`` free parameters in ``x``'s family and its children's."""
    q = ctx.blocks[0].j  # joint parent configurations
    return q + sum(blk.j_cond * (blk.j - 1) for blk in ctx.blocks[1:]), q


@functools.lru_cache(maxsize=TABLE_SIZES)
def _interval_count_terms(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables of the k-dependent MDL terms that depend on m alone:
    ``ln k`` for k = 1..m, and ``(m − 1)·H((k − 1)/(m − 1))`` for
    k = 2..m−1, H the binary entropy in nats.  Each log is ``math.log``'s,
    and each product and sum is the scalar formula's, in its order.  The
    last :data:`TABLE_SIZES` values of m are memoized, as the count tables
    are."""
    log_k = _logs(1, m + 1)
    p = np.arange(1, m - 1) / (m - 1)  # p = (k − 1)/(m − 1), k = 2..m−1
    q = 1 - p
    log_p = np.fromiter(map(math.log, p.tolist()), float, len(p))
    log_q = np.fromiter(map(math.log, q.tolist()), float, len(q))
    entropy = (m - 1) * (-p * log_p - q * log_q)
    log_k.flags.writeable = entropy.flags.writeable = False
    return log_k, entropy


def _penalties(m: int, n: int, a: int, b: int) -> list[float]:
    """The k-dependent MDL terms for k = 1..m: ``0.5·ln n·(a·k − b) + ln k``
    plus ``(m − 1)·H((k − 1)/(m − 1))``, which is 0 at k = 1 and k = m and
    is left out there."""
    log_k, entropy = _interval_count_terms(m)
    out = 0.5 * math.log(n) * (a * np.arange(1, m + 1) - b)
    out += log_k
    out[1:m - 1] += entropy
    return out.tolist()


def mdl_penalty(k: int, m: int, ctx: NeighborContext) -> float:
    """Terms of the MDL objective that depend only on the interval count."""
    return _penalties(m, ctx.n, *_param_counts(ctx))[k - 1]


def mdl_objective(policy: DiscretizationPolicy, col: SortedColumn,
                  ctx: NeighborContext) -> float:
    """Description length plus negated mutual-information fit for a policy."""
    if policy.k > col.m:
        raise ValidationError("more intervals than unique values")
    total = mdl_penalty(policy.k, col.m, ctx)
    lam, _ = representations(policy, col)
    prev = 0
    for li in lam:
        total += mdl_interval_term(ctx, prev + 1, int(li))
        prev = int(li)
    return total


def _mdl_block_elements(m: int) -> int:
    """Elements of :func:`mdl_dp`'s layer buffer: the largest layer, or one
    block of :data:`BLOCK_ELEMENTS`, but never less than one row."""
    return min((m - 1) ** 2, max(BLOCK_ELEMENTS, m - 1))


def mdl_dp_elements(m: int) -> int:
    """8-byte elements that :func:`mdl_dp` holds at its peak for a column of
    m unique values: the end-major kernel, the best sums of every layer,
    one layer block of at most :data:`BLOCK_ELEMENTS`, a few m-vectors, and
    the iterator buffers (``np.getbufsize()`` elements per operand) of a
    block's strided add."""
    return (m * m + m * (m + 1) // 2 + _mdl_block_elements(m) + 8 * m
            + 3 * np.getbufsize())


def mdl_dp(col: SortedColumn, chunks, ctx: NeighborContext):
    """Layered DP: exact best interval-sum for every interval count k.

    ``chunks`` is the MDL kernel as :func:`dvbn.scoring.mdl_h_matrix` yields
    it, laid out as :func:`bayes_dp` reads its kernel.  Returns
    ``(edges, total, per_k_totals)`` where ``per_k_totals[k-1]`` is the full
    MDL objective of the best k-interval policy.

    A layer whose candidates fit in :data:`BLOCK_ELEMENTS` is one add and one
    row minimum.  A larger layer goes in row blocks ``[j1, j2)`` of at most
    that many elements, each over only the columns ``[r-j2, r)`` that hold
    its live splits: every column left out is a split past the end of each
    row.  Every layer's best sums are kept, and no split: the best k's path
    is found afterwards, one end per layer, by redoing that end's add and
    taking the argmin of its row, whose first hit is the larger split.
    """
    m = col.m
    u0 = col.uniques
    need = 8 * mdl_dp_elements(m)
    if need > MAX_DENSE_BYTES:
        raise DataError(f"a column with {m} unique values needs {need / 2**30:.1f} GiB for "
                        f"the MDL layers, over the {MAX_DENSE_BYTES / 2**30:g} GiB budget")
    # hT[v-1, i] covers the interval that ends at v from split u = m-1-i, so
    # the candidates of one end are a contiguous row and argmin's first hit
    # is the larger u.  Splits past the end (u > v-1) are meaningless: poison
    # them.
    hT = np.empty((m, m))
    for v1, v2, K in chunks:
        hT[v1 - 1:v2 - 1, m + 1 - v2:] = K[:, v2 - 2::-1]
    del K  # the last chunk, not held through the layers
    for r in range(m - 1):
        hT[r, :m - 1 - r] = np.inf
    pen = _penalties(m, ctx.n, *_param_counts(ctx))

    # the r = m-k+1 best sums of layer k, over the ends v = k..m, start at
    # r(r-1)/2
    sums = np.empty(m * (m + 1) // 2)
    s = sums[m * (m - 1) // 2:]
    s[:] = hT[:, m - 1]                    # k = 1: single interval over prefix
    per_k = [pen[0] + float(s[m - 1])]
    buf = np.empty(_mdl_block_elements(m))
    for k in range(2, m + 1):
        r = m - k + 1
        # row j: candidates u = m-1 .. k-1 for end v = k+j; prev holds layer
        # k-1's best sums over the prefixes that end at those u.  Only the last
        # j+1 columns of row j are live splits.  A layer that fits one block
        # skips the block loop: through the loop, whose bookkeeping (bounds,
        # a copy) costs a few us a layer, the MDL solves of Wine and Iris,
        # all of them small, took 14-16% longer.
        prev, s = s[-2::-1], sums[r * (r - 1) // 2:r * (r + 1) // 2]
        if r * r <= BLOCK_ELEMENTS:
            a = np.add(hT[k - 1:, :r], prev, out=buf[:r * r].reshape(r, r))
            np.minimum.reduce(a, axis=1, out=s)
        else:
            prev = np.ascontiguousarray(prev)
            j1 = 0
            while j1 < r:
                # the most rows [j1, j2) whose live columns [r-j2, r) fit
                j2 = (j1 + math.isqrt(j1 * j1 + 4 * BLOCK_ELEMENTS)) // 2
                j2 = min(r, max(j1 + 1, j2))
                c = r - j2
                a = np.add(hT[k - 1 + j1:k - 1 + j2, c:r], prev[c:],
                           out=buf[:(j2 - j1) * j2].reshape(j2 - j1, j2))
                np.minimum.reduce(a, axis=1, out=s[j1:j2])
                j1 = j2
        per_k.append(pen[k - 1] + float(s[r - 1]))

    best_total = min(per_k)  # its first hit is the smaller k
    best_k = per_k.index(best_total) + 1
    edges = []
    v = m
    for k in range(best_k, 1, -1):
        # end v's row of layer k, as the layer added it; a split past the
        # end is +inf there and never the minimum
        r = m - k + 1
        prev = sums[r * (r + 1) // 2:(r + 1) * (r + 2) // 2][-2::-1]
        u = m - 1 - int((hT[v - 1, :r] + prev).argmin())
        edges.append(float(u0[u - 1] + u0[u]) / 2.0)
        v = u
    return tuple(reversed(edges)), best_total, per_k


def check_method(method: str) -> None:
    """Raise unless ``method`` names one of the two objectives."""
    if method not in ("bayes", "mdl"):
        raise ValidationError(f"unknown discretization method {method!r}")


def discretize_one(d_star: DiscreteDataset, g: Dag, x: str, col: SortedColumn,
                   method: str = "bayes") -> DiscretizationPolicy:
    """Globally optimal policy for ``x`` given its blanket in ``d_star``: the
    Bayesian boundary DP, or the MDL layered DP over all interval counts."""
    check_method(method)
    if col.m == 1:
        return _policy(col)
    ctx = build_context(d_star, g, x, col)
    if method == "bayes":
        try:
            return _policy(col, bayes_dp(col, h_matrix(ctx, col), ctx.L)[0])
        except DataError as e:
            raise DataError(f"variable {x!r}: {e}") from e
    return _policy(col, mdl_dp(col, mdl_h_matrix(ctx, col), ctx)[0])
