"""Log-space evaluation of the discretization objectives.

All combinatorial factors are evaluated with log-gamma; nothing computes a
raw factorial.  Besides the direct per-interval kernel, this module builds
the kernels over unique-value boundaries that the dynamic programs consume:
entry ``(u, v)`` covers sorted rows ``s_u + 1 .. s_v`` (with ``s_0 = 0``).
It also keeps the tables of ln Γ(k) and k·ln k over integer counts that the
K2 family score and the MDL kernel gather from.

A kernel is never built as one m×m array.  The builder walks the sorted rows
in chunks of at most :data:`BLOCK_ELEMENTS` terms (rows × live boundaries,
at least one row; a chunk may end inside a run of tied values) and yields
end-major chunks ``(v1, v2, K)`` in increasing end order: ``K[i, u]`` is
entry ``(u, v1 + i)`` for each interval end ``v1 + i`` whose last row falls
in the chunk, for at least every u < v2 − 1.  Each boundary's prefix sum over
the rows runs on across chunks: a chunk sets its first term to
``carry + t``, the add that ``np.cumsum`` itself makes there, so every entry
is bit for bit the one-boundary cumulative sum.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .counts import NeighborContext, interval_counts
from .dataset import SortedColumn
from .errors import ValidationError
from .policy import representations

#: Elements per chunk of the vectorized kernel builder (and so per block of
#: the Bayesian DP's candidates) and per block of the MDL DP's layers.  Each
#: of a block's temporaries then stays under 128 KiB: below glibc's default
#: mmap threshold, so it is reused from the heap instead of being mapped and
#: faulted in afresh, and small enough for a core's L2 cache.  A Bayesian
#: solve holds a few such blocks and O(m) per blanket block; columns with
#: m·n ≤ 16,000 run in one chunk.
BLOCK_ELEMENTS = 16_000


# ---------------------------------------------------------------------------
# Tables over integer counts
# ---------------------------------------------------------------------------

def _logs(lo: int, hi: int) -> np.ndarray:
    """ln k for k = lo..hi-1 (lo ≥ 1) by ``math.log``, the C library's log.
    ``np.log`` differs from it in the last bit on some integers."""
    return np.fromiter(map(math.log, range(lo, hi)), float, hi - lo)


def _klogk_entries(size: int) -> np.ndarray:
    """k·ln k for k = 0..size-1, with 0·ln 0 = 0."""
    out = np.zeros(size)
    out[1:] = np.arange(1, size) * _logs(1, size)
    return out


# The Cephes ``lgam`` routine, which ``scipy.special.gammaln`` runs.  Its
# bits matter: K2 compares family scores for exact ties (ties go to the larger
# name), and a score that moves in its last bit can turn a tie into a win, so
# any other ln Γ (``math.lgamma`` among them) changes learned graphs.
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)
_LGAM_LS2PI = 0.91893853320467274178  # ln √(2π)


def _log_gamma_entries(size: int) -> np.ndarray:
    """ln Γ(k) for k = 0..size-1 as Cephes ``lgam`` computes it: the log of
    the exact factorial (k-1)! below 13 (ln Γ(0) = inf), and above it the
    Stirling series, with a shorter tail from 1000 on and none above 1e8."""
    out = np.empty(size)
    out[:13] = [math.log(math.factorial(k - 1)) if k else math.inf
                for k in range(min(size, 13))]
    if size > 13:
        x = np.arange(13, size, dtype=float)
        q = (x - 0.5) * _logs(13, size) - x + _LGAM_LS2PI
        p = 1.0 / (x * x)
        poly = _LGAM_A[0]
        for a in _LGAM_A[1:]:
            poly = poly * p + a
        tail = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                + 0.0833333333333333333333)
        series = np.where(x >= 1000.0, tail, poly) / x
        out[13:] = np.where(x > 1.0e8, q, q + series)
    return out


#: Sizes of each table over integer counts, and values of m of the MDL
#: penalty tables, that are kept at once.
TABLE_SIZES = 16


def _count_table(entries):
    """``table(top)``: a read-only array that holds ``f(k)`` at index k for
    k = 0..top, where ``entries(size)`` gives ``f(k)`` for k = 0..size-1.
    Each entry is computed on its own, so tables of different sizes agree
    bit for bit where they overlap.  The last :data:`TABLE_SIZES` sizes are
    memoized: that bounds memory when many sizes occur (cross-validation
    folds, many cardinalities)."""
    @functools.lru_cache(maxsize=TABLE_SIZES)
    def table(top: int) -> np.ndarray:
        values = entries(top + 1)
        values.flags.writeable = False
        return values
    return table


#: ``log_gamma_table(top)[k]`` is ln Γ(k), bit-equal to ``gammaln(k)``.
log_gamma_table = _count_table(_log_gamma_entries)
#: ``klogk_table(top)[k]`` is k·ln k, bit-equal to ``xlogy(k, k)``.
klogk_table = _count_table(_klogk_entries)


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x·ln y elementwise, 0 where x is 0."""
    return np.array([a * math.log(b) if a else 0.0
                     for a, b in zip(x.flat, y.flat)]).reshape(x.shape)


def log_binom(n: int, r: int) -> float:
    """ln C(n, r) via log-gamma."""
    if r < 0 or n < 0 or r > n:
        raise ValidationError(f"invalid binomial C({n},{r})")
    return math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)


def log_multinomial(total: int, parts) -> float:
    """ln(total! / prod(parts!))."""
    parts = list(parts)
    if any(p < 0 for p in parts) or sum(parts) != total:
        raise ValidationError(f"multinomial parts {parts} do not sum to {total}")
    return math.lgamma(total + 1) - sum(math.lgamma(p + 1) for p in parts)


def neg_log1m_exp(z: float) -> float:
    """-ln(1 - exp(-z)) for z > 0, stable for tiny z."""
    if z <= 0:
        raise ValidationError("z must be positive")
    return -math.log(-math.expm1(-z))


def prior_terms(col: SortedColumn, lam, L: int) -> float:
    """Edge-placement prior plus interval-length penalty, in nats.

    ``lam`` is the cumulative-count representation (last entry n); the column
    must have a positive value range.
    """
    x = col.values
    rng = float(x[-1] - x[0])
    if rng <= 0:
        raise ValidationError("degenerate column: zero value range")
    lam = list(lam)
    total = 0.0
    for li in lam[:-1]:  # edge terms, i = 1..k-1
        gap = float(x[li] - x[li - 1])  # x_{λ+1} - x_{λ}, 1-based
        total += neg_log1m_exp(L * gap / rng)
    prev = 0
    for li in lam:  # length terms, i = 1..k with λ_0 = 0
        total += L * float(x[li - 1] - x[prev]) / rng  # x_{λ_i} - x_{λ_{i-1}+1}
        prev = li
    return total


def h(ctx: NeighborContext, u: int, v: int) -> float:
    """Per-interval objective kernel over sorted rows ``u..v`` (direct recount)."""
    val = 0.0
    for blk, table in zip(ctx.blocks, interval_counts(ctx, u, v)):
        for counts in table.T:
            n_cond = int(counts.sum())
            val += log_binom(n_cond + blk.j - 1, blk.j - 1)
            val += log_multinomial(n_cond, counts)
    return val


def objective(col: SortedColumn, ctx: NeighborContext, policy) -> float:
    """Negative log of prior times neighbor likelihood for a policy."""
    if col.uniques[0] == col.uniques[-1]:
        # degenerate column: only the single-interval policy is meaningful
        if policy.k != 1:
            raise ValidationError("degenerate column admits only k = 1")
        return float(ctx.L)
    lam, _ = representations(policy, col)
    total = prior_terms(col, lam, ctx.L)
    prev = 0
    for li in lam:
        total += h(ctx, prev + 1, int(li))
        prev = int(li)
    return total


# ---------------------------------------------------------------------------
# Kernels over unique-value boundaries, in end-major chunks
# ---------------------------------------------------------------------------

def _occurrence_before(codes: np.ndarray) -> np.ndarray:
    """G[r] = number of earlier rows with the same code."""
    order = np.argsort(codes, kind="stable")
    sc = codes[order]
    # a sorted row's rank within its code: its position less the code's first
    per_code = np.bincount(sc)
    out = np.empty(len(codes), dtype=np.int64)
    out[order] = np.arange(len(codes)) - (np.cumsum(per_code) - per_code)[sc]
    return out


def _boundary_counts(codes: np.ndarray, j: int, step: np.ndarray, m: int):
    """``counts(rows, U)``: for the sorted rows of slice ``rows`` and the
    boundaries u < U, the occurrences of each row's code (of ``j``) among the
    earlier rows of u's interval, or -(those from the row up to the interval)
    for a row before it.  Row r is first counted at boundary ``step[r]``."""
    inc = np.bincount(codes * (m + 1) + step, minlength=j * (m + 1)).reshape(j, m + 1)
    # CT[code, u]: rows before boundary u's interval with that code; one row's
    # counts over the live boundaries are then one contiguous gather
    G, CT = _occurrence_before(codes), np.cumsum(inc[:, :m], axis=1)
    return lambda rows, U: G[rows, None] - CT[codes[rows], :U]


def _kernel_chunks(ctx: NeighborContext, col: SortedColumn, block_term):
    """Per-row terms summed over each boundary interval, as the end-major
    chunks described in the module docstring, over the blocks of ``ctx``
    (see :mod:`dvbn.counts`): the joint parent configuration under a single
    condition, then each child given its spouses.  For a block of ``j``
    values, ``block_term(value, j)`` gives ``term(c_cell, c_cond, rows)``:
    the terms of the sorted rows of slice ``rows`` (axis 0) for each live
    boundary (axis 1), from the counts of each row's (value, condition) cell
    and condition among the interval's earlier rows.  Counts arrive raw: a
    row before a boundary's interval has both counts in ``-n..-1`` and must
    get the term +0.0.  Blocks of one value add nothing.

    Each blanket block keeps its own carries, and a chunk adds the blocks'
    prefix sums into its ends' rows from zeros, in block order."""
    m, n, s = col.m, ctx.n, col.last_occurrence
    b = np.concatenate(([0], s))  # b[u]: rows before boundary u's interval
    # live[r]: the boundaries whose interval starts before row r, for r <= n;
    # live[r + 1] is also the end v whose unique value holds row r, and
    # live[n + 1] = m + 1
    live = np.searchsorted(b, np.arange(n + 2))
    step = live[1:n + 1]  # the boundary at which row r is first counted
    blocks = [(block_term(value, j), _boundary_counts(cell, j * j_cond, step, m),
               _boundary_counts(cond, j_cond, step, m) if j_cond > 1 else None,
               np.zeros(m))
              for value, j, cond, j_cond, cell in ctx.blocks if j > 1]
    r1 = 0
    while r1 < n:
        # the most rows whose terms over their live boundaries fit one block
        fit = np.arange(1, n - r1 + 1) * live[r1 + 1:n + 1]
        r2 = r1 + max(1, int(fit.searchsorted(BLOCK_ELEMENTS, side="right")))
        # U boundaries are live; the ends v1..v2-1 have their last row here
        rows, U, v1, v2 = slice(r1, r2), int(live[r2]), int(live[r1 + 1]), int(live[r2 + 1])
        K = np.zeros((v2 - v1, U))
        # with every value unique (m == n) each row is an end
        last = None if m == n else s[v1 - 1:v2 - 1] - 1 - r1
        for term, cell_counts, cond_counts, carry in blocks:
            c_cond = (np.arange(r1, r2)[:, None] - b[:U] if cond_counts is None
                      else cond_counts(rows, U))
            terms = term(cell_counts(rows, U), c_cond, rows)
            terms[0] += carry[:U]  # carry + t, the add np.cumsum would make
            csum = np.cumsum(terms, axis=0, out=terms)
            carry[:U] = csum[-1]
            K += csum if last is None else np.take(csum, last, axis=0)
        if v2 > v1:
            yield v1, v2, K
        r1 = r2


def h_matrix(ctx: NeighborContext, col: SortedColumn):
    """Bayesian kernel over all boundary intervals, as end-major chunks
    ``(v1, v2, K)`` in increasing end order: ``K[i, u]`` is
    ``h(s_u + 1, s_v)`` for the end v = v1 + i and each u < v.  ``K`` has at
    least v2 - 1 columns, and its entries with u ≥ v are 0."""
    n = ctx.n

    def block_term(value, j):
        # ln(c + i) by np.log (math.log differs in the last bit on some
        # integers) for the counts c = 0..n-1, then n zeros for -n..-1
        t_cond, t_cell = (np.concatenate((np.log(np.arange(i, n + i)), np.zeros(n)))
                          for i in (j, 1))
        return lambda c_cell, c_cond, rows: t_cond[c_cond] - t_cell[c_cell]
    return _kernel_chunks(ctx, col, block_term)


def mdl_h_matrix(ctx: NeighborContext, col: SortedColumn):
    """Negated per-interval mutual-information contributions, as chunks laid
    out like :func:`h_matrix`'s.  Summed over a partition this equals
    ``-n·[I(X,Pa) + Σ_j I(C_j, Pa(C_j))]`` up to terms constant in the policy."""
    log_n = math.log(ctx.n)
    # phi[c] = (c+1)ln(c+1) - c ln c for the counts c = 0..n; counts in
    # -n..-1 index it from its end, and their terms, whose log_n - log_m is
    # not 0, are then replaced by 0
    phi = np.diff(klogk_table(ctx.n + 1))

    def block_term(value, j):
        log_m = np.log(np.maximum(np.bincount(value, minlength=j), 1))

        def term(c_cell, c_cond, rows):
            # -(phi[c_cell] - log_m - phi[c_cond] + log_n), in place
            t = phi[c_cell]
            t -= log_m[value[rows], None]
            t -= phi[c_cond]
            t += log_n
            np.negative(t, out=t)
            t[c_cond < 0] = 0.0
            return t
        return term
    return _kernel_chunks(ctx, col, block_term)


def mdl_interval_term(ctx: NeighborContext, a: int, b: int) -> float:
    """Direct (non-incremental) evaluation of one MDL interval contribution."""
    total = 0.0
    for blk, table in zip(ctx.blocks, interval_counts(ctx, a, b)):
        if blk.j <= 1:
            continue
        M = np.bincount(blk.value, minlength=blk.j)
        t = table.sum(axis=0)                 # interval counts per condition
        denom = np.maximum(np.outer(M, np.maximum(t, 1)), 1)
        total += float(np.sum(_xlogy(table, table * ctx.n / denom)))
    return -total
