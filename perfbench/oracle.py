"""Reference computations for the benchmark's output checks.

Plain Python over lists, ``bisect`` and ``math.lgamma``: nothing here imports
or mirrors the package, so a fault in the package's counting, kernels or
likelihoods cannot cancel out of a check.  Discrete values are codes
``1..card``; a policy is its sorted edge list, and a value ``v`` falls in
interval ``1 + #{edges <= v}``.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter


def interval(v: float, edges) -> int:
    """1-based interval of ``v``; a value equal to an edge goes above it."""
    return bisect.bisect_right(edges, v) + 1


def equal_width_edges(lo: float, hi: float, k: int) -> list[float]:
    return [lo + j * (hi - lo) / k for j in range(1, k)]


def snapped(edges, xs) -> list[float]:
    """Midpoint edges splitting the sorted values ``xs`` into the same rows
    as ``edges`` do, with empty intervals removed."""
    cuts = sorted({bisect.bisect_left(xs, e) for e in edges} - {0, len(xs)})
    return [(xs[c - 1] + xs[c]) / 2 for c in cuts]


def _lbinom(n: int, r: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)


def _rows(cols, n: int) -> list[tuple]:
    """Per-row tuples of several discrete columns."""
    return list(zip(*cols)) if cols else [()] * n


def bayes_objective(x, parents, children, edges, L: int) -> float:
    """Negative log of prior times blanket likelihood of a policy.

    ``parents`` is ``[(values, card)]``; ``children`` is
    ``[(values, card, spouses)]`` with spouses as ``[(values, card)]``.
    """
    n = len(x)
    xs = sorted(x)
    rng = xs[-1] - xs[0]
    lam = [bisect.bisect_left(xs, e) for e in edges] + [n]
    total = 0.0
    for li in lam[:-1]:
        total -= math.log(-math.expm1(-L * (xs[li] - xs[li - 1]) / rng))
    prev = 0
    for li in lam:
        total += L * (xs[li - 1] - xs[prev]) / rng
        prev = li

    k = len(edges) + 1
    iv = [interval(v, edges) for v in x]
    jp = math.prod(c for _, c in parents)
    ptup = _rows([v for v, _ in parents], n)
    size = Counter(iv)
    pcnt = Counter(zip(iv, ptup))
    for i in range(1, k + 1):
        g = size[i]
        total += _lbinom(g + jp - 1, jp - 1) + math.lgamma(g + 1)
    for c in pcnt.values():
        total -= math.lgamma(c + 1)
    for cvals, ccard, spouses in children:
        stup = _rows([v for v, _ in spouses], n)
        ctx = Counter(zip(iv, stup))                 # rows per (interval, spouses)
        cc = Counter(zip(iv, stup, cvals))
        for cnt in ctx.values():
            total += _lbinom(cnt + ccard - 1, ccard - 1) + math.lgamma(cnt + 1)
        for cnt in cc.values():
            total -= math.lgamma(cnt + 1)
    return total


def _n_mutual_info(a, b) -> float:
    n = len(a)
    joint = Counter(zip(a, b))
    ca, cb = Counter(a), Counter(b)
    return sum(c * math.log(c * n / (ca[u] * cb[w])) for (u, w), c in joint.items())


def mdl_objective(x, parents, children, edges) -> float:
    """Description length of the policy minus n times the blanket's mutual
    information with the discretized target."""
    n = len(x)
    m = len(set(x))
    k = len(edges) + 1
    params = math.prod(c for _, c in parents) * (k - 1)
    for _, ccard, spouses in children:
        params += math.prod(c for _, c in spouses) * k * (ccard - 1)
    total = 0.5 * math.log(n) * params + math.log(k)
    p = (k - 1) / (m - 1) if m > 1 else 0.0
    if 0.0 < p < 1.0:
        total -= (m - 1) * (p * math.log(p) + (1 - p) * math.log(1 - p))
    iv = [interval(v, edges) for v in x]
    if math.prod(c for _, c in parents) > 1:
        total -= _n_mutual_info(iv, _rows([v for v, _ in parents], n))
    for cvals, ccard, spouses in children:
        if ccard > 1:
            rest = _rows([iv] + [v for v, _ in spouses], n)
            total -= _n_mutual_info(list(cvals), rest)
    return total


def neighbour_policies(edges, mids) -> list[list[float]]:
    """Policies one move away: one edge dropped, or one edge shifted to the
    adjacent midpoint on either side (when that keeps edges distinct)."""
    edges = list(edges)
    pos = {e: i for i, e in enumerate(mids)}
    out = [edges[:i] + edges[i + 1:] for i in range(len(edges))]
    for i, e in enumerate(edges):
        for j in (pos[e] - 1, pos[e] + 1):
            if 0 <= j < len(mids) and mids[j] not in edges:
                out.append(sorted(edges[:i] + [mids[j]] + edges[i + 1:]))
    return out


def family_score(child, r: int, parents) -> float:
    """Dirichlet (all alphas 1) log marginal likelihood of one family;
    ``parents`` is ``[(values, card)]``.  Unseen parent configurations add 0."""
    n = len(child)
    ptup = _rows([v for v, _ in parents], n)
    total = 0.0
    for c in Counter(ptup).values():
        total += math.lgamma(r) - math.lgamma(r + c)
    for c in Counter(zip(ptup, child)).values():
        total += math.lgamma(1 + c)
    return total


def greedy_gains(child, r: int, parents: dict) -> list[tuple[str, float]]:
    """Replay greedy parent addition restricted to the accepted parent set.

    K2 adds, at each step, the candidate with the best family score among all
    predecessors, so among the accepted parents it also picks the best.
    Returns ``(parent, score gain)`` in the replayed acceptance order.
    """
    chosen: list[str] = []
    cur = family_score(child, r, [])
    out = []
    left = sorted(parents)
    while left:
        scored = [(family_score(child, r, [parents[p] for p in chosen + [q]]), q)
                  for q in left]
        best, q = max(scored)
        out.append((q, best - cur))
        chosen.append(q)
        left.remove(q)
        cur = best
    return out


def fold_loglik(columns: dict, cards: dict, parents: dict, policies: dict,
                train, test) -> float:
    """Held-out log-likelihood per test row of a fixed network.

    ``columns`` holds raw values (discrete codes, or reals for the keys of
    ``policies``, each ``(edges, lo, hi)`` fit on the training rows).
    Families use add-one (Dirichlet 1) smoothing of training counts; each
    continuous value adds ``-log(width)`` of its interval, with the end
    intervals bounded by the training range.
    """
    codes, k = {}, dict(cards)
    for name, vals in columns.items():
        if name in policies:
            edges = policies[name][0]
            codes[name] = [interval(v, edges) for v in vals]
            k[name] = len(edges) + 1
        else:
            codes[name] = list(vals)
    total = 0.0
    for x, pa in parents.items():
        r = k[x]
        key = [tuple(codes[p][i] for p in pa) for i in range(len(codes[x]))]
        n_cfg = Counter(key[i] for i in train)
        n_val = Counter((key[i], codes[x][i]) for i in train)
        for i in test:
            total += math.log((1 + n_val[(key[i], codes[x][i])]) / (r + n_cfg[key[i]]))
    for name, (edges, lo, hi) in policies.items():
        bounds = [lo] + list(edges) + [hi]
        for i in test:
            j = codes[name][i]
            total -= math.log(bounds[j] - bounds[j - 1])
    return total / len(test)
