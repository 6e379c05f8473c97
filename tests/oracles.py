"""Independent reference implementations used only by the tests.

The objective oracles are computed with plain Python loops, tuples, and
``math.lgamma``; nothing is shared with the package beyond log-gamma itself,
and they take raw value lists, not package data structures.  The K2
reference loops are the older greedy search over the package's own family
scores, one restart at a time, so they check the search, not the score.
The joint reference rediscretizes through the package's ``discretize_all``,
so it checks the loop around the solves, not the solves.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from dvbn import multivar
from dvbn.dataset import DiscreteDataset, MixedDataset
from dvbn.graph import Dag
from dvbn.multivar import PolicySet, equal_width_set, initial_interval_count
from dvbn.structure import LearnResult, family_score, network_score


def _log_binom(n: int, r: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)


def _interval_of(v: float, edges: list[float]) -> int:
    i = 0
    while i < len(edges) and v >= edges[i]:
        i += 1
    return i  # 0-based


def _product(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def oracle_objective(x: list[float], parents: list[tuple[list[int], int]],
                     children: list[tuple[list[int], int, list[tuple[list[int], int]]]],
                     edges: list[float], L: int) -> float:
    """Direct evaluation of the Bayesian discretization objective.

    ``parents`` is a list of ``(values, cardinality)``; ``children`` is a list
    of ``(values, cardinality, spouses)`` with spouses in the same format.
    """
    n = len(x)
    xs = sorted(x)
    rng = xs[-1] - xs[0]
    k = len(edges) + 1

    total = 0.0
    lam = [sum(1 for v in xs if v < e) for e in edges] + [n]
    for li in lam[:-1]:
        gap = xs[li] - xs[li - 1]
        total += -math.log(1.0 - math.exp(-L * gap / rng))
    prev = 0
    for li in lam:
        total += L * (xs[li - 1] - xs[prev]) / rng
        prev = li

    rows_by_interval: list[list[int]] = [[] for _ in range(k)]
    for r, v in enumerate(x):
        rows_by_interval[_interval_of(v, edges)].append(r)

    pcards = [c for _, c in parents]
    jp = _product(pcards)
    pcombos = list(itertools.product(*[range(1, c + 1) for c in pcards]))
    for rows in rows_by_interval:
        gamma = len(rows)
        cnt = Counter(tuple(vals[r] for vals, _ in parents) for r in rows)
        total += _log_binom(gamma + jp - 1, jp - 1)
        total += math.lgamma(gamma + 1)
        for combo in pcombos:
            total -= math.lgamma(cnt.get(combo, 0) + 1)
        for cvals, ccard, spouses in children:
            scards = [c for _, c in spouses]
            for scombo in itertools.product(*[range(1, c + 1) for c in scards]):
                sub = [r for r in rows
                       if tuple(vals[r] for vals, _ in spouses) == scombo]
                nl = len(sub)
                total += _log_binom(nl + ccard - 1, ccard - 1)
                total += math.lgamma(nl + 1)
                ccnt = Counter(cvals[r] for r in sub)
                for j in range(1, ccard + 1):
                    total -= math.lgamma(ccnt.get(j, 0) + 1)
    return total


def oracle_mdl(x: list[float], parents: list[tuple[list[int], int]],
               children: list[tuple[list[int], int, list[tuple[list[int], int]]]],
               edges: list[float]) -> float:
    """Direct evaluation of the description-length discretization objective."""
    n = len(x)
    m = len(set(x))
    k = len(edges) + 1
    jp = _product(c for _, c in parents)

    params = jp * (k - 1)
    for _, ccard, spouses in children:
        js = _product(c for _, c in spouses)
        params += js * k * (ccard - 1)
    total = 0.5 * math.log(n) * params + math.log(k)
    if m > 1:
        p = (k - 1) / (m - 1)
        if 0.0 < p < 1.0:
            total += (m - 1) * (-p * math.log(p) - (1 - p) * math.log(1 - p))

    xi = [_interval_of(v, edges) for v in x]

    def mutual_info_times_n(left: list, right: list) -> float:
        joint = Counter(zip(left, right))
        lc, rc = Counter(left), Counter(right)
        return sum(c * math.log(c * n / (lc[a] * rc[b]))
                   for (a, b), c in joint.items())

    fit = 0.0
    if jp > 1:
        ptuples = [tuple(vals[r] for vals, _ in parents) for r in range(n)]
        fit += mutual_info_times_n(xi, ptuples)
    for cvals, ccard, spouses in children:
        if ccard > 1:
            joint_parent = [(xi[r],) + tuple(vals[r] for vals, _ in spouses)
                            for r in range(n)]
            fit += mutual_info_times_n(list(cvals), joint_parent)
    return total - fit


def k2_pass_reference(d_star, order, max_parents=None, cache=None):
    """The greedy loop before per-family rankings: every step re-scores each
    remaining predecessor and takes the max of (score, name).  Builds the
    graph edge by edge and sums its family scores in node order, as
    network_score does, reading them from ``cache``."""
    g = Dag({x: d_star.cardinalities[x] for x in order})
    for i, x in enumerate(order):
        pa = []
        p_old = family_score(x, pa, d_star, cache)
        while max_parents is None or len(pa) < max_parents:
            candidates = [y for y in order[:i] if y not in pa]
            if not candidates:
                break
            scored = [(family_score(x, pa + [y], d_star, cache), y) for y in candidates]
            best_score, best_y = max(scored, key=lambda t: (t[0], t[1]))
            if best_score <= p_old:
                break
            g = g.add_edge(best_y, x)
            pa.append(best_y)
            p_old = best_score
    return g.edges, sum(family_score(x, g.parents(x), d_star, cache) for x in g.nodes)


def learn_dvbn_reference(d, order, max_parents=None, method="bayes", restart_seed=0):
    """The joint learner as the greedy loop of :func:`k2_pass_reference`
    with a rediscretization after each accepted edge: every continuous
    variable with a nonempty Markov blanket in the graph so far is solved
    again by ``discretize_all``, the others keep their equal-width seed, and
    the node's family is rescored on the new image, with no score kept
    across data."""
    seed = pset = equal_width_set(d, initial_interval_count(d))
    g = Dag(list(d.names))
    for i, x in enumerate(order):
        pa = []
        p_old = family_score(x, pa, pset.image)
        while max_parents is None or len(pa) < max_parents:
            candidates = [y for y in order[:i] if y not in pa]
            if not candidates:
                break
            scored = [(family_score(x, pa + [y], pset.image), y) for y in candidates]
            best_score, best_y = max(scored, key=lambda t: (t[0], t[1]))
            if best_score <= p_old:
                break
            g = g.add_edge(best_y, x)
            pa.append(best_y)
            if seed.policies:
                linked = [v for v in d.variables
                          if v.kind == "discrete" or g.markov_blanket(v.name)]
                fit = multivar.discretize_all(
                    MixedDataset(linked, {v.name: d.columns[v.name] for v in linked}), g,
                    method=method)
                columns = {**seed.image.columns, **fit.image.columns}
                cards = {**seed.image.cardinalities, **fit.image.cardinalities}
                pset = PolicySet({**seed.policies, **fit.policies}, fit.pass_count,
                                 fit.converged, DiscreteDataset(columns, cards))
            p_old = family_score(x, pa, pset.image)
    graph = Dag(dict(pset.image.cardinalities), g.edges)
    return LearnResult(graph, pset, network_score(graph, pset.image), restart_seed)


def k2_multi_restart_reference(d_star, n_restarts, seed, max_parents=None):
    """Restarts one at a time: each order from its own ``rng.permutation``
    call, searched by :func:`k2_pass_reference` over a shared score cache.
    Returns the best ``(graph, score, restart)``, ties to the earliest."""
    names = list(d_star.columns)
    rng = np.random.default_rng(seed)
    cache = {}
    best = None
    for r in range(n_restarts):
        order = [names[i] for i in rng.permutation(len(names))]
        edges, score = k2_pass_reference(d_star, order, max_parents, cache)
        if best is None or score > best[1]:
            best = (Dag({x: d_star.cardinalities[x] for x in order}, edges), score, r)
    return best
