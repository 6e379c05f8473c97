"""K2 structure search and the combined learn-and-discretize loop.

Families are scored with the Dirichlet-multinomial marginal likelihood under
a uniform prior of 1, so the network score decomposes into per-node terms and
greedy parent addition only ever re-scores one family.
"""

from __future__ import annotations

import json
from bisect import bisect
from dataclasses import dataclass

import numpy as np

from .counts import column_codes
from .dataset import DiscreteDataset, MixedDataset
from .discretizer import check_method
from .errors import ValidationError
from .graph import Dag
from .multivar import (PolicySet, discretize_all, equal_width_set,
                       initial_interval_count)
from .scoring import BLOCK_ELEMENTS, log_gamma_table


def _scores(codes: np.ndarray, batch: int, q: int, r: int, n: int) -> np.ndarray:
    """Scores of ``batch`` families of ``n`` rows from their stacked codes:
    each family has q parent configurations and r values of x, x least
    significant, and family k's codes are offset by k·q·r.  Each family's
    ``(q, r)`` counts are one contiguous row, summed as one family would be."""
    beta = np.bincount(codes, minlength=batch * q * r).reshape(batch, q, r)
    # alpha = 1 everywhere, so alpha0 = r and lgamma(alpha) = 0
    lg = log_gamma_table(r + n)
    # einsum sums the short r axis several times faster than sum(axis=2),
    # and integer sums are exact in any order
    configs = (lg[r] - lg[r + np.einsum("bqr->bq", beta)]).sum(axis=1)
    beta += 1
    return configs + lg[beta].reshape(batch, q * r).sum(axis=1)


def family_score(x: str, parents, d_star: DiscreteDataset,
                 cache: dict | None = None) -> float:
    """Log marginal likelihood contribution of one node given its parents.
    Only :func:`_k2_walk` passes ``cache``; perfbench counts its hits by name."""
    parents = tuple(sorted(parents))
    if cache is not None and (x, parents) in cache:
        return cache[(x, parents)]
    r = d_star.cardinalities[x]
    codes, qr = column_codes(d_star, (x, *parents))
    score = float(_scores(codes, 1, qr // r, r, d_star.n_rows)[0])
    if cache is not None:
        cache[(x, parents)] = score
    return score


def network_score(g: Dag, d_star: DiscreteDataset) -> float:
    return sum(family_score(x, g.parents(x), d_star) for x in g.nodes)


def _rankings(states: list, d_star: DiscreteDataset, stacked: np.ndarray) -> list[list]:
    """The ranking of each ``(x, sorted parents)`` state: every parent ``x``
    could add to its parents, as ``(family score, name)`` pairs best first;
    each score is bit for bit :func:`family_score`'s.

    ``stacked`` is :func:`_stacked` of ``d_star``.  States with as many
    parents are coded in chunks of at most :data:`BLOCK_ELEMENTS` codes per
    candidate cardinality (or one state), and the candidates' families of a
    chunk, across its states, are scored in batches of equal-size count
    tables.  A batch holds at most :data:`BLOCK_ELEMENTS` table cells and as
    many codes (rows times families), or one family if that is larger."""
    n, n_cards = d_star.n_rows, len(set(d_star.cardinalities.values()))
    by_size: dict[int, list[int]] = {}
    for s, (_, parents) in enumerate(states):
        by_size.setdefault(len(parents) + 1, []).append(s)
    rankings = [[] for _ in states]
    for size, group in by_size.items():
        step = max(1, BLOCK_ELEMENTS // (n_cards * size * n))
        for start in range(0, len(group), step):
            chunk = group[start:start + step]
            for s, scored in zip(chunk, _chunk_scores([states[s] for s in chunk],
                                                      d_star, stacked)):
                rankings[s] = sorted(scored, reverse=True)
    return rankings


def _chunk_scores(states: list, d_star: DiscreteDataset, stacked: np.ndarray) -> list[list]:
    """Every candidate's ``(family score, name)``, for each state of a chunk
    of :func:`_rankings`; the states have as many parents."""
    names, cards, n = list(d_star.columns), d_star.cardinalities, d_star.n_rows
    index = {v: k for k, v in enumerate(names)}
    size = len(states[0][1]) + 1
    family = np.fromiter((index[v] for x, parents in states for v in (x, *parents)),
                         np.int64, len(states) * size).reshape(len(states), size)
    radix = np.ones((len(states), size + 1), dtype=np.int64)
    np.cumprod(np.array([cards[v] for v in names])[family], axis=1, out=radix[:, 1:])
    # below[c, i] codes state c's [x, *parents[:i]] in radix[c, i + 1]
    # configurations.  A candidate y (0-based) at place i goes between them:
    # its family's code is below[c, i] + y * radix[c, i + 1]
    # + (below[c, -1] - below[c, i]) * card_y.
    below = stacked[family]
    below *= radix[:, :size, None]
    for i in range(1, size):
        below[:, i] += below[:, i - 1]
    tables, bases = {}, {}
    for c, ((x, parents), radices) in enumerate(zip(states, radix.tolist())):
        r = cards[x]
        for k, y in enumerate(names):
            if y != x and y not in parents:
                i = bisect(parents, y)
                b = bases.setdefault(cards[y], len(bases))
                tables.setdefault((radices[-1] * cards[y] // r, r), []).append(
                    (c, k, (b * len(states) + c) * size + i, radices[i + 1]))
    # base[b, c, i]: the family's code but y * radix[c, i + 1], for candidates
    # of the b-th cardinality
    base = np.empty((len(bases), *below.shape), dtype=np.int64)
    for card, b in bases.items():
        np.multiply(below, 1 - card, out=base[b])
        base[b] += card * below[:, -1:]
    base = base.reshape(-1, n)
    scored = [[] for _ in states]
    for (q, r), families in tables.items():
        step = max(1, BLOCK_ELEMENTS // max(q * r, n))
        for start in range(0, len(families), step):
            batch = families[start:start + step]
            owner, ys, rows, place_radix = zip(*batch)
            codes = stacked[list(ys)]
            codes *= np.array(place_radix)[:, None]
            codes += base[list(rows)]
            codes += (q * r * np.arange(len(batch)))[:, None]
            scores = _scores(codes.ravel(), len(batch), q, r, n).tolist()
            for c, k, score in zip(owner, ys, scores):
                scored[c].append((score, names[k]))
    return scored


def _stacked(d_star: DiscreteDataset) -> np.ndarray:
    """The 0-based codes of ``d_star``'s columns, one row per column in its
    column order."""
    stacked = np.array(list(d_star.columns.values()), dtype=np.int64)
    stacked -= 1
    return stacked


def _ranking(x: str, parents: tuple, d_star: DiscreteDataset) -> list:
    """The ranking of one state, as :func:`_rankings` gives it."""
    return _rankings([(x, parents)], d_star, _stacked(d_star))[0]


def _k2_walk(d_star: DiscreteDataset, orders: np.ndarray,
             max_parents: int | None, cache: dict) -> tuple[list[tuple[str, str]], np.ndarray]:
    """Greedy K2 over every row of ``orders`` (column indices) at once; see
    :func:`k2_pass` for the search.

    For each node, all orders start in one group at parent set ``()``.  A
    group reads its state's ranking and finds, for each of its orders, the
    first ranked candidate that precedes the node; the orders whose candidate
    does not strictly raise the family score stop there, and the rest split
    by candidate into groups at the grown parent sets.  Every node's groups
    advance together, one parent-set size at a time, and the states of a
    size that the cache lacks are ranked in one :func:`_rankings` call.  Each
    order's score is the sum, in that order, of its nodes' last family
    scores.

    ``cache`` keeps each ranking under ``(x, parents, "ranked")``, beside the
    parentless scores that :func:`family_score` keeps there.  Rankings do not
    depend on the order, so every order walked over one cache shares them.

    Returns the edges of every split, node by node in the first order and in
    acceptance order within a node, which for a single order are its
    accepted edges, and every order's score."""
    names = list(d_star.columns)
    index = {v: i for i, v in enumerate(names)}
    stacked = _stacked(d_star)
    n_orders, length = orders.shape
    every = np.arange(n_orders)
    pos = np.full((n_orders, len(names)), length)
    pos[every[:, None], orders] = np.arange(length)
    last = np.zeros((n_orders, len(names)))
    edges: dict[int, list[tuple[str, str]]] = {j: [] for j in orders[0].tolist()}
    groups = [(j, (), every, family_score(names[j], (), d_star, cache)) for j in edges]
    while groups:
        for j, _, rows, p_old in groups:
            last[rows, j] = p_old
        if max_parents is not None and len(groups[0][1]) >= max_parents:
            break
        states = [(names[j], pa) for j, pa, _, _ in groups
                  if (names[j], pa, "ranked") not in cache]
        for state, ranking in zip(states, _rankings(states, d_star, stacked)):
            cache[(*state, "ranked")] = ranking
        grown = []
        for j, pa, rows, p_old in groups:
            ranking = cache[(names[j], pa, "ranked")]
            # the candidates that strictly raise the score lead the ranking
            better = [index[y] for p_new, y in ranking if p_new > p_old]
            if not better:
                continue
            here = pos[rows]
            ahead = here[:, better] < here[:, j, None]
            first = ahead.argmax(axis=1)
            moves = ahead[every[:len(rows)], first]
            first, rows = first[moves], rows[moves]
            for k in np.flatnonzero(np.bincount(first)).tolist():
                p_new, y = ranking[k]
                edges[j].append((y, names[j]))
                grown.append((j, tuple(sorted(pa + (y,))), rows[first == k], p_new))
        groups = grown
    score = np.zeros(n_orders)
    for column in np.take_along_axis(last, orders, axis=1).T:
        score += column
    return [e for j in edges for e in edges[j]], score


def k2_pass(d_star: DiscreteDataset, order: list[str],
            max_parents: int | None = None) -> tuple[list[tuple[str, str]], float]:
    """Greedy K2 over a fixed ordering: each node takes the best-scoring
    predecessor repeatedly while the family score strictly improves.

    Each family ``(x, sorted parents)`` ranks every column it could add once,
    by ``(score, name)`` best first.  A step takes the first ranked candidate
    that precedes ``x`` in ``order``: the best score, ties to the larger name.

    Returns the accepted edges in acceptance order and the sum over ``order``
    of each node's last family score, which is bit for bit the
    :func:`network_score` of the graph with those edges.
    """
    index = {v: i for i, v in enumerate(d_star.columns)}
    edges, score = _k2_walk(d_star, np.array([[index[v] for v in order]], dtype=int),
                            max_parents, {})
    return edges, float(score[0])


@dataclass
class LearnResult:
    graph: Dag
    policies: PolicySet
    score: float
    restart_seed: int

    def to_json(self) -> str:
        return json.dumps({
            "score": self.score,
            "restart_seed": self.restart_seed,
            "graph": json.loads(self.graph.to_json()),
            "policies": {name: json.loads(p.to_json())
                         for name, p in sorted(self.policies.policies.items())},
            "converged": self.policies.converged,
            "passes": self.policies.pass_count,
        }, indent=2)


def learn_dvbn(d: MixedDataset, order: list[str],
               max_parents: int | None = None, method: str = "bayes",
               restart_seed: int = 0) -> LearnResult:
    """Greedy K2 over ``order`` that rediscretizes after every accepted edge.

    K2 starts on the equal-width image of ``d``, with
    :func:`initial_interval_count` intervals per continuous variable.  A node
    takes its best-ranked predecessor while that strictly raises its family
    score, as in :func:`k2_pass`.  Every accepted edge rediscretizes, with
    :func:`discretize_all` on the current graph, each continuous variable
    whose Markov blanket is not empty, and the node's family is rescored on
    the new data.  A variable with an empty blanket keeps its equal-width
    seed: its objective has only the prior, which gives it one interval
    under ``mdl`` (``bayes`` splits only a gap over ln 2 / 2 of the range),
    and a one-interval variable never raises a family score."""
    check_method(method)
    if sorted(order) != sorted(d.names):
        raise ValidationError("order must permute all dataset variables")
    pset = seed = equal_width_set(d, initial_interval_count(d))
    edges: list[tuple[str, str]] = []
    for i, x in enumerate(order):
        before, pa = set(order[:i]), ()
        p_old = family_score(x, pa, pset.image)
        while len(pa) < (i if max_parents is None else min(i, max_parents)):
            p_new, y = next(c for c in _ranking(x, pa, pset.image) if c[1] in before)
            if p_new <= p_old:
                break
            edges.append((y, x))
            pa = tuple(sorted(pa + (y,)))
            g = Dag(d.names, edges)
            linked = [v for v in d.variables
                      if v.kind == "discrete" or g.markov_blanket(v.name)]
            fit = discretize_all(MixedDataset(linked, {v.name: d.columns[v.name]
                                                       for v in linked}), g, method=method)
            image = DiscreteDataset({**seed.image.columns, **fit.image.columns},
                                    {**seed.image.cardinalities, **fit.image.cardinalities})
            pset = PolicySet({**seed.policies, **fit.policies}, fit.pass_count,
                             fit.converged, image)
            p_old = family_score(x, pa, pset.image)
    g = Dag(dict(pset.image.cardinalities), edges)
    return LearnResult(g, pset, network_score(g, pset.image), restart_seed)


def _random_orders(n: int, n_restarts: int, seed: int) -> np.ndarray:
    """``n_restarts`` random orders of ``range(n)``, one per row: the rows of
    as many successive ``rng.permutation(n)`` calls, drawn in one call."""
    if n_restarts < 1:
        raise ValidationError("n_restarts must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.permuted(np.tile(np.arange(n), (n_restarts, 1)), axis=1)


def multi_restart(d: MixedDataset, n_restarts: int, seed: int,
                  max_parents: int | None = None, method: str = "bayes") -> LearnResult:
    """Best of ``n_restarts`` random variable orderings; ties keep the
    earliest restart."""
    orders = _random_orders(len(d.names), n_restarts, seed)
    return max((learn_dvbn(d, [d.names[i] for i in order], max_parents=max_parents,
                           method=method, restart_seed=r)
                for r, order in enumerate(orders)),
               key=lambda res: res.score)


def k2_multi_restart(d_star: DiscreteDataset, n_restarts: int, seed: int,
                     max_parents: int | None = None) -> tuple[Dag, float, int]:
    """Plain K2 restarts on already-discrete data, walked at once; the best
    ``(graph, score, restart)``, ties to the earliest restart.  Only the best
    restart's graph is built: its edges come from a second walk over its
    order, which finds every ranking it reads in the first walk's cache."""
    cache: dict = {}
    names = list(d_star.columns)
    orders = _random_orders(len(names), n_restarts, seed)
    r = int(np.argmax(_k2_walk(d_star, orders, max_parents, cache)[1]))
    edges, score = _k2_walk(d_star, orders[r:r + 1], max_parents, cache)
    order = [names[i] for i in orders[r]]
    return Dag({x: d_star.cardinalities[x] for x in order}, edges), float(score[0]), r
