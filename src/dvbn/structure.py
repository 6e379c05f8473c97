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

from .counts import column_codes, prefix_codes
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
    return ((lg[r] - lg[r + beta.sum(axis=2)]).sum(axis=1)
            + lg[1 + beta].reshape(batch, q * r).sum(axis=1))


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


def _ranking(x: str, parents: tuple, d_star: DiscreteDataset) -> list:
    """Every parent ``x`` could add to ``parents``, as ``(family score, name)``
    pairs best first; each score is bit for bit :func:`family_score`'s.

    One encoder pass over ``[x, *parents]`` gives every candidate's codes.
    The candidates are scored in batches of equal-size count tables.  A
    batch holds at most :data:`BLOCK_ELEMENTS` table cells and as many codes
    (rows times families), or one family if that is larger."""
    r, n = d_star.cardinalities[x], d_star.n_rows
    columns, cards = d_star.columns, d_star.cardinalities
    # below[i] codes [x, *parents[:i]] with radix[i] configurations, and
    # full - below[i] = radix[i] * code(parents[i:]).  A candidate y at place
    # i among the sorted parents goes between them: its family's code is
    # below[i] + (y - 1) * radix[i] + (full - below[i]) * card_y.
    family = (x, *parents)
    below, radix = prefix_codes([columns[v] for v in family],
                                [cards[v] for v in family], n)
    below, radix = np.array(below[1:]), np.array(radix[1:])
    full = below[-1]
    by_card: dict[int, list[str]] = {}
    for y in columns:
        if y != x and y not in parents:
            by_card.setdefault(cards[y], []).append(y)
    ranking = []
    for card, ys in by_card.items():
        qr = int(radix[-1]) * card
        # every term but y * radix[i], with each batch slot's offset added later
        base = full * card - (card - 1) * below - radix[:, None]
        step = max(1, BLOCK_ELEMENTS // max(qr, n))
        for start in range(0, len(ys), step):
            batch = ys[start:start + step]
            place = [bisect(parents, y) for y in batch]
            codes = np.array([columns[y] for y in batch])
            codes *= radix[place, None]
            codes += base[place]
            codes += qr * np.arange(len(batch))[:, None]
            scores = _scores(codes.ravel(), len(batch), qr // r, r, n).tolist()
            ranking += zip(scores, batch)
    ranking.sort(reverse=True)
    return ranking


def _k2_walk(d_star: DiscreteDataset, orders: np.ndarray,
             max_parents: int | None, cache: dict) -> tuple[list[tuple[str, str]], np.ndarray]:
    """Greedy K2 over every row of ``orders`` (column indices) at once; see
    :func:`k2_pass` for the search.

    For each node, all orders start in one group at parent set ``()``.  A
    group reads its state's ranking and finds, for each of its orders, the
    first ranked candidate that precedes the node; the orders whose candidate
    does not strictly raise the family score stop there, and the rest split
    by candidate into groups at the grown parent sets.  Each order's score is
    the sum, in that order, of its nodes' last family scores.

    ``cache`` keeps each ranking under ``(x, parents, "ranked")``, beside the
    parentless scores that :func:`family_score` keeps there.  Rankings do not
    depend on the order, so every order walked over one cache shares them.

    Returns the edges of every split in acceptance order, which for a single
    order are its accepted edges, and every order's score."""
    names = list(d_star.columns)
    index = {v: i for i, v in enumerate(names)}
    n_orders, length = orders.shape
    every = np.arange(n_orders)
    pos = np.full((n_orders, len(names)), length)
    pos[every[:, None], orders] = np.arange(length)
    last = np.zeros((n_orders, len(names)))
    edges: list[tuple[str, str]] = []
    for j in orders[0]:
        x = names[j]
        groups = [((), every, family_score(x, (), d_star, cache))]
        while groups:
            pa, rows, p_old = groups.pop()
            last[rows, j] = p_old
            if max_parents is not None and len(pa) >= max_parents:
                continue
            ranking = cache.get((x, pa, "ranked"))
            if ranking is None:
                ranking = cache[(x, pa, "ranked")] = _ranking(x, pa, d_star)
            # the candidates that strictly raise the score lead the ranking
            better = [index[y] for p_new, y in ranking if p_new > p_old]
            if not better:
                continue
            ahead = pos[rows[:, None], better] < pos[rows, j][:, None]
            moves = ahead.any(axis=1)
            first = ahead[moves].argmax(axis=1)
            rows = rows[moves]
            for k in np.unique(first):
                p_new, y = ranking[k]
                group = rows[first == k]
                grown = tuple(sorted(pa + (y,)))
                edges.append((y, x))
                groups.append((grown, group, p_new))
    score = np.zeros(n_orders)
    for column in np.take_along_axis(last, orders, axis=1).T:
        score += column
    return edges, score


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
