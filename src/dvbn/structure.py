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
    return ((lg[r] - lg[r + beta.sum(axis=2)]).sum(axis=1)
            + lg[1 + beta].reshape(batch, q * r).sum(axis=1))


def family_score(x: str, parents, d_star: DiscreteDataset,
                 cache: dict | None = None) -> float:
    """Log marginal likelihood contribution of one node given its parents."""
    parents = tuple(sorted(parents))
    if cache is not None and (x, parents) in cache:
        return cache[(x, parents)]
    r = d_star.cardinalities[x]
    codes, qr = column_codes(d_star, (x, *parents))
    score = float(_scores(codes, 1, qr // r, r, d_star.n_rows)[0])
    if cache is not None:
        cache[(x, parents)] = score
    return score


def network_score(g: Dag, d_star: DiscreteDataset, cache: dict | None = None) -> float:
    return sum(family_score(x, g.parents(x), d_star, cache) for x in g.nodes)


def _ranking(x: str, parents: tuple, d_star: DiscreteDataset, cache: dict) -> list:
    """Every parent ``x`` could add to ``parents``, as ``(family score, name)``
    pairs best first, kept in ``cache`` under ``(x, parents, "ranked")``.

    The candidates are scored in batches of equal-size count tables.  A
    batch holds at most :data:`BLOCK_ELEMENTS` table cells and as many codes
    (rows times families), or one family if that is larger, and each
    family's score is kept in ``cache`` as :func:`family_score` keeps it."""
    r, n = d_star.cardinalities[x], d_star.n_rows
    # A candidate y at place i among the sorted parents splits the family's
    # codes into those of [x, *parents[:i]] below y and of parents[i:] above.
    below, radix = zip(*(column_codes(d_star, (x, *parents[:i]))
                        for i in range(len(parents) + 1)))
    above = [column_codes(d_star, parents[i:])[0] for i in range(len(parents) + 1)]
    below, above, radix = np.stack(below), np.stack(above), np.array(radix)
    by_card: dict[int, list[str]] = {}
    for y in d_star.columns:
        if y != x and y not in parents:
            by_card.setdefault(d_star.cardinalities[y], []).append(y)
    ranking = []
    for card, ys in by_card.items():
        qr = int(radix[-1]) * card
        step = max(1, BLOCK_ELEMENTS // max(qr, n))
        for start in range(0, len(ys), step):
            batch = ys[start:start + step]
            place = np.array([bisect(parents, y) for y in batch])
            low = radix[place, None]
            codes = (below[place] + (np.stack([d_star.columns[y] for y in batch]) - 1) * low
                     + above[place] * (low * card) + qr * np.arange(len(batch))[:, None])
            scores = _scores(codes.ravel(), len(batch), qr // r, r, n).tolist()
            for y, score in zip(batch, scores):
                cache[(x, tuple(sorted(parents + (y,))))] = score
                ranking.append((score, y))
    ranking.sort(reverse=True)
    cache[(x, parents, "ranked")] = ranking
    return ranking


def k2_pass(d_star: DiscreteDataset, order: list[str],
            max_parents: int | None = None, cache: dict | None = None,
            on_accept=None) -> tuple[list[tuple[str, str]], float]:
    """Greedy K2 over a fixed ordering: each node takes the best-scoring
    predecessor repeatedly while the family score strictly improves.

    Each family ``(x, sorted parents)`` ranks every column it could add once,
    by ``(score, name)`` best first, and keeps the ranking in ``cache`` beside
    the family scores (a local dict when ``cache`` is None).  A step takes the
    first ranked candidate that precedes ``x`` in ``order``: the best score,
    ties to the larger name.  Rankings do not depend on the order, so the
    restarts of :func:`k2_multi_restart` share them.

    Returns the accepted edges in acceptance order and the sum over ``order``
    of each node's last family score, which without ``on_accept`` is bit for
    bit the :func:`network_score` of the graph with those edges.  With
    ``on_accept``, each accepted edge is reported at once: ``on_accept(edges)``
    gets the edges accepted so far and returns the discretized data to
    continue on; the cache, rankings included, is then cleared and the node's
    family rescored on the new data.
    """
    if cache is None:
        cache = {}
    edges: list[tuple[str, str]] = []
    before: set[str] = set()
    score = 0
    for x in order:
        pa: tuple[str, ...] = ()
        p_old = family_score(x, pa, d_star, cache)
        while max_parents is None or len(pa) < max_parents:
            ranking = cache.get((x, pa, "ranked"))
            if ranking is None:
                ranking = _ranking(x, pa, d_star, cache)
            for p_new, y in ranking:
                if y in before:
                    break
            else:  # no candidate precedes x
                break
            if p_new <= p_old:
                break
            p_old = p_new
            pa = tuple(sorted(pa + (y,)))
            edges.append((y, x))
            if on_accept is not None:
                d_star = on_accept(list(edges))
                cache.clear()
                p_old = family_score(x, pa, d_star, cache)
        score += p_old
        before.add(x)
    return edges, score


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
    """Alternate greedy K2 parent additions with rediscretization.

    K2 starts on the equal-width image of ``d``, with
    :func:`initial_interval_count` intervals per continuous variable.  Every
    accepted edge rediscretizes, with :func:`discretize_all` on the current
    graph, each continuous variable whose Markov blanket is not empty; the
    node's family score is then refreshed on the new data.  A variable with
    an empty blanket keeps its equal-width seed: its objective has only the
    prior, which would collapse it to one interval, and a one-interval
    variable can never raise a family score.
    """
    check_method(method)
    if sorted(order) != sorted(d.names):
        raise ValidationError("order must permute all dataset variables")
    pset = seed = equal_width_set(d, initial_interval_count(d))

    def rediscretize(edges) -> DiscreteDataset:
        nonlocal pset
        g = Dag(d.names, edges)
        linked = [v for v in d.variables
                  if v.kind == "discrete" or g.markov_blanket(v.name)]
        d_linked = MixedDataset(linked, {v.name: d.columns[v.name] for v in linked})
        fit = discretize_all(d_linked, g, method=method)
        image = DiscreteDataset({**seed.image.columns, **fit.image.columns},
                                {**seed.image.cardinalities, **fit.image.cardinalities})
        pset = PolicySet({**seed.policies, **fit.policies}, fit.pass_count,
                         fit.converged, image)
        return image

    cache: dict = {}
    edges, _ = k2_pass(seed.image, order, max_parents=max_parents, cache=cache,
                       on_accept=rediscretize if seed.policies else None)
    g = Dag(dict(pset.image.cardinalities), edges)
    return LearnResult(g, pset, network_score(g, pset.image, cache), restart_seed)


def _random_orders(names: list[str], n_restarts: int, seed: int) -> list[list[str]]:
    if n_restarts < 1:
        raise ValidationError("n_restarts must be >= 1")
    rng = np.random.default_rng(seed)
    return [[names[i] for i in rng.permutation(len(names))] for _ in range(n_restarts)]


def multi_restart(d: MixedDataset, n_restarts: int, seed: int,
                  max_parents: int | None = None, method: str = "bayes") -> LearnResult:
    """Best of ``n_restarts`` random variable orderings; ties keep the
    earliest restart."""
    return max((learn_dvbn(d, order, max_parents=max_parents, method=method,
                           restart_seed=r)
                for r, order in enumerate(_random_orders(d.names, n_restarts, seed))),
               key=lambda res: res.score)


def k2_multi_restart(d_star: DiscreteDataset, n_restarts: int, seed: int,
                     max_parents: int | None = None) -> tuple[Dag, float, int]:
    """Plain K2 restarts on already-discrete data with a shared score cache;
    the best ``(graph, score, restart)``, ties to the earliest restart.  Only
    the best restart's graph is built."""
    cache: dict = {}
    orders = _random_orders(list(d_star.columns), n_restarts, seed)
    (edges, score), r = max(((k2_pass(d_star, order, max_parents=max_parents,
                                      cache=cache), r)
                             for r, order in enumerate(orders)),
                            key=lambda t: t[0][1])
    return Dag({x: d_star.cardinalities[x] for x in orders[r]}, edges), score, r
