"""K2 structure search and the combined learn-and-discretize loop.

Families are scored with the Dirichlet-multinomial marginal likelihood under
a uniform prior of 1, so the network score decomposes into per-node terms and
greedy parent addition only ever re-scores one family.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .counts import family_counts
from .dataset import DiscreteDataset, MixedDataset, sorted_view
from .discretizer import check_method
from .errors import ValidationError
from .graph import Dag
from .multivar import (PolicySet, apply_policies, discretize_all,
                       initial_interval_count)
from .policy import equal_width
from .scoring import log_gamma_table


def family_score(x: str, parents, d_star: DiscreteDataset,
                 cache: dict | None = None) -> float:
    """Log marginal likelihood contribution of one node given its parents."""
    parents = tuple(sorted(parents))
    if cache is not None and (x, parents) in cache:
        return cache[(x, parents)]
    r = d_star.cardinalities[x]
    beta = family_counts(d_star, x, parents)
    beta0 = beta.sum(axis=1)
    # alpha = 1 everywhere, so alpha0 = r and lgamma(alpha) = 0
    lg = log_gamma_table(r + d_star.n_rows)
    score = float(np.sum(lg[r] - lg[r + beta0]) + np.sum(lg[1 + beta]))
    if cache is not None:
        cache[(x, parents)] = score
    return score


def network_score(g: Dag, d_star: DiscreteDataset, cache: dict | None = None) -> float:
    return sum(family_score(x, g.parents(x), d_star, cache) for x in g.nodes)


def _ranking(x: str, parents: tuple, d_star: DiscreteDataset, cache: dict) -> list:
    """Every parent ``x`` could add to ``parents``, as ``(family score, name)``
    pairs best first; built once per family and kept in ``cache``."""
    key = (x, parents, "ranked")
    ranking = cache.get(key)
    if ranking is None:
        ranking = cache[key] = sorted(
            ((family_score(x, parents + (y,), d_star, cache), y)
             for y in d_star.columns if y != x and y not in parents),
            reverse=True)
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
            best = next((t for t in _ranking(x, pa, d_star, cache)
                         if t[1] in before), None)
            if best is None or best[0] <= p_old:
                break
            p_old, y = best
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
    k0 = initial_interval_count(d)
    start = {x: equal_width(sorted_view(d, x), k0) for x in d.continuous_names()}
    pset = PolicySet(start, 0, True)
    d_star = apply_policies(d, start)

    def rediscretize(edges) -> DiscreteDataset:
        nonlocal pset, d_star
        g = Dag(d.names, edges)
        linked = [v for v in d.variables
                  if v.kind == "discrete" or g.markov_blanket(v.name)]
        d_linked = MixedDataset(linked, {v.name: d.columns[v.name] for v in linked})
        fit = discretize_all(d_linked, g, method=method)
        pset = PolicySet({**start, **fit.policies}, fit.pass_count, fit.converged)
        d_star = apply_policies(d, pset.policies)
        return d_star

    cache: dict = {}
    edges, _ = k2_pass(d_star, order, max_parents=max_parents, cache=cache,
                       on_accept=rediscretize if start else None)
    g = Dag(dict(d_star.cardinalities), edges)
    return LearnResult(g, pset, network_score(g, d_star, cache), restart_seed)


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
