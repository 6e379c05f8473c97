"""Iterative discretization of every continuous variable in a fixed network."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import DiscreteDataset, MixedDataset, sorted_view
from .discretizer import check_method, discretize_one
from .graph import Dag
from .policy import DiscretizationPolicy, equal_width

MAX_PASSES = 10  # reaching it means the passes cycle
#: The text of the warning and of ``discretize_summary.json``'s ``warning``.
NOT_CONVERGED = (f"discretization did not converge within MAX_PASSES={MAX_PASSES} passes: "
                 "the policies cycle")
DEFAULT_INITIAL_K = 5  # used when no variable is initially discrete


class NotConvergedWarning(UserWarning):
    """:func:`discretize_all` stopped at :data:`MAX_PASSES` without converging."""


@dataclass
class PolicySet:
    policies: dict[str, DiscretizationPolicy]
    pass_count: int
    converged: bool
    #: the data the policies were solved on, discretized by them
    image: DiscreteDataset = field(repr=False, compare=False)


def initial_interval_count(d: MixedDataset) -> int:
    """Largest cardinality among initially discrete variables, or the default."""
    cards = [v.cardinality for v in d.variables if v.kind == "discrete"]
    return max(cards) if cards else DEFAULT_INITIAL_K


def apply_policies(d: MixedDataset, policies: dict[str, DiscretizationPolicy]) -> DiscreteDataset:
    """Discretized image of ``d``; every continuous variable needs a policy."""
    columns: dict[str, np.ndarray] = {}
    cards: dict[str, int] = {}
    for v in d.variables:
        if v.kind == "discrete":
            columns[v.name] = d.columns[v.name]
            cards[v.name] = v.cardinality
        else:
            pol = policies[v.name]
            columns[v.name] = pol.apply_array(d.columns[v.name])
            cards[v.name] = pol.k
    return DiscreteDataset(columns, cards)


def equal_width_set(d: MixedDataset, k: int) -> PolicySet:
    """``k`` equal-width intervals for every continuous variable of ``d``."""
    policies = {x: equal_width(sorted_view(d, x), k) for x in d.continuous_names()}
    return PolicySet(policies, 0, True, apply_policies(d, policies))


def discretize_all(d: MixedDataset, g: Dag, *, method: str = "bayes") -> PolicySet:
    """Leaves-to-root passes of single-variable discretization over every
    continuous variable of ``d`` until the edge lists stop changing, starting
    from equal-width policies with :func:`initial_interval_count` intervals.
    """
    check_method(method)
    cont_vars = g.reverse_topological(d.continuous_names())
    k0 = initial_interval_count(d)
    cols = {x: sorted_view(d, x) for x in cont_vars}
    policies = {x: equal_width(cols[x], k0) for x in cont_vars}
    d_star = apply_policies(d, policies)
    if not cont_vars:
        return PolicySet({}, 0, True, d_star)

    # A solve reads only the variable's blanket in d_star (columns,
    # cardinalities, L), so a variable whose blanket is unchanged since its
    # last solve would get its current policy back: only stale variables are
    # re-solved.  The graph gives only the blanket's shape.
    blankets = {y: g.markov_blanket(y) for y in cont_vars}
    stale = set(cont_vars)
    for pass_count in range(1, MAX_PASSES + 1):
        changed = False
        for x in cont_vars:
            if x not in stale:
                continue
            stale.discard(x)
            pol = discretize_one(d_star, g, x, cols[x], method=method)
            if pol.edges != policies[x].edges:
                changed = True
                stale.update(y for y in cont_vars if x in blankets[y])
            policies[x] = pol
            d_star = d_star.replace_column(x, pol.apply_array(d.columns[x]), pol.k)
        if not changed:
            break
    else:
        warnings.warn(NOT_CONVERGED, NotConvergedWarning, stacklevel=2)
    return PolicySet(policies, pass_count, not changed, d_star)
