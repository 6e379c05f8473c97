"""Directed acyclic graph over named variables.

The graph answers the structural queries discretization needs: parents,
children, spouses per child, and reverse-topological orderings.  A node may
carry a cardinality, which only the JSON form and
:meth:`Dag.markov_blanket_max_cardinality` read; every solve takes its
cardinalities from the data.  Mutating operations return a new value;
instances are safe to share read-only.
"""

from __future__ import annotations

import json

from .errors import CycleError, ValidationError


class Dag:
    def __init__(self, nodes: dict[str, int | None] | list,
                 edges: list[tuple[str, str]] | None = None):
        if isinstance(nodes, list):
            nodes = {n: None for n in nodes}
        self._cards: dict[str, int | None] = dict(nodes)
        self._edges: list[tuple[str, str]] = []
        self._parents: dict[str, list[str]] = {n: [] for n in self._cards}
        self._children: dict[str, list[str]] = {n: [] for n in self._cards}
        for p, c in edges or []:
            self._insert(p, c)

    # -- construction -----------------------------------------------------

    def _insert(self, parent: str, child: str) -> None:
        if parent not in self._cards or child not in self._cards:
            raise ValidationError(f"edge ({parent},{child}) references undeclared node")
        if parent == child:
            raise ValidationError(f"self-loop on {parent!r}")
        if (parent, child) in self._edges:
            raise ValidationError(f"edge ({parent},{child}) already present")
        if self._reachable(child, parent):
            raise CycleError(f"edge ({parent},{child}) would create a cycle")
        self._edges.append((parent, child))
        self._parents[child].append(parent)
        self._children[parent].append(child)

    def _reachable(self, src: str, dst: str) -> bool:
        stack, seen = [src], set()
        while stack:
            u = stack.pop()
            if u == dst:
                return True
            if u in seen:
                continue
            seen.add(u)
            stack.extend(self._children[u])
        return False

    def add_edge(self, parent: str, child: str) -> "Dag":
        """Return a new Dag with the edge added; raises on cycles/duplicates."""
        return Dag(self._cards, self._edges + [(parent, child)])

    # -- queries ----------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        return list(self._cards)

    @property
    def edges(self) -> list[tuple[str, str]]:
        return list(self._edges)

    def parents(self, x: str) -> list[str]:
        return list(self._parents[x])

    def neighbors_for_discretization(self, x: str):
        """(parents, children, spouse set per child), children in insertion order."""
        if x not in self._cards:
            raise ValidationError(f"no node named {x!r}")
        parents = set(self._parents[x])
        children = list(self._children[x])
        spouses = [set(self._parents[c]) - {x} for c in children]
        return parents, children, spouses

    def markov_blanket(self, x: str) -> set[str]:
        parents, children, spouses = self.neighbors_for_discretization(x)
        return parents.union(children, *spouses)

    def markov_blanket_max_cardinality(self, x: str) -> int:
        """Largest cardinality among blanket members that currently have one.

        Nodes with no cardinality yet (continuous, not yet discretized) are
        ignored; an empty or all-unknown blanket yields 2.
        """
        cards = [self._cards[b] for b in self.markov_blanket(x)
                 if self._cards[b] is not None]
        return max(cards) if cards else 2

    def reverse_topological(self, subset=None) -> list[str]:
        """Leaves-first order over ``subset``; name order breaks ties."""
        if subset is None:
            subset = set(self._cards)
        subset = set(subset)
        unknown = subset - set(self._cards)
        if unknown:
            raise ValidationError(f"nodes not in graph: {sorted(unknown)}")
        # Kahn's algorithm over the full graph (indirect paths through nodes
        # outside the subset must still order subset members), then filter.
        # Ties broken descending here so the reversed order is in name order.
        indeg = {n: 0 for n in self._cards}
        for p, c in self._edges:
            indeg[c] += 1
        ready = sorted((n for n, d in indeg.items() if d == 0), reverse=True)
        topo = []
        while ready:
            u = ready.pop(0)
            topo.append(u)
            for c in self._children[u]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
            ready.sort(reverse=True)
        return [n for n in reversed(topo) if n in subset]

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "nodes": [{"name": n, "cardinality": c} for n, c in self._cards.items()],
            "edges": [[p, c] for p, c in self._edges],
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Dag":
        doc = json.loads(text)
        nodes = {n["name"]: n.get("cardinality") for n in doc["nodes"]}
        return cls(nodes, [tuple(e) for e in doc["edges"]])

    def __eq__(self, other):
        return (isinstance(other, Dag) and self._cards == other._cards
                and sorted(self._edges) == sorted(other._edges))

    def __repr__(self):
        return f"Dag(nodes={list(self._cards)}, edges={self._edges})"
