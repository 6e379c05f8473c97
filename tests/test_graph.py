import pytest

from dvbn.errors import CycleError, ValidationError
from dvbn.graph import Dag


def chain():
    g = Dag({"a": 2, "b": 3, "c": None})
    return g.add_edge("a", "b").add_edge("b", "c")


def test_add_edge_is_persistent():
    g = Dag({"a": 2, "b": 2})
    g2 = g.add_edge("a", "b")
    assert g.edges == [] and g2.edges == [("a", "b")]


def test_cycle_rejected():
    g = chain()
    with pytest.raises(CycleError):
        g.add_edge("c", "a")


def test_self_loop_and_duplicate_rejected():
    g = Dag({"a": 2, "b": 2}).add_edge("a", "b")
    with pytest.raises(ValidationError):
        g.add_edge("a", "a")
    with pytest.raises(ValidationError):
        g.add_edge("a", "b")


def test_undeclared_node_rejected():
    with pytest.raises(ValidationError):
        Dag({"a": 2}).add_edge("a", "z")


def test_neighbors_for_discretization():
    g = Dag({"p": 2, "x": None, "c1": 2, "c2": 3, "s": 4})
    for pc in [("p", "x"), ("x", "c1"), ("x", "c2"), ("s", "c2")]:
        g = g.add_edge(*pc)
    parents, children, spouses = g.neighbors_for_discretization("x")
    assert parents == {"p"}
    assert children == ["c1", "c2"]
    assert spouses == [set(), {"s"}]
    assert g.markov_blanket("x") == {"p", "c1", "c2", "s"}


def test_markov_blanket_max_cardinality():
    g = Dag({"p": 2, "x": None, "c": 5, "y": None})
    g = g.add_edge("p", "x").add_edge("x", "c").add_edge("y", "c")
    assert g.markov_blanket_max_cardinality("x") == 5
    # isolated node, or blanket of all-unknown cardinalities, falls back
    assert Dag({"x": None}).markov_blanket_max_cardinality("x") == 2
    g2 = Dag({"x": None, "y": None}).add_edge("y", "x")
    assert g2.markov_blanket_max_cardinality("x") == 2


def test_reverse_topological_edgeless_is_name_order():
    g = Dag({"c": None, "a": None, "b": None})
    assert g.reverse_topological() == ["a", "b", "c"]


def test_reverse_topological_respects_edges():
    g = chain()
    order = g.reverse_topological()
    assert order.index("c") < order.index("b") < order.index("a")
    pos = {n: i for i, n in enumerate(order)}
    assert all(pos[c] < pos[p] for p, c in g.edges)  # every child comes first


def test_reverse_topological_subset_sees_indirect_paths():
    # a -> hidden -> b: subset {a, b} must still put b before a
    g = Dag({"a": None, "hidden": 2, "b": None})
    g = g.add_edge("a", "hidden").add_edge("hidden", "b")
    assert g.reverse_topological({"a", "b"}) == ["b", "a"]


def test_reverse_topological_unknown_node():
    with pytest.raises(ValidationError):
        Dag({"a": 2}).reverse_topological({"zzz"})


def test_json_round_trip():
    g = chain()
    g2 = Dag.from_json(g.to_json())
    assert g2 == g and g2.to_json() == g.to_json()
