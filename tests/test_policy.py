import json

import numpy as np
import pytest

from dvbn.dataset import sorted_column
from dvbn.errors import ValidationError
from dvbn.policy import (DiscretizationPolicy, equal_width, midpoint_candidates,
                         policy_from_lambda, representations)


def test_apply_case_analysis():
    p = DiscretizationPolicy((1.0, 2.0), 0.0, 3.0)
    assert p.k == 3

    def apply(x):
        return int(p.apply_array(np.array([x]))[0])
    assert apply(0.5) == 1      # below first edge
    assert apply(1.0) == 2      # boundary is left-closed
    assert apply(1.5) == 2
    assert apply(2.0) == 3
    assert apply(-10.0) == 1    # out of range clamps to end intervals
    assert apply(10.0) == 3
    assert list(p.apply_array(np.array([0.5, 1.0, 2.5]))) == [1, 2, 3]


def test_edges_must_increase():
    with pytest.raises(ValidationError):
        DiscretizationPolicy((2.0, 1.0), 0.0, 3.0)
    with pytest.raises(ValidationError):
        DiscretizationPolicy((1.0, 1.0), 0.0, 3.0)


def test_interval_width_uses_domain():
    p = DiscretizationPolicy((1.0, 2.0), 0.0, 5.0)
    assert p.interval_width(1) == 1.0
    assert p.interval_width(2) == 1.0
    assert p.interval_width(3) == 3.0


def test_json_round_trip():
    p = DiscretizationPolicy((1.5, 2.5), 0.0, 3.0)
    doc = json.loads(p.to_json(variable="x"))
    assert list(doc.items()) == [("variable", "x"), ("edges", [1.5, 2.5]),
                                 ("domain", [0.0, 3.0])]
    assert DiscretizationPolicy(tuple(doc["edges"]), *doc["domain"]) == p


def test_midpoint_candidates():
    col = sorted_column(np.array([1.0, 2.0, 2.0, 4.0]))
    assert list(midpoint_candidates(col)) == [1.5, 3.0]


def test_representations_counts():
    col = sorted_column(np.array([1.0, 2.0, 2.0, 4.0, 5.0]))
    p = DiscretizationPolicy((1.5, 4.5), 1.0, 5.0)
    lam, gam = representations(p, col)
    assert list(lam) == [1, 4, 5]
    assert list(gam) == [1, 3, 1]


def test_representations_rejects_bad_edges():
    col = sorted_column(np.array([1.0, 2.0, 3.0]))
    lo, hi = 1.0, 3.0
    with pytest.raises(ValidationError, match="coincides"):
        representations(DiscretizationPolicy((2.0,), lo, hi), col)
    with pytest.raises(ValidationError, match="outside"):
        representations(DiscretizationPolicy((0.5,), lo, hi), col)


def test_policy_from_lambda_round_trip():
    col = sorted_column(np.array([1.0, 2.0, 2.0, 4.0, 5.0]))
    p = DiscretizationPolicy((1.5, 3.0), 1.0, 5.0)
    lam, _ = representations(p, col)
    q = policy_from_lambda(lam, col)
    assert q.edges == p.edges


def test_policy_from_lambda_rejects_tie_interior():
    col = sorted_column(np.array([1.0, 2.0, 2.0, 4.0]))
    with pytest.raises(ValidationError):
        policy_from_lambda(np.array([2, 4]), col)  # splits inside the tie


def test_equal_width_basic():
    col = sorted_column(np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
    p = equal_width(col, 4)
    assert p.edges == (1.0, 2.0, 3.0) or len(p.edges) <= 3
    # edges landing on sample values get nudged to midpoints
    assert all(not np.any(col.values == e) for e in p.edges)


def test_equal_width_degenerate_and_k1():
    col = sorted_column(np.array([2.0, 2.0, 2.0]))
    assert equal_width(col, 5).k == 1
    col2 = sorted_column(np.array([1.0, 2.0]))
    assert equal_width(col2, 1).k == 1
    with pytest.raises(ValidationError):
        equal_width(col2, 0)
