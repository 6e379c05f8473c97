import math

import numpy as np
import pytest

from conftest import random_mixed
from dvbn.dataset import DiscreteDataset, MixedDataset, Variable
from dvbn.errors import ValidationError
from dvbn.evaluation import (cross_validate, fit_parameters, fold_indices,
                             loglik_density, loglik_discrete,
                             naive_bayes_protocol, naive_bayes_structure)
from dvbn.graph import Dag
from dvbn.policy import DiscretizationPolicy


def test_fold_indices_partition():
    parts = fold_indices(25, 10, seed=3)
    assert len(parts) == 10
    flat = np.concatenate(parts)
    assert sorted(flat) == list(range(25))
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1
    # deterministic under the seed
    again = fold_indices(25, 10, seed=3)
    assert all(np.array_equal(a, b) for a, b in zip(parts, again))
    with pytest.raises(ValidationError):
        fold_indices(5, 1, seed=0)
    with pytest.raises(ValidationError):
        fold_indices(3, 4, seed=0)


def test_loglik_discrete_manual():
    # single binary variable, training counts [3, 1]
    train = DiscreteDataset({"a": np.array([1, 1, 1, 2], dtype=np.int64)}, {"a": 2})
    g = Dag({"a": 2})
    model = fit_parameters(train, g)
    test = DiscreteDataset({"a": np.array([1, 2], dtype=np.int64)}, {"a": 2})
    got = loglik_discrete(model, test)
    # smoothed: P(1) = (1+3)/(2+4), P(2) = (1+1)/(2+4)
    assert got == pytest.approx(math.log(4 / 6) + math.log(2 / 6))


def test_loglik_discrete_rejects_out_of_range():
    train = DiscreteDataset({"a": np.array([1, 2], dtype=np.int64)}, {"a": 2})
    model = fit_parameters(train, Dag({"a": 2}))
    with pytest.raises(ValidationError):
        # valid for its own cardinality 3, not for the model's 2
        bad = DiscreteDataset({"a": np.array([3], dtype=np.int64)}, {"a": 3})
        loglik_discrete(model, bad)


def test_loglik_density_is_neg_log_width():
    pol = DiscretizationPolicy((1.0,), 0.0, 3.0)  # widths 1 and 2
    d = MixedDataset([Variable("x", "continuous")],
                     {"x": np.array([0.5, 2.0, 2.5])})
    got = loglik_density(d, {"x": pol})
    assert got == pytest.approx(-math.log(1.0) - 2 * math.log(2.0))


def test_density_normalizes():
    # sum over intervals of P(interval) = 1 regardless of the widths
    train = DiscreteDataset({"x": np.array([1, 1, 2, 3], dtype=np.int64)}, {"x": 3})
    model = fit_parameters(train, Dag({"x": 3}))
    b = model.beta["x"][0]
    probs = (1.0 + b) / (3 + b.sum())
    assert probs.sum() == pytest.approx(1.0)


def test_cross_validate_fixed_structure():
    d, g = random_mixed(8)
    rep = cross_validate(d, "uniform", structure=g, folds=3, seed=0, uniform_k=2)
    assert len(rep.folds) == 3
    assert rep.method == "uniform"
    rows = rep.csv_rows()
    assert [r["fold"] for r in rows] == [0, 1, 2]
    with pytest.raises(ValidationError):
        cross_validate(d, "nope", structure=g, folds=3, seed=0)


def test_cross_validate_rejects_joint_uniform():
    # joint learning has no equal-width discretizer; it must not fall back to bayes
    d, _ = random_mixed(8)
    with pytest.raises(ValidationError, match="uniform"):
        cross_validate(d, "uniform", structure=None, folds=3, seed=0)


def test_cross_validate_seed_changes_split():
    d, g = random_mixed(9)
    r1 = cross_validate(d, "uniform", structure=g, folds=3, seed=0, uniform_k=2)
    r2 = cross_validate(d, "uniform", structure=g, folds=3, seed=0, uniform_k=2)
    assert r1.folds == r2.folds  # deterministic


def test_naive_bayes_structure_shape():
    d, _ = random_mixed(10)
    with pytest.raises(ValidationError):
        naive_bayes_protocol(d, "A")  # dataset has another discrete variable
    iris_like = MixedDataset(
        [Variable("f1", "continuous"), Variable("f2", "continuous"),
         Variable("cls", "discrete", 2)],
        {"f1": np.arange(20, dtype=float),
         "f2": np.arange(20, dtype=float)[::-1].copy(),
         "cls": np.array([1] * 10 + [2] * 10, dtype=np.int64)})
    g = naive_bayes_structure(iris_like, "cls")
    assert sorted(g.edges) == [("cls", "f1"), ("cls", "f2")]
    res = naive_bayes_protocol(iris_like, "cls", folds=4, seed=0,
                               methods=("bayes",))
    assert 0.0 <= res["bayes"]["accuracy"] <= 1.0
    assert len(res["bayes"]["fold_accuracies"]) == 4


def test_naive_bayes_class_must_be_discrete():
    d = MixedDataset([Variable("f", "continuous"), Variable("c", "continuous")],
                     {"f": np.arange(6, dtype=float),
                      "c": np.arange(6, dtype=float)})
    with pytest.raises(ValidationError):
        naive_bayes_protocol(d, "c")
