"""Cross-validated log-likelihood evaluation and the naive-Bayes protocol.

Held-out likelihood has a discrete part (network likelihood of the
discretized test rows under Dirichlet-smoothed training counts) and a density
part (piecewise-uniform correction using the training interval widths); both
are normalized by the test row count per fold and averaged over folds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .counts import family_counts, joint_codes
from .dataset import DiscreteDataset, MixedDataset
from .errors import ValidationError
from .graph import Dag
from .multivar import PolicySet, apply_policies, discretize_all, equal_width_set
from .policy import DiscretizationPolicy
from .structure import multi_restart


@dataclass
class TrainedModel:
    """Per-family smoothed count tables fit on a training fold."""

    parents: dict[str, tuple[str, ...]]
    beta: dict[str, np.ndarray]        # (q_i, r_i) observed training counts

    def log_table(self, x: str) -> np.ndarray:
        """``(q, r)`` smoothed log CPT of ``x``: ln((1+β)/(r+β₀)), where
        α = 1 and β₀ sums β over x's values."""
        b = self.beta[x]
        return np.log(1.0 + b) - np.log(b.shape[1] + b.sum(axis=1))[:, None]


def fit_parameters(d_star: DiscreteDataset, g: Dag) -> TrainedModel:
    parents, beta = {}, {}
    for x in g.nodes:
        pa = tuple(sorted(g.parents(x)))
        beta[x] = family_counts(d_star, x, pa)
        parents[x] = pa
    return TrainedModel(parents, beta)


def loglik_discrete(model: TrainedModel, d_star_test: DiscreteDataset) -> float:
    """Log-likelihood of discretized test rows under the trained network."""
    total = 0.0
    for x in model.beta:
        r = model.beta[x].shape[1]
        col = d_star_test.columns[x]
        if np.any(col < 1) or np.any(col > r):
            raise ValidationError(f"test column {x!r} outside 1..{r}")
        pa = model.parents[x]
        codes, _ = joint_codes([d_star_test.columns[p] for p in pa],
                               [model.beta[p].shape[1] for p in pa], d_star_test.n_rows)
        total += float(model.log_table(x)[codes, col - 1].sum())
    return total


def loglik_density(d_test: MixedDataset, policies: dict[str, DiscretizationPolicy]) -> float:
    """Piecewise-uniform density correction for the continuous test columns."""
    total = 0.0
    for name, pol in policies.items():
        xs = d_test.columns[name]
        idx = pol.apply_array(xs)
        widths = np.array([pol.interval_width(i) for i in range(1, pol.k + 1)])
        if np.any(widths <= 0):
            raise ValidationError(f"zero-width interval for {name!r}")
        total += float(-np.log(widths[idx - 1]).sum())
    return total


def fold_indices(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle then block split; fold sizes differ by at most one."""
    if folds < 2:
        raise ValidationError("folds must be >= 2")
    if folds > n:
        raise ValidationError("more folds than rows")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, folds)]


def _fold_splits(d: MixedDataset, folds: int, seed: int):
    """Yields ``(train, test)`` datasets per fold of :func:`fold_indices`;
    with ``2 <= folds <= n`` neither side of a split is empty."""
    all_idx = np.arange(d.n_rows)
    for test_idx in fold_indices(d.n_rows, folds, seed):
        yield d.subset_rows(np.setdiff1d(all_idx, test_idx)), d.subset_rows(test_idx)


@dataclass
class CvReport:
    method: str
    folds: list[float]
    seed: int
    protocol: str  # "fixed" or "joint"

    @property
    def mean(self) -> float:
        return float(np.mean(self.folds))

    def to_json(self) -> str:
        return json.dumps({
            "method": self.method, "seed": self.seed, "n_folds": len(self.folds),
            "fold_loglik_per_sample": self.folds, "mean": self.mean,
            "folds_protocol": self.protocol,
        }, indent=2)

    def csv_rows(self) -> list[dict]:
        return [{"method": self.method, "fold": i, "loglik_per_sample": v}
                for i, v in enumerate(self.folds)]


def train_policies(train: MixedDataset, g: Dag, method: str,
                   uniform_k: int) -> PolicySet:
    """Policies for every continuous variable on a fixed graph: equal-width
    ``uniform_k`` intervals for ``method="uniform"``, else
    :func:`discretize_all`."""
    if method == "uniform":
        return equal_width_set(train, uniform_k)
    return discretize_all(train, g, method=method)


def evaluate_fold(test: MixedDataset, g: Dag,
                  policies: PolicySet) -> tuple[float, TrainedModel, DiscreteDataset]:
    """Normalized log-likelihood of one fold's ``test`` rows under a model
    fit on ``policies.image``, with that model and the discretized test rows."""
    model = fit_parameters(policies.image, g)
    d_star_test = apply_policies(test, policies.policies)
    ll = loglik_discrete(model, d_star_test) + loglik_density(test, policies.policies)
    return ll / test.n_rows, model, d_star_test


def cross_validate(d: MixedDataset, method: str, structure: Dag | None = None,
                   folds: int = 10, seed: int = 0, uniform_k: int = 5,
                   restarts: int = 1, max_parents: int | None = None) -> CvReport:
    """Cross-validated normalized log-likelihood.

    With ``structure`` given, policies are retrained per fold on the fixed
    graph; otherwise structure and policies are learned jointly per fold,
    which ``method="uniform"`` does not support.
    """
    if method == "uniform" and structure is None:
        raise ValidationError("method 'uniform' needs a fixed structure")
    scores = []
    for f, (train, test) in enumerate(_fold_splits(d, folds, seed)):
        if structure is not None:
            g = structure
            pset = train_policies(train, g, method, uniform_k)
        else:
            res = multi_restart(train, restarts, seed=seed + 1000 + f,
                                max_parents=max_parents, method=method)
            g, pset = res.graph, res.policies
        scores.append(evaluate_fold(test, g, pset)[0])
    return CvReport(method=method, folds=scores, seed=seed,
                    protocol="fixed" if structure is not None else "joint")


# ---------------------------------------------------------------------------
# Naive-Bayes classification protocol
# ---------------------------------------------------------------------------

def naive_bayes_structure(d: MixedDataset, class_var: str) -> Dag:
    return Dag({v.name: (v.cardinality if v.kind == "discrete" else None)
                for v in d.variables},
               [(class_var, name) for name in d.names if name != class_var])


def _nb_predict(model: TrainedModel, d_star_test: DiscreteDataset,
                class_var: str, features: list[str]) -> np.ndarray:
    # the class is parentless: its table is one row, the class prior
    log_post = np.tile(model.log_table(class_var)[0], (d_star_test.n_rows, 1))
    for feat in features:
        vals = d_star_test.columns[feat] - 1
        log_post += model.log_table(feat)[:, vals].T  # (n, r_c)
    return np.argmax(log_post, axis=1) + 1


def naive_bayes_protocol(d: MixedDataset, class_var: str, folds: int = 10,
                         seed: int = 0, methods: tuple[str, ...] = ("bayes", "mdl"),
                         uniform_k: int = 5) -> dict:
    """Fixed class-to-feature structure: full-data policies per method plus
    cross-validated accuracy and normalized log-likelihood.  ``uniform_k`` is
    the interval count of ``method="uniform"``."""
    if not all(d.is_continuous(v.name) for v in d.variables if v.name != class_var):
        raise ValidationError("all non-class variables must be continuous")
    if d.is_continuous(class_var):
        raise ValidationError("class variable must be discrete")
    g = naive_bayes_structure(d, class_var)
    features = [name for name in d.names if name != class_var]

    out = {}
    for method in methods:
        full = train_policies(d, g, method, uniform_k)
        accs, lls = [], []
        for train, test in _fold_splits(d, folds, seed):
            pset = train_policies(train, g, method, uniform_k)
            ll, model, d_star_test = evaluate_fold(test, g, pset)
            pred = _nb_predict(model, d_star_test, class_var, features)
            accs.append(float(np.mean(pred == test.columns[class_var])))
            lls.append(ll)
        out[method] = {
            "policies": full.policies,
            "fold_accuracies": accs,
            "accuracy": float(np.mean(accs)),
            "fold_logliks": lls,
            "mean_loglik": float(np.mean(lls)),
        }
    return out
