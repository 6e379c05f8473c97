"""Write RESULTS.json, the ledger of the paper's comparisons as this checkout
computes them.

    python3 scripts/reproduce.py

Each entry records its protocol (dataset, methods, fold count and seed,
restarts, ``max_parents`` and where the structure comes from) beside its
numbers, and how many ``discretize_all`` runs inside it stopped at
``MAX_PASSES`` without converging.  The entries are:

- joint 5-fold CV (fold seed 0, 1 restart, ``max_parents=2``), bayes and
  mdl, on Wine and Iris: structure and policies are learned per fold;
- fixed-structure 10-fold CV (fold seed 0), bayes, mdl and uniform (k=5), on
  Wine and Iris, over the structure of 1000-restart K2 (seed 0) on the
  equal-width k=3 image of the whole dataset;
- the naive-Bayes protocol on Iris (class ``species``, 10 folds, seed 0),
  accuracy and mean held-out log-likelihood per method;
- recall of ``tests/planted.py``'s chain by joint learning (n=500, seeds
  0-4, 1 restart, ``max_parents=2``), bayes and mdl, with the extra edges.

Timings are left out, so the file is byte-identical across runs of the same
code; a change that moves an output shows up as a diff of this file.  The
whole ledger takes about 18 s of CPU.  It imports the package from ``src/``
and the planted generator from ``tests/`` of the checkout it sits in.
"""

import json
import os
import sys
import warnings

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from dvbn.dataset import load_csv, load_schema, sorted_view  # noqa: E402
from dvbn.evaluation import cross_validate, naive_bayes_protocol  # noqa: E402
from dvbn.multivar import MAX_PASSES, NOT_CONVERGED, apply_policies  # noqa: E402
from dvbn.policy import equal_width  # noqa: E402
from dvbn.structure import k2_multi_restart, multi_restart  # noqa: E402
from planted import PLANTED_EDGES, planted_chain  # noqa: E402

FOLD_SEED = 0
K2_RESTARTS = 1000
K2_IMAGE_K = 3
UNIFORM_K = 5


def load_bundled(name: str):
    data = os.path.join(ROOT, "data")
    return load_csv(os.path.join(data, f"{name}.csv"),
                    load_schema(os.path.join(data, f"{name}.schema.json")))


def counting_unconverged(fn, *args, **kwargs):
    """``fn``'s result and how many discretizations in it hit the pass cap."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, **kwargs)
    return out, sum(NOT_CONVERGED in str(w.message) for w in caught)


def joint_cv_entries():
    for name in ("wine", "iris"):
        d = load_bundled(name)
        for method in ("bayes", "mdl"):
            rep, unconverged = counting_unconverged(
                cross_validate, d, method, folds=5, seed=FOLD_SEED, restarts=1,
                max_parents=2)
            yield {"protocol": "cv", "dataset": name, "method": method,
                   "structure": "joint (K2 with rediscretization, per fold)",
                   "folds": 5, "fold_seed": FOLD_SEED, "restarts": 1,
                   "restart_seeds": "fold_seed + 1000 + fold", "max_parents": 2,
                   "mean_loglik_per_sample": rep.mean,
                   "fold_loglik_per_sample": rep.folds, "unconverged": unconverged}


def fixed_cv_entries():
    for name in ("wine", "iris"):
        d = load_bundled(name)
        image = apply_policies(d, {x: equal_width(sorted_view(d, x), K2_IMAGE_K)
                                   for x in d.continuous_names()})
        g, _, restart = k2_multi_restart(image, K2_RESTARTS, 0)
        for method in ("bayes", "mdl", "uniform"):
            rep, unconverged = counting_unconverged(
                cross_validate, d, method, structure=g, folds=10, seed=FOLD_SEED,
                uniform_k=UNIFORM_K)
            yield {"protocol": "cv", "dataset": name, "method": method,
                   "structure": f"fixed: best of {K2_RESTARTS}-restart K2 (seed 0) on "
                                f"the equal-width k={K2_IMAGE_K} image",
                   "structure_edges": [list(e) for e in g.edges],
                   "k2_restarts": K2_RESTARTS, "k2_seed": 0, "k2_best_restart": restart,
                   "max_parents": None, "folds": 10, "fold_seed": FOLD_SEED,
                   **({"uniform_k": UNIFORM_K} if method == "uniform" else {}),
                   "mean_loglik_per_sample": rep.mean,
                   "fold_loglik_per_sample": rep.folds, "unconverged": unconverged}


def naive_bayes_entries():
    d = load_bundled("iris")
    for method in ("bayes", "mdl", "uniform"):
        res, unconverged = counting_unconverged(
            naive_bayes_protocol, d, "species", folds=10, seed=FOLD_SEED,
            methods=(method,), uniform_k=UNIFORM_K)
        r = res[method]
        yield {"protocol": "naive_bayes", "dataset": "iris", "method": method,
               "class": "species", "structure": "naive Bayes: species -> every feature",
               "folds": 10, "fold_seed": FOLD_SEED,
               **({"uniform_k": UNIFORM_K} if method == "uniform" else {}),
               "accuracy": r["accuracy"], "mean_loglik_per_sample": r["mean_loglik"],
               "fold_accuracies": r["fold_accuracies"], "unconverged": unconverged}


def planted_entries():
    for method in ("bayes", "mdl"):
        for seed in range(5):
            res, unconverged = counting_unconverged(
                multi_restart, planted_chain(500, seed), 1, seed, max_parents=2,
                method=method)
            edges = [frozenset(e) for e in res.graph.edges]
            yield {"protocol": "planted_recall", "dataset": "planted_chain",
                   "method": method, "n": 500, "data_seed": seed, "restart_seed": seed,
                   "restarts": 1, "max_parents": 2,
                   "recalled": len(PLANTED_EDGES & set(edges)),
                   "planted": len(PLANTED_EDGES),
                   "extra_edges": sorted("-".join(sorted(e)) for e in edges
                                         if e not in PLANTED_EDGES),
                   "unconverged": unconverged}


def main() -> None:
    entries = [*joint_cv_entries(), *fixed_cv_entries(), *naive_bayes_entries(),
               *planted_entries()]
    doc = {"generated_by": "scripts/reproduce.py", "max_passes": MAX_PASSES,
           "entries": entries}
    path = os.path.join(ROOT, "RESULTS.json")
    with open(path, "w") as f:
        f.write(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {len(entries)} entries to {os.path.normpath(path)}")


if __name__ == "__main__":
    main()
