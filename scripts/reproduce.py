"""Write RESULTS.json, the ledger of the paper's comparisons as this checkout
computes them, with five sha256 digests over the package's outputs.

    python3 scripts/reproduce.py && git diff --exit-code RESULTS.json

is the one output check: it fails when a change moves any output that the
ledger or the digests cover.  The script takes about 30 s of CPU on a
shared 2-core machine (28-34 s over five runs; the n=2000 MDL kernel and DP
of the ``solvers`` digest take about 4 s of that).  It imports the package
from ``src/`` and the generators of ``tests/`` (``conftest.py``,
``planted.py`` and ``synthetic.py``) from the checkout it sits in, so the
digests also move when those generators do.

Each ledger entry records its protocol (dataset, methods, fold count and
seed, restarts, ``max_parents`` and where the structure comes from) beside
its numbers, and how many ``discretize_all`` runs inside it stopped at
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

The digests are:

- ``solvers``: ``h_matrix`` and ``mdl_h_matrix`` (their chunks assembled
  into the dense m×m matrix by ``conftest.dense_kernel``), ``bayes_dp``'s
  ``(S, back, W)`` (its result after the edges) and ``mdl_dp`` ``(edges,
  total, per_k)`` on ``random_instance`` seeds 0-999 and on the synthetic
  generator of ``tests/synthetic.py`` at n = 300, 700 and 2000, and the
  ``PolicySet`` of ``discretize_all`` on ``random_mixed`` seeds 0-299 with
  each of the methods bayes and mdl;
- ``k2``: ``k2_multi_restart`` (graph with its edges in insertion order,
  score and restart) with 1000 restarts on the equal-width k=3 images of
  Wine and Iris, seeds 0-4; ``k2_pass`` (the JSON of the graph on its
  order's nodes, with the data's cardinalities and the edges it returns) and
  4-restart ``k2_multi_restart`` on ``random_discrete`` seeds 0-299 with
  ``max_parents`` None, 0, 1 and 2; and the JSON of 3-restart
  ``multi_restart`` on ``random_mixed`` seeds 0-59;
- ``reference``: ``mdl_interval_term`` on every boundary interval, and
  ``mdl_objective`` and ``objective`` of ``random_policy``, on
  ``random_instance`` seeds 0-999; and ``family_score`` of every family with
  up to two parents on ``random_discrete`` seeds 0-299;
- ``evaluation``: fixed-structure ``cross_validate`` with bayes, mdl and
  uniform (5 folds, seeds 0-2) on Wine and Iris, each over the structure of
  a 50-restart ``k2_multi_restart`` on its equal-width k=3 image, and the
  fold accuracies, fold log-likelihoods and policy edges of
  ``naive_bayes_protocol`` on Iris (class ``species``, 5 folds, seeds 0-2,
  all three methods);
- ``joint``: the JSON of ``multi_restart`` with 2 restarts, seed 0 and
  ``max_parents=2`` on Wine and Iris with bayes and mdl, and with 1 restart,
  ``max_parents=2`` and bayes on the planted chain at n=500, seeds 0-4
  (data and restart seed alike).

Timings are left out, so the file is byte-identical across runs of the same
code.
"""

import hashlib
import itertools
import json
import os
import sys
import warnings

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from conftest import (dense_kernel, random_discrete, random_instance,  # noqa: E402
                      random_mixed, random_policy)
from dvbn.counts import build_context  # noqa: E402
from dvbn.dataset import load_csv, load_schema, sorted_view  # noqa: E402
from dvbn.discretizer import bayes_dp, mdl_dp, mdl_objective  # noqa: E402
from dvbn.evaluation import cross_validate, naive_bayes_protocol  # noqa: E402
from dvbn.graph import Dag  # noqa: E402
from dvbn.multivar import (MAX_PASSES, NotConvergedWarning,  # noqa: E402
                           discretize_all, equal_width_set)
from dvbn.scoring import h_matrix, mdl_h_matrix, mdl_interval_term, objective  # noqa: E402
from dvbn.structure import (family_score, k2_multi_restart, k2_pass,  # noqa: E402
                            multi_restart)
from planted import PLANTED_EDGES, planted_chain  # noqa: E402
from synthetic import discrete_image, generate_synthetic  # noqa: E402

FOLD_SEED = 0
K2_RESTARTS = 1000
K2_IMAGE_K = 3
UNIFORM_K = 5


def load_bundled(name: str):
    path = os.path.join(ROOT, "data", name)
    return load_csv(path + ".csv", load_schema(path + ".schema.json"))


def equal_width_image(d):
    """``d`` with every continuous variable cut into K2_IMAGE_K equal widths."""
    return equal_width_set(d, K2_IMAGE_K).image


def counting_unconverged(fn, *args, **kwargs):
    """``fn``'s result and how many discretizations in it hit the pass cap."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NotConvergedWarning)
        out = fn(*args, **kwargs)
    return out, sum(issubclass(w.category, NotConvergedWarning) for w in caught)


# ---------------------------------------------------------------------------
# The ledger
# ---------------------------------------------------------------------------

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
        g, _, restart = k2_multi_restart(equal_width_image(d), K2_RESTARTS, 0)
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


# ---------------------------------------------------------------------------
# The digests: each hashes the bytes its generator yields, in order
# ---------------------------------------------------------------------------

def sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def reprs(outputs):
    return (repr(out).encode() for out in outputs)


def solver_outputs(d_star, g, col):
    """The two kernels, as dense matrices, and both DPs' results for target
    ``X``; each DP reads its own kernel's chunks as they are built."""
    ctx = build_context(d_star, g, "X", col)
    return (dense_kernel(h_matrix(ctx, col), col.m),
            dense_kernel(mdl_h_matrix(ctx, col), col.m),
            repr(bayes_dp(col, h_matrix(ctx, col), ctx.L)[1:]),
            repr(mdl_dp(col, mdl_h_matrix(ctx, col), ctx)))


def instances():
    for seed in range(1000):
        d_star, g, col = random_instance(seed)
        if col.m > 1:
            yield f"random_instance {seed}", d_star, g, col
    for n in (300, 700, 2000):
        d, g = generate_synthetic(n, 0)
        yield f"synthetic {n}", discrete_image(d), g, sorted_view(d, "X")


def solver_chunks():
    for name, d_star, g, col in instances():
        yield name.encode()
        for out in solver_outputs(d_star, g, col):
            if isinstance(out, np.ndarray):
                yield repr(out.shape).encode() + out.tobytes()
            else:
                yield out.encode()
    for seed in range(300):
        d, g = random_mixed(seed)
        for method in ("bayes", "mdl"):
            yield repr(discretize_all(d, g, method=method)).encode()


def k2_outputs():
    for name in ("wine", "iris"):
        image = equal_width_image(load_bundled(name))
        for seed in range(5):
            g, score, restart = k2_multi_restart(image, 1000, seed)
            yield f"{name} {seed}", g.to_json(), score, restart
    for seed in range(300):
        d = random_discrete(seed)
        names = list(d.columns)
        order = [names[i] for i in np.random.default_rng(seed).permutation(len(names))]
        for max_parents in (None, 0, 1, 2):
            g, score, restart = k2_multi_restart(d, 4, seed, max_parents)
            yield (f"random_discrete {seed} {max_parents}",
                   Dag({x: d.cardinalities[x] for x in order},
                       k2_pass(d, order, max_parents)[0]).to_json(),
                   g.to_json(), score, restart)
    for seed in range(60):
        d, _ = random_mixed(seed)
        yield f"random_mixed {seed}", multi_restart(d, 3, seed).to_json()


def reference_outputs():
    for seed in range(1000):
        d_star, g, col = random_instance(seed)
        ctx = build_context(d_star, g, "X", col)
        s = col.last_occurrence
        a = [0, *s[:-1]]
        yield seed, [mdl_interval_term(ctx, int(a[u]) + 1, int(s[v]))
                     for u in range(col.m) for v in range(u, col.m)]
        policy = random_policy(seed, col)
        yield seed, mdl_objective(policy, col, ctx), objective(col, ctx, policy)
    for seed in range(300):
        d = random_discrete(seed)
        for x in d.columns:
            others = [y for y in d.columns if y != x]
            for k in range(3):
                for parents in itertools.combinations(others, k):
                    yield seed, x, parents, family_score(x, parents, d)


def evaluation_outputs():
    methods = ("bayes", "mdl", "uniform")
    for name in ("wine", "iris"):
        d = load_bundled(name)
        g = k2_multi_restart(equal_width_image(d), 50, 0)[0]
        for seed in range(3):
            for method in methods:
                rep = cross_validate(d, method, structure=g, folds=5, seed=seed)
                yield name, seed, method, rep.folds
    d = load_bundled("iris")
    for seed in range(3):
        res = naive_bayes_protocol(d, "species", folds=5, seed=seed, methods=methods)
        for method, r in res.items():
            yield (seed, method, r["fold_accuracies"], r["fold_logliks"],
                   sorted((v, p.edges) for v, p in r["policies"].items()))


def joint_outputs():
    for name in ("wine", "iris"):
        d = load_bundled(name)
        for method in ("bayes", "mdl"):
            yield name, method, multi_restart(d, 2, 0, max_parents=2, method=method).to_json()
    for seed in range(5):
        yield "planted", seed, multi_restart(planted_chain(500, seed), 1, seed,
                                             max_parents=2).to_json()


def main() -> None:
    entries = [*joint_cv_entries(), *fixed_cv_entries(), *naive_bayes_entries(),
               *planted_entries()]
    with warnings.catch_warnings():
        # a few solves cycle without converging; their PolicySet records it
        warnings.simplefilter("ignore", NotConvergedWarning)
        digests = {"solvers": sha256(solver_chunks()),
                   "k2": sha256(reprs(k2_outputs())),
                   "reference": sha256(reprs(reference_outputs())),
                   "evaluation": sha256(reprs(evaluation_outputs())),
                   "joint": sha256(reprs(joint_outputs()))}
    doc = {"generated_by": "scripts/reproduce.py", "max_passes": MAX_PASSES,
           "digests": digests, "entries": entries}
    path = os.path.join(ROOT, "RESULTS.json")
    with open(path, "w") as f:
        f.write(json.dumps(doc, indent=2) + "\n")
    for name, hexdigest in digests.items():
        print(name, hexdigest)
    print(f"wrote {len(entries)} entries and {len(digests)} digests to "
          f"{os.path.normpath(path)}")


if __name__ == "__main__":
    main()
