"""Print five sha256 digests, over the solvers' outputs, over K2's, over the
reference evaluators', over the evaluation protocols' and over joint
learning's, to show that a change leaves every output bit-identical.

    python3 scripts/output_digest.py

Run it on two checkouts and compare the digests.  The solver digest covers
``h_matrix``, ``mdl_h_matrix``, ``bayes_dp``'s ``(S, back, W)`` (its result
after the edges) and ``mdl_dp`` ``(edges, total, per_k)`` on
``random_instance`` seeds 0-999 and on the synthetic generator of
``tests/synthetic.py`` at n = 300, 700 and 2000, and the ``PolicySet`` of
``discretize_all`` on ``random_mixed`` seeds 0-299 with each of the methods
bayes and mdl.  The K2 digest covers ``k2_multi_restart``
(graph with its edges in insertion order, score and restart) with 1000
restarts on the equal-width k=3 images of Wine and Iris, seeds 0-4;
``k2_pass`` (the JSON of the graph on its order's nodes, with the data's
cardinalities and the edges it returns) and 4-restart ``k2_multi_restart``
on ``random_discrete`` seeds 0-299 with ``max_parents`` None, 0, 1 and 2;
and the JSON of 3-restart ``multi_restart`` on ``random_mixed`` seeds 0-59.
The reference digest covers ``mdl_interval_term`` on every boundary
interval, and ``mdl_objective`` and ``objective`` of ``random_policy``, on
``random_instance`` seeds 0-999; and
``family_score`` of every family with up to two parents on
``random_discrete`` seeds 0-299.  The evaluation digest covers
fixed-structure ``cross_validate`` with bayes, mdl and uniform (5 folds,
seeds 0-2) on Wine and Iris, each over the structure of a 50-restart
``k2_multi_restart`` on its equal-width k=3 image, and the fold accuracies,
fold log-likelihoods and policy edges of ``naive_bayes_protocol`` on Iris
(class ``species``, 5 folds, seeds 0-2, all three methods).  The joint digest
covers the JSON of ``multi_restart`` with 2 restarts, seed 0 and
``max_parents=2`` on Wine and Iris with bayes and mdl, and with 1 restart,
``max_parents=2`` and bayes on ``tests/planted.py``'s chain at n=500, seeds
0-4 (data and restart seed alike).  It imports the package from ``src/`` and
the generators from ``tests/`` of the checkout it sits in.  It takes
about 23 s of CPU on a 2-core machine; the n=2000 MDL solve is about 4 s
of that.
"""

import hashlib
import itertools
import os
import re
import sys
import warnings

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from conftest import (random_discrete, random_instance, random_mixed,  # noqa: E402
                      random_policy)
from dvbn.counts import build_context  # noqa: E402
from dvbn.evaluation import cross_validate, naive_bayes_protocol  # noqa: E402
from dvbn.dataset import load_csv, load_schema, sorted_column, sorted_view  # noqa: E402
from dvbn.discretizer import bayes_dp, mdl_dp, mdl_objective  # noqa: E402
from dvbn.graph import Dag  # noqa: E402
from dvbn.multivar import NOT_CONVERGED, apply_policies, discretize_all  # noqa: E402
from dvbn.policy import equal_width  # noqa: E402
from dvbn.scoring import h_matrix, mdl_h_matrix, mdl_interval_term, objective  # noqa: E402
from dvbn.structure import (family_score, k2_multi_restart, k2_pass,  # noqa: E402
                            multi_restart)
from planted import planted_chain  # noqa: E402
from synthetic import discrete_image, generate_synthetic  # noqa: E402


def solver_outputs(d_star, g, col):
    """The two kernels and both DPs' results for target ``X``."""
    ctx = build_context(d_star, g, "X", col)
    hm, hmdl = h_matrix(ctx, col), mdl_h_matrix(ctx, col)
    return (hm, hmdl, repr(bayes_dp(col, hm, ctx.L)[1:]),
            repr(mdl_dp(col, hmdl, ctx)))


def instances():
    for seed in range(1000):
        d_star, g, col = random_instance(seed)
        if col.m > 1:
            yield f"random_instance {seed}", d_star, g, col
    for n in (300, 700, 2000):
        d, g = generate_synthetic(n, 0)
        yield f"synthetic {n}", discrete_image(d), g, sorted_view(d, "X")


def solver_digest() -> str:
    digest = hashlib.sha256()
    for name, d_star, g, col in instances():
        digest.update(name.encode())
        for out in solver_outputs(d_star, g, col):
            if isinstance(out, np.ndarray):
                digest.update(repr(out.shape).encode() + out.tobytes())
            else:
                digest.update(out.encode())
    for seed in range(300):
        d, g = random_mixed(seed)
        for method in ("bayes", "mdl"):
            digest.update(repr(discretize_all(d, g, method=method)).encode())
    return digest.hexdigest()


def load_bundled(name: str):
    path = os.path.join(ROOT, "data", name)
    return load_csv(path + ".csv", load_schema(path + ".schema.json"))


def equal_width_image(name: str, k: int = 3):
    d = load_bundled(name)
    return apply_policies(d, {x: equal_width(sorted_column(d.columns[x]), k)
                              for x in d.continuous_names()})


def k2_outputs():
    for name in ("wine", "iris"):
        image = equal_width_image(name)
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


def k2_digest() -> str:
    digest = hashlib.sha256()
    for out in k2_outputs():
        digest.update(repr(out).encode())
    return digest.hexdigest()


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


def reference_digest() -> str:
    digest = hashlib.sha256()
    for out in reference_outputs():
        digest.update(repr(out).encode())
    return digest.hexdigest()


def evaluation_outputs():
    methods = ("bayes", "mdl", "uniform")
    for name in ("wine", "iris"):
        d = load_bundled(name)
        g = k2_multi_restart(equal_width_image(name), 50, 0)[0]
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


def evaluation_digest() -> str:
    digest = hashlib.sha256()
    for out in evaluation_outputs():
        digest.update(repr(out).encode())
    return digest.hexdigest()


def joint_outputs():
    for name in ("wine", "iris"):
        d = load_bundled(name)
        for method in ("bayes", "mdl"):
            yield name, method, multi_restart(d, 2, 0, max_parents=2, method=method).to_json()
    for seed in range(5):
        yield "planted", seed, multi_restart(planted_chain(500, seed), 1, seed,
                                             max_parents=2).to_json()


def joint_digest() -> str:
    digest = hashlib.sha256()
    for out in joint_outputs():
        digest.update(repr(out).encode())
    return digest.hexdigest()


def main() -> None:
    # a few solves cycle without converging; their PolicySet records it
    warnings.filterwarnings("ignore", re.escape(f"discretization {NOT_CONVERGED}"))
    print("solvers", solver_digest())
    print("k2", k2_digest())
    print("reference", reference_digest())
    print("evaluation", evaluation_digest())
    print("joint", joint_digest())


if __name__ == "__main__":
    main()
