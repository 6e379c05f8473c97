"""Checks on the program's outputs, against :mod:`oracle` computations.

Every check takes plain values (lists, dicts, floats) and returns a list of
failure messages, empty when the output is correct.
"""

from __future__ import annotations

import math

import oracle

#: Relative slack when comparing two objective values that the oracle
#: computes the same way; only rounding can separate equal scores.
REL_TOL = 1e-9
#: Largest allowed difference of a fold's log-likelihood per row.
FOLD_TOL = 1e-9
ACCURACY_RANGE = (0.90, 0.98)


def check_solve(x, parents, children, edges, method: str, L: int,
                max_k: int = 5) -> list[str]:
    """An optimal single-variable policy: more than one interval, edges on
    midpoints, and no policy one move away or equal-width policy with
    ``k = 1..max_k`` scoring lower under the oracle objective."""
    if method == "bayes":
        def score(e):
            return oracle.bayes_objective(x, parents, children, e, L)
    else:
        def score(e):
            return oracle.mdl_objective(x, parents, children, e)
    xs = sorted(x)
    uniq = sorted(set(xs))
    mids = [(a + b) / 2 for a, b in zip(uniq, uniq[1:])]
    edges = list(edges)
    fails = []
    if len(edges) < 1:
        fails.append(f"{method}: k = 1, no edge found")
    if any(e not in set(mids) for e in edges) or edges != sorted(set(edges)):
        return fails + [f"{method}: edges {edges} are not increasing midpoints"]
    best = score(edges)
    slack = REL_TOL * max(1.0, abs(best))
    rivals = [("move", e) for e in oracle.neighbour_policies(edges, mids)]
    rivals += [(f"equal-width k={k}",
                oracle.snapped(oracle.equal_width_edges(xs[0], xs[-1], k), xs))
               for k in range(1, max_k + 1)]
    for what, e in rivals:
        s = score(e)
        if s < best - slack:
            fails.append(f"{method}: {what} {e} scores {s!r} < {best!r}")
    return fails


def check_k2(columns: dict, cards: dict, parents: dict, score: float) -> list[str]:
    """Each accepted parent strictly raised its family's Dirichlet score when
    added, and the reported network score is the sum of family scores."""
    fails = []
    total = 0.0
    for x, pa in parents.items():
        cols = {p: (columns[p], cards[p]) for p in pa}
        for p, gain in oracle.greedy_gains(columns[x], cards[x], cols):
            if not gain > 0.0:
                fails.append(f"k2: parent {p} of {x} changes the score by {gain!r}")
        total += oracle.family_score(columns[x], cards[x], [cols[p] for p in pa])
    if not math.isclose(score, total, rel_tol=REL_TOL):
        fails.append(f"k2: reported score {score!r} != recomputed {total!r}")
    return fails


def check_partition(tests: list, n: int) -> list[str]:
    rows = sorted(i for t in tests for i in t)
    sizes = [len(t) for t in tests]
    if rows != list(range(n)) or max(sizes) - min(sizes) > 1:
        return [f"folds are not a balanced partition of {n} rows: sizes {sizes}"]
    return []


def check_folds(label: str, columns: dict, cards: dict, parents: dict,
                tests: list, policies: list, reported: list) -> list[str]:
    """Each fold's held-out log-likelihood per row, recomputed from training
    counts and interval widths, matches the reported one; each policy's
    domain is its training range."""
    n = len(next(iter(columns.values())))
    fails = check_partition(tests, n)
    if not (len(tests) == len(policies) == len(reported)):
        return fails + [f"{label}: {len(tests)} folds, {len(policies)} policy "
                        f"sets, {len(reported)} scores"]
    for f, (test, pols, got) in enumerate(zip(tests, policies, reported)):
        held = set(test)
        train = [i for i in range(n) if i not in held]
        for name, (_, lo, hi) in pols.items():
            vals = [columns[name][i] for i in train]
            if (lo, hi) != (min(vals), max(vals)):
                fails.append(f"{label} fold {f}: {name} domain {(lo, hi)} is not "
                             f"the training range")
        want = oracle.fold_loglik(columns, cards, parents, pols, train, list(test))
        if not abs(got - want) <= FOLD_TOL:
            fails.append(f"{label} fold {f}: log-likelihood {got!r} != {want!r}")
    return fails


def check_converged(label: str, flags: list) -> list[str]:
    if not flags:
        return [f"{label}: no discretize_all call seen"]
    bad = [i for i, ok in enumerate(flags) if not ok]
    return [f"{label}: discretize_all calls {bad} did not converge"] if bad else []


def check_ordering(nll_bayes: float, nll_mdl: float) -> list[str]:
    if not nll_bayes < nll_mdl:
        return [f"held-out NLL bayes {nll_bayes!r} is not below mdl {nll_mdl!r}"]
    return []


def check_accuracy(method: str, accuracies: list) -> list[str]:
    mean = sum(accuracies) / len(accuracies)
    lo, hi = ACCURACY_RANGE
    if not lo <= mean <= hi:
        return [f"{method}: mean accuracy {mean!r} outside [{lo}, {hi}]"]
    return []


def check_same_edges(a: dict, b: dict) -> list[str]:
    diff = sorted(v for v in a if a[v] != b.get(v))
    return [f"full-data edges differ between methods on {diff}"] if diff else []
