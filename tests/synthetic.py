"""Synthetic single-target data and the runtime-scaling measurement of the
two discretizers that criterion 7 fits its log-log slopes to."""

from __future__ import annotations

import time

import numpy as np

from dvbn.dataset import DiscreteDataset, MixedDataset, Variable, sorted_view
from dvbn.discretizer import discretize_one
from dvbn.graph import Dag


def generate_synthetic(n: int, seed: int, n_parents: int = 2, n_children: int = 2,
                       levels: int = 3, spouses_per_child: int = 1):
    """One continuous target with discrete parents, children, and spouses.

    Children depend on the target through quantile thresholds so the data
    carries real signal; target values are continuous draws, hence almost
    surely all unique.
    """
    rng = np.random.default_rng(seed)
    parents = {f"P{i}": rng.integers(1, levels + 1, size=n) for i in range(n_parents)}
    x = sum(parents.values()) + rng.normal(0, 1.0, size=n) if parents else rng.normal(0, 1.0, size=n)
    x = np.asarray(x, dtype=float)
    qs = np.quantile(x, np.linspace(0, 1, levels + 1)[1:-1])
    base = np.searchsorted(qs, x) + 1  # 1..levels, the signal children follow
    children, spouses = {}, {}
    for j in range(n_children):
        schild = {}
        for t in range(spouses_per_child):
            schild[f"S{j}_{t}"] = rng.integers(1, levels + 1, size=n)
        noise = rng.integers(0, levels, size=n)
        flip = rng.random(n) < 0.2
        child = np.where(flip, noise + 1, base)
        if schild:
            child = ((child + sum(schild.values())) % levels) + 1
        children[f"C{j}"] = child.astype(np.int64)
        spouses.update(schild)

    variables = [Variable("X", "continuous")]
    columns: dict[str, np.ndarray] = {"X": x}
    for name, col in {**parents, **children, **spouses}.items():
        variables.append(Variable(name, "discrete", levels))
        columns[name] = col.astype(np.int64)
    d = MixedDataset(variables, columns, source=f"<synthetic n={n} seed={seed}>")

    g = Dag({v.name: (levels if v.kind == "discrete" else None) for v in variables})
    for p in parents:
        g = g.add_edge(p, "X")
    for j in range(n_children):
        g = g.add_edge("X", f"C{j}")
        for t in range(spouses_per_child):
            g = g.add_edge(f"S{j}_{t}", f"C{j}")
    return d, g


def discrete_image(d: MixedDataset) -> DiscreteDataset:
    """The discrete columns of ``d`` plus a placeholder target column, which
    ``discretize_one`` never reads."""
    cols = {v.name: d.columns[v.name] for v in d.variables if v.kind == "discrete"}
    cards = {v.name: v.cardinality for v in d.variables if v.kind == "discrete"}
    cols["X"] = np.ones(d.n_rows, dtype=np.int64)
    cards["X"] = 1
    return DiscreteDataset(cols, cards)


def run_bench(n_list: list[int], seed: int, methods=("bayes", "mdl"), repeats: int = 3):
    """Least process CPU time over ``repeats`` calls of one discretization
    per (method, n), as ``(method, n, seconds, k)`` rows, plus fitted log-log
    slopes for the methods with more than one n."""
    rows = []
    for n in n_list:
        d, g = generate_synthetic(n, seed)
        col = sorted_view(d, "X")
        d_star = discrete_image(d)
        for method in methods:
            best, pol = None, None
            for _ in range(repeats):
                t0 = time.process_time()
                pol = discretize_one(d_star, g, "X", col, method=method)
                dt = time.process_time() - t0
                best = dt if best is None else min(best, dt)
            rows.append((method, n, best, pol.k))
    slopes = {}
    for method in methods:
        pts = [(n, sec) for meth, n, sec, _ in rows if meth == method]
        if len(pts) >= 2:
            xs = np.log([p[0] for p in pts])
            ys = np.log([max(p[1], 1e-9) for p in pts])
            slopes[method] = float(np.polyfit(xs, ys, 1)[0])
    return rows, slopes
