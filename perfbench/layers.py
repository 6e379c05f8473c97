"""Per-layer spans and counters, recorded from outside the package.

The package binds its layer functions with ``from ... import``, so a function
is looked up under its own name in every module that imported it.
:func:`rebound` swaps a wrapper in wherever the original is bound (for
example ``h_matrix`` in ``dvbn.scoring`` and ``dvbn.discretizer``) and puts
the originals back on exit.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from collections import defaultdict

#: Layer functions timed by the traced run, as ``<module>.<function>``
#: under ``dvbn``.
LAYERS = (
    "dataset.load_csv",
    "counts.build_context",
    "scoring.h_matrix",
    "scoring.mdl_h_matrix",
    "discretizer.bayes_dp",
    "discretizer.mdl_dp",
    "discretizer.discretize_one",
    "multivar.discretize_all",
    "multivar.apply_policies",
    "evaluation.fit_parameters",
    "evaluation.loglik_discrete",
    "evaluation.loglik_density",
    "structure.family_score",
    "structure.k2_pass",
)

#: Counters beside ``calls`` and ``self_s``.
EXTRA = (
    "scoring.h_matrix.cells",
    "scoring.mdl_h_matrix.cells",
    "discretizer.discretize_one.repeats",
    "multivar.discretize_all.passes",
    "multivar.discretize_all.unconverged",
    "structure.family_score.cache_hits",
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dvbn" or name.startswith("dvbn."))]


def original(layer: str):
    mod, fn = layer.split(".")
    return getattr(sys.modules["dvbn." + mod], fn)


@contextlib.contextmanager
def rebound(wrappers: dict):
    """Bind ``wrappers[layer]`` in place of the layer's function in every
    package module that holds it; restore the originals on exit."""
    swaps = []
    for layer, wrapper in wrappers.items():
        orig = original(layer)
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    swaps.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
    try:
        yield
    finally:
        for mod, attr, orig in reversed(swaps):
            setattr(mod, attr, orig)


def _arg_getter(fn, name: str):
    """Fast accessor for one argument of ``fn`` from ``(args, kwargs)``."""
    params = inspect.signature(fn).parameters
    idx = list(params).index(name)
    default = params[name].default

    def get(args, kwargs):
        if len(args) > idx:
            return args[idx]
        return kwargs.get(name, default)
    return get


def solve_key(d_star, g, x, col, method):
    """Everything a single-variable solve reads: the variable's sorted
    column, the method, L, the blanket's roles, columns and cardinalities."""
    parents, children, spouses = g.neighbors_for_discretization(x)
    blanket = sorted(set(parents).union(children, *spouses))
    roles = (tuple(sorted(parents)), tuple(children),
             tuple(tuple(sorted(s)) for s in spouses))
    cols = tuple((b, d_star.cardinalities[b], d_star.columns[b].tobytes())
                 for b in blanket)
    return (x, method, g.markov_blanket_max_cardinality(x),
            col.values.tobytes(), roles, cols)


class Tracer:
    """Spans around every layer call: calls, self time and layer counters.

    Self time is a span's duration minus the durations of the spans it
    directly encloses.  :meth:`begin_op` marks the start of one call from the
    benchmark into the package; repeated solves are counted within it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = defaultdict(float)
        self._child = []
        self._seen = set()

    def begin_op(self):
        self._seen = set()

    def reset(self):
        self.stats.clear()

    def _span(self, layer, fn, hook=None):
        stats, stack, clock = self.stats, self._child, self.clock

        def wrapper(*args, **kwargs):
            done = hook(args, kwargs) if hook is not None else None
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats[layer + ".self_s"] += dt - stack.pop()
                stats[layer + ".calls"] += 1
                if stack:
                    stack[-1] += dt
            if done is not None:
                done(out)
            return out
        return wrapper

    def wrappers(self) -> dict:
        hooks = {
            "scoring.h_matrix": self._cells,
            "scoring.mdl_h_matrix": self._cells,
            "discretizer.discretize_one": self._repeats,
            "multivar.discretize_all": self._passes,
            "structure.family_score": self._cache_hits,
        }
        out = {}
        for layer in LAYERS:
            fn = original(layer)
            make = hooks.get(layer)
            out[layer] = self._span(layer, fn, make and make(layer, fn))
        return out

    def _cells(self, layer, fn):
        get_col = _arg_getter(fn, "col")

        def hook(args, kwargs):
            self.stats[layer + ".cells"] += get_col(args, kwargs).m ** 2
        return hook

    def _repeats(self, layer, fn):
        getters = [_arg_getter(fn, p)
                   for p in ("d_star", "g", "x", "col", "method")]

        def hook(args, kwargs):
            key = solve_key(*(get(args, kwargs) for get in getters))
            if key in self._seen:
                self.stats[layer + ".repeats"] += 1
            self._seen.add(key)
        return hook

    def _passes(self, layer, fn):
        def done(pset):
            self.stats[layer + ".passes"] += pset.pass_count
            self.stats[layer + ".unconverged"] += not pset.converged
        return lambda args, kwargs: done

    def _cache_hits(self, layer, fn):
        get_cache = _arg_getter(fn, "cache")

        def hook(args, kwargs):
            cache = get_cache(args, kwargs)
            if cache is None:
                return None
            size = len(cache)

            def done(out):
                # a miss stores its score; a hit leaves the cache as it was
                if len(cache) == size:
                    self.stats[layer + ".cache_hits"] += 1
            return done
        return hook


def metric_names() -> list[str]:
    names = []
    for layer in LAYERS:
        names += [layer + ".calls", layer + ".self_s"]
    return names + list(EXTRA)
