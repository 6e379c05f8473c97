"""Print one sha256 digest over the solvers' outputs, to show that a change
leaves every output bit-identical.

    python3 scripts/output_digest.py

Run it on two checkouts and compare the digests.  It covers ``h_matrix``,
``mdl_h_matrix``, ``bayes_dp`` ``(S, back, W)`` and ``mdl_dp`` ``(edges,
total, per_k)`` on ``random_instance`` seeds 0-999 and on the synthetic
generator of ``tests/synthetic.py`` at n = 300, 700 and 2000, and the
``PolicySet`` of ``discretize_all`` on ``random_mixed`` seeds 0-299 with each
of the methods bayes and mdl.  It imports the package from ``src/`` and the
generators from ``tests/`` of the checkout it sits in.  The n=2000 MDL solve
takes most of its time, several seconds of CPU.
"""

import hashlib
import os
import sys
import warnings

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from conftest import random_instance, random_mixed  # noqa: E402
from dvbn.counts import build_context  # noqa: E402
from dvbn.dataset import sorted_view  # noqa: E402
from dvbn.discretizer import bayes_dp, mdl_dp  # noqa: E402
from dvbn.multivar import discretize_all  # noqa: E402
from dvbn.scoring import h_matrix, mdl_h_matrix  # noqa: E402
from synthetic import discrete_image, generate_synthetic  # noqa: E402


def solver_outputs(d_star, g, col):
    """The two kernels and both DPs' results for target ``X``."""
    ctx = build_context(d_star, g, "X", col)
    hm, hmdl = h_matrix(ctx, col), mdl_h_matrix(ctx, col)
    dp = bayes_dp(col, hm, ctx.L)
    return hm, hmdl, repr((dp.S, dp.back, dp.W)), repr(mdl_dp(col, hmdl, ctx))


def instances():
    for seed in range(1000):
        d_star, g, col = random_instance(seed)
        if col.m > 1:
            yield f"random_instance {seed}", d_star, g, col
    for n in (300, 700, 2000):
        d, g = generate_synthetic(n, 0)
        yield f"synthetic {n}", discrete_image(d), g, sorted_view(d, "X")


def main() -> None:
    digest = hashlib.sha256()
    for name, d_star, g, col in instances():
        digest.update(name.encode())
        for out in solver_outputs(d_star, g, col):
            if isinstance(out, np.ndarray):
                digest.update(repr(out.shape).encode() + out.tobytes())
            else:
                digest.update(out.encode())
    # a few seeds cycle without converging; their PolicySet records it
    warnings.filterwarnings("ignore", "discretization did not converge")
    for seed in range(300):
        d, g = random_mixed(seed)
        for method in ("bayes", "mdl"):
            digest.update(repr(discretize_all(d, g, method=method)).encode())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
