"""Seeded adversarial inputs through every CLI command.

Each case is a CSV, schema and structure triple built from awkward values:
ties, a constant column, 1-3 rows, duplicate rows, +-1e300, subnormal gaps,
-0.0, and cyclic or unknown structures.  Whatever the input, a command keeps
the exit-code contract (0 ok, 2 config, 3 data), prints no traceback, and on
success writes only JSON that parses without NaN or Infinity.
"""

import json
import traceback

import numpy as np
from click.testing import CliRunner

from dvbn.cli import main

CONTINUOUS = {
    "ties": lambda rng, n: rng.choice([0.5, 1.5], n),
    "constant": lambda rng, n: np.full(n, 2.25),
    "huge": lambda rng, n: rng.choice([-1e300, 0.0, 1e300], n),
    "subnormal": lambda rng, n: rng.choice([0.0, 5e-324, 1e-323, 1.0], n),
    "negzero": lambda rng, n: rng.choice([-0.0, 0.0, 1.0], n),
    "plain": lambda rng, n: np.round(rng.normal(0, 1, n), 3),
}
STRUCTURES = {  # edges over the nodes a, x, y
    "chain": [["a", "x"], ["x", "y"]],
    "empty": [],
    "cyclic": [["x", "y"], ["y", "x"]],
    "unknown": [["a", "ghost"]],
}
COMMANDS = [
    ["discretize", "--method", "bayes", "--structure", "{g}"],
    ["discretize", "--method", "mdl", "--structure", "{g}"],
    ["learn", "--method", "bayes", "--seed", "0", "--restarts", "2"],
    ["evaluate", "--structure", "{g}", "--method", "bayes", "--method", "mdl",
     "--method", "uniform", "--k", "2", "--folds", "2", "--seed", "0"],
    ["evaluate", "--method", "mdl", "--folds", "2", "--seed", "0", "--max-parents", "1"],
    ["evaluate", "--naive-bayes", "a", "--method", "bayes", "--folds", "2", "--seed", "0"],
]


def adversarial_case(seed, root):
    """Write case ``seed``'s data, schema and structure under ``root``; the
    column kinds and structures cycle so that 12 seeds cover each of them."""
    root.mkdir()
    rng = np.random.default_rng(seed)
    kinds = list(CONTINUOUS)
    n = int(rng.choice([1, 2, 3, 5, 9]))
    x = CONTINUOUS[kinds[seed % len(kinds)]](rng, n)
    y = CONTINUOUS[kinds[int(rng.integers(len(kinds)))]](rng, n)
    a = rng.choice(["p", "q"], n)
    rows = [f"{a[i]},{float(x[i])!r},{float(y[i])!r}" for i in range(n)]
    if seed % 3 == 0:
        rows += rows  # every row twice
    (root / "d.csv").write_text("a,x,y\n" + "\n".join(rows) + "\n")
    (root / "schema.json").write_text(json.dumps({"columns": [
        {"name": "a", "kind": "discrete"},
        {"name": "x", "kind": "continuous"},
        {"name": "y", "kind": "continuous"}]}))
    edges = list(STRUCTURES.values())[seed % len(STRUCTURES)]
    nodes = sorted({"a", "x", "y"} | {v for edge in edges for v in edge})
    (root / "g.json").write_text(json.dumps({"nodes": [{"name": v} for v in nodes],
                                             "edges": edges}))
    return root


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_adversarial_inputs_keep_the_exit_code_contract(tmp_path):
    codes = set()
    for seed in range(12):
        case = adversarial_case(seed, tmp_path / str(seed))
        for i, command in enumerate(COMMANDS):
            out = case / f"out{i}"
            args = [arg.format(g=case / "g.json") for arg in command]
            r = CliRunner().invoke(main, [*args, "--data", str(case / "d.csv"),
                                          "--schema", str(case / "schema.json"),
                                          "--out", str(out)])
            label = (seed, command[0], r.output)
            if r.exception is not None and not isinstance(r.exception, SystemExit):
                label += ("".join(traceback.format_exception(r.exception)),)
            assert r.exit_code in (0, 2, 3), label
            assert "Traceback" not in r.output, label
            if r.exit_code == 0:
                for path in out.glob("*.json"):
                    json.loads(path.read_text(), parse_constant=_reject_constant)
            codes.add(r.exit_code)
    # the cases reach the solvers as well as each error path
    assert codes == {0, 2, 3}
