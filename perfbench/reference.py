"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/reference.py

Runs every workload on seeds 0-9 with ``--trace 0``, twice over (set A,
then set B), and once with ``--trace 1`` on seed 0.  Each result line is
appended to ``perfbench/out/runs.jsonl``; the tables are printed as
Markdown.  It takes about 40 minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out", "runs.jsonl")
SEEDS = range(10)
SETS = ("A", "B")


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values) -> tuple[float, float, float, float]:
    """Median, quartiles, and the interquartile distance over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    bench = benchmark()
    names = [w["name"] for w in bench["workloads"]]
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    results = {}
    with open(OUT, "a") as log:
        for label in SETS:
            for w in names:
                for seed in SEEDS:
                    res = run_once(bench, w, seed, 0)
                    results[(label, w, seed)] = res
                    log.write(json.dumps({"set": label, "workload": w, "seed": seed,
                                          "trace": 0, **res}) + "\n")
                    log.flush()
                    print(label, w, seed, res["correct"], res["attempted"],
                          res["failed"], file=sys.stderr, flush=True)
        traced = {}
        for w in names:
            traced[w] = run_once(bench, w, 0, 1)
            log.write(json.dumps({"set": "trace", "workload": w, "seed": 0,
                                  "trace": 1, **traced[w]}) + "\n")

    print("| workload | metric | set | median | Q1 | Q3 | IQR/median | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for w in names:
        for m in bench["end_to_end"]:
            for label in SETS:
                vals = [results[(label, w, s)]["metrics"][m["name"]]["value"]
                        for s in SEEDS]
                med, q1, q3, rel = spread(vals)
                print(f"| {w} | {m['name']} ({m['unit']}) | {label} | {med:.4g} | "
                      f"{q1:.4g} | {q3:.4g} | {rel:.3f} | {m['bound']} |")
    ok = all(r["correct"] and r["failed"] == 0 for r in results.values())
    print(f"\nAll {len(results)} runs correct with 0 failed operations: {ok}\n")

    print("| metric | " + " | ".join(names) + " |")
    print("|---|" + "---|" * len(names))
    for m in bench["per_layer"]:
        row = [traced[w]["metrics"][m["name"]]["value"] for w in names]
        cells = [f"{v:.4g}" if isinstance(v, float) else str(v) for v in row]
        print(f"| {m['name']} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
