"""Record the dvbn benchmark in BENCH_<slug>.json.

    python3 scripts/bench.py --slug k2_prefix_codes --seconds 25
    python3 scripts/bench.py --slug k2_prefix_codes --against 18925ab

Each run is ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
in a subprocess, from the root of the checkout it times.  The seeds 0-9 run
in turn, and each seed rotates the order of the workloads.  With
``--against``, the given commit is extracted with ``git archive`` into a
temporary directory and timed in alternation with this checkout into
``BENCH_<slug>_baseline.json``, so every recorded pair keeps its own
baseline: every (seed, workload) pair runs on both sides, and the side that
runs first alternates from seed to seed.
A run that reports ``correct: false`` or a failed operation stops the
recorder.  A side whose timed paths differ from its commit is recorded as
``dirty``, with the sha256 of that difference.  After the timed runs, one
``--trace 1`` run per workload and side records the layer calls and self
times.  ``run.py`` prints only calibrated times (CPU seconds scaled to a
nominal machine), so no raw CPU time is recorded.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["synth_blanket", "wine_fixed", "iris_nb"]
SEEDS = list(range(10))
#: The paths whose changes alter what a run times.
TIMED_PATHS = ("src", "perfbench", "data")


def summarize(runs: list[dict]) -> dict:
    """Per metric of the ``metrics`` dicts that ``run.py`` prints: its unit,
    its values in run order, and their min, quartiles and median."""
    out = {}
    for name in runs[0]:
        values = [run[name]["value"] for run in runs]
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        out[name] = {"unit": runs[0][name]["unit"], "values": values,
                     "min": min(values), "q1": q1, "median": median, "q3": q3}
    return out


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``run.py`` run; its metrics, or exit if it failed a check or an
    operation."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{checkout}: {' '.join(cmd[1:])}: correct={result['correct']}, "
                 f"failed={result['failed']}\n{proc.stderr}")
    return result["metrics"]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def diff_sha256(checkout: str) -> str | None:
    """The sha256 of ``git diff HEAD --binary`` over ``TIMED_PATHS`` in
    ``checkout``, or None if they hold what HEAD holds: two dirty trees of
    one commit with the same hash time the same files."""
    diff = subprocess.run(["git", "diff", "HEAD", "--binary", "--", *TIMED_PATHS],
                          cwd=checkout, capture_output=True, check=True).stdout
    return hashlib.sha256(diff).hexdigest() if diff else None


def record(sides: dict, seconds: float) -> dict:
    """Time every side (slug -> (checkout, commit, diff_sha256)) in
    alternation; the BENCH document of each side."""
    runs = {slug: {w: [] for w in WORKLOADS} for slug in sides}
    for i, seed in enumerate(SEEDS):
        for w in WORKLOADS[i % len(WORKLOADS):] + WORKLOADS[:i % len(WORKLOADS)]:
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for slug in order:
                runs[slug][w].append(run_once(sides[slug][0], w, seed, seconds, 0))
                print(f"seed {seed} {w} {slug}: k2_s {runs[slug][w][-1]['k2_s']['value']:.4f}",
                      file=sys.stderr)
    docs = {}
    for slug, (checkout, commit, diff) in sides.items():
        docs[slug] = {
            "commit": commit, "dirty": diff is not None, "diff_sha256": diff,
            "seeds": SEEDS, "seconds": seconds,
            "command": "perfbench/run.py --workload W --seed S --seconds T --trace 0",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "paired_with": sorted(set(sides) - {slug}),
            "workloads": {w: {"end_to_end": summarize(runs[slug][w]),
                              "layers": {name: m["value"] for name, m in
                                         run_once(checkout, w, SEEDS[0], seconds, 1).items()}}
                          for w in WORKLOADS}}
    return docs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--slug", required=True, help="this checkout's BENCH_<slug>.json")
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--against", help="a commit to time in alternation, as the baseline")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="dvbn-bench-") as tmp:
        sides = {args.slug: (ROOT, git("rev-parse", "HEAD").strip(), diff_sha256(ROOT))}
        if args.against:
            archive = subprocess.run(["git", "archive", args.against], cwd=ROOT,
                                     capture_output=True, check=True).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
            sides[f"{args.slug}_baseline"] = (tmp, git("rev-parse", args.against).strip(),
                                              None)
        docs = record(sides, args.seconds)
    for slug, doc in docs.items():
        with open(os.path.join(ROOT, f"BENCH_{slug}.json"), "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
