"""Run one workload of the dvbn benchmark and print its result.

    python3 perfbench/run.py --workload wine_fixed --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` and the datasets are read from ``data/``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json; with ``--trace 1`` a separate run reports
the per-layer spans and counters.  README.md explains both.
"""

import os

# One BLAS/OpenMP thread, set before NumPy is first imported (here or in
# the set-up probes, which inherit the environment).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import calibrate  # noqa: E402
from setup_probe import CLOCK, import_workloads  # noqa: E402

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120

UNITS = {"setup_s": "s", "k2_s": "s", "bayes_s": "s", "mdl_s": "s",
         "nll_bayes": "nats/row", "nll_mdl": "nats/row", "peak_rss_mb": "MB"}


def scaled(seconds: float, calibration: float) -> float:
    """CPU seconds at the nominal machine speed of calibrate.py."""
    return seconds * calibrate.NOMINAL_S / calibration


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes, scaled by the median of
    their calibration samples."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    setups, cals = [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, probe, workload, str(seed)],
                             capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S, check=True)
        setup, cal = map(float, out.stdout.split()[-2:])
        setups.append(setup)
        cals.append(cal)
    return scaled(statistics.median(setups), statistics.median(cals))


class Runner:
    """Runs rounds of a workload's operations and keeps the tallies."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.fails: list[str] = []
        self.ref: dict = {}
        self.calibration: list[float] = []

    def round(self, before_op=None) -> dict:
        """One round: each operation once, after a calibration sample.
        Returns ``{op: CPU seconds}`` for the operations that did not raise;
        outputs are compared with the first round's."""
        times = {}
        for op, fn in self.wl.ops().items():
            self.calibration.append(calibrate.sample(CLOCK))
            if before_op is not None:
                before_op()
            self.attempted += 1
            t0 = CLOCK()
            try:
                out = fn()
            except Exception:
                self.failed += 1
                traceback.print_exc()
                continue
            times[op] = CLOCK() - t0
            if op not in self.ref:
                self.ref[op] = out
            elif self.wl.output(op, out) != self.wl.output(op, self.ref[op]):
                self.fails.append(f"{op}: output differs from the first round")
        return times

    def warm_up_and_check(self, workloads):
        """First round, untimed: records every ``discretize_all`` result
        and runs the output checks."""
        self.wl.prepare()
        captured = {}
        for op, fn in self.wl.ops().items():
            with workloads.captured_policy_sets() as captured[op]:
                self.attempted += 1
                try:
                    self.ref[op] = fn()
                except Exception:
                    self.failed += 1
                    traceback.print_exc()
        if len(self.ref) < len(workloads.OPS):
            self.fails.append("an operation failed, so its outputs cannot be checked")
            return {}
        self.fails += self.wl.check(self.ref, captured)
        return self.wl.quality(self.ref)


def end_to_end(args, workloads) -> tuple[Runner, dict]:
    setup = setup_seconds(args.workload, args.seed)
    run = Runner(workloads.WORKLOADS[args.workload](args.seed))
    quality = run.warm_up_and_check(workloads)
    times = {op: [] for op in workloads.OPS}
    start = time.perf_counter()
    while True:
        for op, dt in run.round().items():
            times[op].append(dt)
        if time.perf_counter() - start >= args.seconds:
            break
    metrics = {"setup_s": setup, **quality,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    cal = statistics.median(run.calibration)
    for op, ts in times.items():
        if ts:
            metrics[op + "_s"] = scaled(statistics.median(ts), cal)
    return run, {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def per_layer(args, workloads) -> tuple[Runner, dict]:
    """Traced run: setup and rounds under the layer wrappers, alternating
    with untraced rounds to give the tracing overhead per operation."""
    import layers
    tracer = layers.Tracer(CLOCK)
    setup_stats = []
    with layers.rebound(tracer.wrappers()):
        for _ in range(SETUP_SAMPLES):
            tracer.reset()
            wl = workloads.WORKLOADS[args.workload](args.seed)
            setup_stats.append(dict(tracer.stats))
    run = Runner(wl)
    run.warm_up_and_check(workloads)
    round_stats, plain, traced = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run.round())
        tracer.reset()
        with layers.rebound(tracer.wrappers()):
            traced.append(run.round(before_op=tracer.begin_op))
        round_stats.append(dict(tracer.stats))
        if time.perf_counter() - start >= args.seconds:
            break

    def med(samples, key):
        return statistics.median(s.get(key, 0.0) for s in samples)
    metrics = {}
    for name in layers.metric_names():
        v = med(setup_stats, name) + med(round_stats, name)
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = {"value": int(v) if unit == "count" and v.is_integer() else v,
                         "unit": unit}
    cal = statistics.median(run.calibration)
    for op in workloads.OPS:
        over = scaled(med(traced, op) - med(plain, op), cal)
        metrics[f"overhead.{op}_s"] = {"value": over, "unit": "s"}
    return run, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {sorted(workloads.WORKLOADS)}")
    run, metrics = (per_layer if args.trace else end_to_end)(args, workloads)
    for msg in run.fails:
        print("CHECK FAILED:", msg, file=sys.stderr)
    print(json.dumps({"correct": not run.fails, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
