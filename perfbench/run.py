"""utxsim benchmark: one workload per process, one thread.

    python3 perfbench/run.py --workload unlink|campaign|suites --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. With ``--trace 0`` the run makes passes
over a few rounds of the workload (see workloads.py), each round in a fresh
fork of this process, for about ``--seconds``, then prints the end-to-end
metrics from each experiment's fastest pass, scaled to the reference speed.
With ``--trace 1`` it runs the seed's first round twice, untraced and then
traced, and prints the per-layer metrics. Either way every verdict line is
compared with golden.json and the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 only
when every verdict matched.

See README.md in this directory for the metrics and their definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"

PASSES = 2
SETUP_REPEATS = 11
REFERENCE_ITEMS = 250
REFERENCE_TRIES = 3
REFERENCE_S = 0.001      # reference_work time that scaled times assume

clock = time.perf_counter


def load_program():
    """Put the checkout's utxsim on the path, or exit 2 if there is none."""
    if not (SRC / "utxsim" / "__init__.py").is_file():
        print(f"error: no utxsim sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import utxsim, generate the inputs and exit "
                        "(what setup_s times)")
    return p.parse_args(argv)


def measure_setup(args) -> float:
    """Median wall time of a fresh interpreter that imports utxsim and
    generates this run's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(clock() - t0)
    return statistics.median(times)


class Gate:
    """Compares each round's verdict lines with the recorded ones."""

    def __init__(self, workload):
        self.golden = json.loads(GOLDEN.read_text())[workload]
        self.drifted = []

    def check(self, b, result):
        if result.digest() != self.golden[str(b)]:
            self.drifted.append(b)
            print(f"verdict drift in round {b}:", file=sys.stderr)
            for line in result.lines:
                print(f"  {line}", file=sys.stderr)


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all
    sorted values, weighted by the Beta((n+1)p, (n+1)(1-p)) density over
    each value's rank interval. Unlike a single order statistic it does not
    jump when the quantile falls in a gap between clusters of times, as the
    median of the suites' 1-5 ms and 50-700 ms experiments does."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for i in range(n):       # midpoint rule, 8 points over [i/n, (i+1)/n]
        points = ((i + (k + 0.5) / 8) / n for k in range(8))
        weights.append(sum(math.exp((a - 1) * math.log(u)
                                    + (b - 1) * math.log1p(-u) - log_beta)
                           for u in points))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def failures(exps) -> int:
    """Failed experiments, plus verdict errors in rows of no experiment."""
    return sum(exps.failed(i) for i in range(len(exps))) + exps.loose_errors


def _height(t):
    return 1 + max((_height(x) for x in t if isinstance(x, tuple)), default=0)


def reference_work():
    """Fixed work shaped like the program's own: nested tuples hashed into a
    dict and walked recursively. It is not utxsim code and never changes,
    so its time measures how fast the machine runs at that moment."""
    table = {}
    for i in range(REFERENCE_ITEMS):
        t = (i % 7, (i % 13, ("n", i % 11)), (i % 5,))
        table[t] = table.get(t, 0) + _height(t)
    return len(table)


class Reference:
    """Times reference_work before each experiment, with the collector off
    so that the program's heap does not enter the timing."""

    def __init__(self):
        self.samples = []     # per experiment: fastest of REFERENCE_TRIES

    def __call__(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(REFERENCE_TRIES):
                t0 = clock()
                reference_work()
                times.append(clock() - t0)
        finally:
            if enabled:
                gc.enable()
        self.samples.append(min(times))


@dataclass
class Round:
    """What one run of a round reports back to the parent process."""
    result: object         # workloads.RoundResult: the verdict lines
    durations: list        # per experiment: seconds to its last verdict
    failed: int            # failed experiments (see failures)
    rows: int              # verdict rows
    verdict_errors: int    # rows off their expected status
    peak_rss_mb: float
    reference_times: list  # reference_work times, one per experiment


def _round_here(workload, payload) -> Round:
    import probe
    import workloads

    reference = Reference()
    exps = probe.Experiments(before_start=reference)
    with probe.instrument(exps):
        result = workloads.run_round(workload, payload, exps)
    return Round(result, exps.durations(), failures(exps),
                 sum(exps.rows) + exps.loose_rows,
                 sum(exps.errors) + exps.loose_errors,
                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                 reference.samples)


def run_round_forked(workload, payload) -> Round:
    """Run one round in a forked copy of this process.

    The parent never runs the program, so every round, and every repeat of
    a round, starts from the same process state: no memo, cache or heap
    left by an earlier round. Only one process runs at a time."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            data = pickle.dumps(_round_here(workload, payload))
            with os.fdopen(w, "wb") as fh:
                fh.write(data)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(w)
    try:
        with os.fdopen(r, "rb") as fh:
            data = fh.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"round process exited with status {status}")
    return pickle.loads(data)


def run_measured(args, inputs, gate):
    """Make PASSES passes over the same distinct rounds. The first pass
    takes as many rounds as leave room for all PASSES in ``--seconds``. An
    experiment's time is its fastest pass."""
    t_begin = clock()
    chosen, passes = [], []
    for b, payload in inputs:
        result = run_round_forked(args.workload, payload)
        gate.check(b, result.result)
        chosen.append((b, payload))
        passes.append(result)
        pass_s = clock() - t_begin
        if pass_s * (len(chosen) + 1) / len(chosen) * PASSES > args.seconds:
            break
    for _ in range(PASSES - 1):
        for b, payload in chosen:
            result = run_round_forked(args.workload, payload)
            gate.check(b, result.result)
            passes.append(result)
    rounds = [passes[i::len(chosen)] for i in range(len(chosen))]
    best = [[min(ds) for ds in zip(*(r.durations for r in repeats))]
            for repeats in rounds]
    durations = [d for ds in best for d in ds]
    # The mean, not the median: the program's times add up fast and slow
    # moments alike, and so does a mean of reference times.
    reference = statistics.mean(t for r in passes for t in r.reference_times)
    timings = {"wall_s": (statistics.median(sum(ds) for ds in best), "s"),
               "exp_p50_ms": (quantile(durations, 0.5) * 1e3, "ms"),
               "exp_p90_ms": (quantile(durations, 0.9) * 1e3, "ms")}
    scale = REFERENCE_S / reference
    metrics = {name: (value * scale, unit)
               for name, (value, unit) in timings.items()}
    metrics["peak_rss_mb"] = (max(r.peak_rss_mb for r in passes), "MB")
    print("unscaled: " + "  ".join(f"{name} {value:.6g} {unit}" for
                                   name, (value, unit) in timings.items()))
    print(f"reference_work {reference * 1e3:.4f} ms, mean of the run "
          f"(times scaled by {REFERENCE_S * 1e3:g} ms / that)")
    attempted = sum(len(r.durations) for r in passes)
    failed = sum(r.failed for r in passes)
    print(f"rounds {len(chosen)} x {PASSES} passes  "
          f"experiments {len(durations)} distinct, {attempted} run  "
          f"verdict rows {sum(r.rows for r in passes)}  "
          f"run {clock() - t_begin:.1f} s")
    print(f"{'verdict_errors':<16}{sum(r.verdict_errors for r in passes)} "
          f"rows (failed experiments {failed} of {attempted})")
    return metrics, attempted, failed


def run_traced(args, inputs, gate):
    import probe
    import workloads
    import layers

    b, payload = inputs[0]
    walls, attempted, failed = [], 0, 0
    for traced in (False, True):
        exps = probe.Experiments()
        tracer = probe.Tracer(exps) if traced else None
        with probe.instrument(exps, tracer):
            result = workloads.run_round(args.workload, payload, exps)
        walls.append(exps.end[-1] - exps.start[0])
        gate.check(b, result)
        attempted += len(exps)
        failed += failures(exps)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-{args.seed}.tsv.gz"
    tracer.write(spans)
    print(f"round {b}  experiments {len(exps)}  spans {len(tracer.spans)} "
          f"-> {spans.relative_to(ROOT)}")
    return (layers.metrics(tracer, traced_wall=walls[1],
                           untraced_wall=walls[0]),
            attempted, failed)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run unwinds, so that it stops and reaps any round process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    load_program()
    import workloads

    try:
        inputs = workloads.make_inputs(args.workload, args.seed)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0
    gate = Gate(args.workload)
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = (measure_setup(args), "s")
    run = run_traced if args.trace else run_measured
    more, attempted, failed = run(args, inputs, gate)
    metrics.update(more)
    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:<40}{shown} {unit}")
    correct = not gate.drifted and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
