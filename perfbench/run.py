"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The library is imported from the
checkout's ``src/``; without it the run exits with code 2 and prints no
result.  Set-up (interpreter start, library import, input building) is
timed once, cold, from the start of the process.  Then whole rounds of
the workload's operations run back to back while another round still
fits in ``--seconds`` (at least two).  Outputs of every round are
checked against independent oracles after the timing ends.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median round
time), ``setup_s`` and ``peak_rss_mb``.  ``--trace 1`` runs one warm-up
round, then alternates traced and untraced rounds, and reports the
per-layer metrics, the tracing overhead and the share of a traced round
the layer spans cover; the spans are written to ``perfbench/results/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def metric_units(kind):
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    declared in the checkout's BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def process_age():
    """Seconds since this process started, from the kernel's start time
    (clock ticks since boot) in /proc/self/stat."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


class Round:
    """Runs one round's operations, counting attempts and failures."""

    def __init__(self):
        self.out = {}
        self.attempted = 0
        self.failed = 0

    def op(self, key, fn, *args, **kwargs):
        self.attempted += 1
        try:
            self.out[key] = fn(*args, **kwargs)
        except Exception:  # a failed operation is counted and reported
            self.failed += 1
            print(f"operation {key} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        return self.out.get(key)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def import_library():
    """Import ``bergman_lab`` from this checkout's ``src/`` only; returns
    the import time."""
    src = ROOT / "src"
    if not (src / "bergman_lab" / "__init__.py").is_file():
        raise SetupError(f"perfbench: no library source at {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import bergman_lab
    import_s = time.perf_counter() - t0
    if Path(bergman_lab.__file__).resolve().parent != src / "bergman_lab":
        raise SetupError("perfbench: bergman_lab imported from "
                         f"{bergman_lab.__file__}, not from {src}")
    return import_s


def run_rounds(step, seconds, min_rounds):
    """Call ``step(i)`` for whole rounds while another one fits."""
    times = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step(len(times))
        times.append(time.perf_counter() - t0)
        if len(times) >= min_rounds and (
                time.perf_counter() - start + statistics.median(times)
                > seconds):
            return times


def main(argv=None):
    args = parse_args(argv)
    try:
        import_s = import_library()
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 2
    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup, run_round, check = workloads.WORKLOADS[args.workload]
    inp = setup(np.random.default_rng(args.seed))
    setup_s = process_age()
    cpu_setup = sum(os.times()[:2])

    rounds = []

    def plain(i):
        rnd = Round()
        run_round(inp, rnd)
        rounds.append(rnd)

    if args.trace:
        import spans

        tracer = spans.Tracer()
        traced_times, plain_times = [], []

        def alternate(i):
            # round 0 warms caches and the allocator; then odd rounds are
            # traced and even ones untraced, so the overhead compares
            # warm rounds with warm rounds
            t0 = time.perf_counter()
            if i % 2 == 0:
                plain(i)
                if i:
                    plain_times.append(time.perf_counter() - t0)
                return
            tracer.begin_round()
            tracer.install(extra=(workloads,))
            try:
                plain(i)
            finally:
                tracer.uninstall()
            traced_times.append(time.perf_counter() - t0)

        run_rounds(alternate, args.seconds, min_rounds=3)
        units = metric_units("per_layer")
        metrics = spans.layer_metrics(tracer, traced_times, plain_times,
                                        units)
        metrics["process.cpu_s"] = cpu_setup
        metrics["process.import_s"] = import_s
        RESULTS.mkdir(exist_ok=True)
        out_path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        out_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "traced_round_s": traced_times, "untraced_round_s": plain_times,
            "rounds": tracer.dump()}))
    else:
        # two rounds at least, so the cold first round is never the only one
        times = run_rounds(plain, args.seconds, min_rounds=2)
        print("round times (s): " + " ".join(f"{t:.3f}" for t in times))
        metrics = {
            "wall_s": statistics.median(times),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = metric_units("end_to_end")

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    fails = []
    for i, rnd in enumerate(rounds):
        fails += [f"round {i}: {msg}" for msg in check(inp, rnd.out)]
    for msg in fails[:20]:
        print(f"CHECK FAILED {msg}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations attempted, {failed} failed, "
          f"{len(fails)} check failures")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
