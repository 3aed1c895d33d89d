#!/usr/bin/env python3
"""Benchmark of skewdg: three closed-loop workloads in one process and one
thread, with every op's answer checked.

    python3 perfbench/run.py --workload staircase_ext --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from src/.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones from a traced
replay of one round.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

from spans import LAYERS, Tracer, Untraced

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

SETUP_REPEATS = 5
TAIL_BEYOND = 10
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

SPANS = (
    "cli.load_matrix", "cli.emit", "report.analyze",
    "dg.cohomology", "dg.cy_probe", "dg.boundary_matrix", "dg.differential",
    "skew.mul", "linalg.rank",
    "classify.classify", "classify.theorem_c", "classify.presentation_of",
    "classify.presented_dims",
    "qpl.iso_solve", "qpl.aut_group",
    "resolution.build_resolution", "resolution.verify_resolution",
    "resolution.ext_algebra", "resolution.eilenberg_moore",
    "finalg.frobenius", "finalg.is_local", "finalg.socle_dim", "finalg.recognize_truncated",
)
COUNTS = (
    "finalg.algebra_dim_sum", "resolution.size_sum", "dg.boundary_matrix.entries",
    "linalg.rank.max_rows", "linalg.rank.max_cols", "qpl.aut_group.families",
)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for name in SPANS:
        units[name + ".busy_s"] = "s"
        units[name + ".calls"] = "count"
        units[name + ".failed"] = "count"
    for name in COUNTS:
        units[name] = "count"
    units["qpl.iso_solve.witness_share"] = "share"
    for layer in LAYERS:
        units["layer.%s.self_share" % layer] = "share"
    units["trace.overhead_share"] = "share"
    units["trace.coverage_share"] = "share"
    return units


def tail(latencies) -> tuple:
    """(percentile, value) at the highest percentile of TAIL_LADDER that
    still has at least TAIL_BEYOND samples above it.  A fixed ladder keeps
    the percentile the same when the sample count moves a little between
    runs."""
    xs = sorted(latencies)
    for pct in reversed(TAIL_LADDER):
        i = math.ceil(len(xs) * pct / 100.0) - 1  # nearest-rank percentile
        if i >= 0 and len(xs) - 1 - i >= TAIL_BEYOND:
            return pct, xs[i]
    raise ValueError("a tail needs more than %d samples, got %d" % (2 * TAIL_BEYOND, len(xs)))


def src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "skewdg", "*.py"))):
        with open(path) as handle:
            total += sum(1 for _ in handle)
    return total


class Tally:
    """Latencies, failures and input properties of one kind of pass."""

    def __init__(self):
        self.latencies = []
        self.by_input = {}
        self.wall = 0.0
        self.failed = 0
        self.branches = Counter()
        self.max_bits = 0
        self.max_size = 0


def run_pass(wl, inputs, ctx, tally, round_no, describe_failure, expect=None):
    """Run the inputs one after another (closed loop), check each answer and
    return the outputs.  With `expect`, each output must also equal the
    matching one in it."""
    from workloads import coefficient_bits, describe_exception  # needs src/ on the path

    outputs = []
    op = wl.traced_op if ctx.enabled else wl.op
    start = time.perf_counter()
    for k, item in enumerate(inputs):
        ctx.op = (round_no, k)
        ctx.step = None
        t0 = time.perf_counter()
        try:
            out = op(item, ctx)
        except Exception as exc:  # a failed op is counted and reported, never fatal
            out, problems = None, [describe_exception(exc)]
        else:
            problems = None
        tally.latencies.append(time.perf_counter() - t0)
        tally.by_input.setdefault(item.name, []).append(tally.latencies[-1])
        outputs.append(out)
        if problems is None:
            step = "check"
            try:
                problems = wl.check(item, out)
                if expect is not None and out != expect[k]:
                    problems.append("traced output differs from the untraced one")
                if not problems:
                    branch, size = wl.properties(item, out)
                    tally.branches[branch] += 1
                    tally.max_size = max(tally.max_size, size)
            except Exception as exc:  # a malformed answer fails the check
                problems = ["check raised " + describe_exception(exc)]
        else:
            step = ctx.step
        tally.max_bits = max(tally.max_bits, coefficient_bits(item.image))
        if problems:
            tally.failed += 1
            describe_failure(round_no, k, item, step, problems)
    tally.wall += time.perf_counter() - start
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "skewdg", "__init__.py")):
        print("error: no skewdg package under %s; run from a repository checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import skewdg
    import workloads
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(skewdg.__file__)) != os.path.join(SRC, "skewdg"):
        print("error: imported skewdg from %s, not from %s" % (skewdg.__file__, SRC),
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        return measure(args, wl, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, import_s) -> int:
    def describe_failure(round_no, k, item, step, problems):
        print("FAILED %s seed=%d round=%d op=%d step=%s input: %s reason: %s"
              % (wl.name, args.seed, round_no, k, step, item.describe(), "; ".join(problems)))

    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):  # set-up is not reported traced
        t0 = time.perf_counter()
        inputs = wl.setup()
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    plain = Tally()
    traced = Tally()
    tracer = Tracer()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        outputs = run_pass(wl, inputs, Untraced(), plain, rounds, describe_failure)
        rounds += 1
        if args.trace:
            # One round, untraced then traced on the same inputs; the traced
            # outputs must equal the untraced ones.
            run_pass(wl, inputs, tracer, traced, 0, describe_failure, expect=outputs)
            break
        # Whole rounds only: start another one only if it fits in --seconds.
        if plain.wall + (time.perf_counter() - round_start) > args.seconds:
            break
        inputs = wl.inputs(rounds)

    attempted = len(plain.latencies) + len(traced.latencies)
    failed = plain.failed + traced.failed
    branches = dict(sorted(plain.branches.items()))
    info = {
        "workload": wl.name, "seed": args.seed, "rounds": rounds,
        "ops": len(plain.latencies), "branch_histogram": branches,
        "max_coefficient_bits": plain.max_bits, "max_resolution_size": plain.max_size,
        "failed_share": failed / attempted, "src_lines": src_lines(),
        "setup_runs_s": setup_times, "import_s": import_s,
        "op_ms_by_input": {name: 1000 * statistics.median(xs)
                           for name, xs in plain.by_input.items()},
    }
    if args.trace:
        metrics = layer_metrics(tracer, plain, traced)
        os.makedirs(WORK, exist_ok=True)
        tracer.write(os.path.join(WORK, "spans-%s-%d.tsv" % (wl.name, args.seed)))
        print("%s seed=%d traced: %d ops, %d failed" % (wl.name, args.seed, attempted, failed))
        for name, m in metrics.items():
            print("  %-44s %.6g %s" % (name, m["value"], m["unit"]))
    else:
        lat = plain.latencies
        pct, tail_value = tail(lat)
        values = {
            "setup_s": (setup_s, "median of %d set-ups, plus import" % SETUP_REPEATS),
            "ops_per_s": (len(lat) / plain.wall, "%d ops in %.2f s" % (len(lat), plain.wall)),
            "op_p50_ms": (1000 * statistics.median(lat), "n=%d" % len(lat)),
            "op_tail_ms": (1000 * tail_value, "p%g, n=%d, at least %d ops beyond"
                           % (pct, len(lat), TAIL_BEYOND)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "n=1, process peak"),
        }
        info["tail_percentile"] = pct
        metrics = {name: {"value": values[name][0], "unit": unit}
                   for name, unit in END_TO_END.items()}
        print("%s seed=%d: %d ops in %d rounds, %d failed (failed_share %.4g)"
              % (wl.name, args.seed, len(lat), rounds, failed, failed / attempted))
        for name, unit in END_TO_END.items():
            print("  %-12s %12.6g %-5s (%s)" % (name, values[name][0], unit, values[name][1]))
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_metrics(tracer, plain, traced) -> dict:
    busy, calls, failed, op_seconds, shares, coverage = tracer.summary(sum(traced.latencies))
    counters = tracer.counters
    values = {}
    for name in SPANS:
        values[name + ".busy_s"] = busy.get(name, 0.0)
        values[name + ".calls"] = calls.get(name, 0)
        values[name + ".failed"] = failed.get(name, 0)
    for name in COUNTS:
        values[name] = counters.get(name, 0)
    iso_calls = calls.get("qpl.iso_solve", 0)
    values["qpl.iso_solve.witness_share"] = (
        counters.get("qpl.iso_solve.witnesses", 0) / iso_calls if iso_calls else 0.0)
    for layer, share in shares.items():
        values["layer.%s.self_share" % layer] = share
    values["trace.overhead_share"] = op_seconds / sum(plain.latencies) - 1.0
    values["trace.coverage_share"] = coverage
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_units().items()}


if __name__ == "__main__":
    sys.exit(main())
