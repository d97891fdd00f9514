"""The bpcalc benchmark.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 5 --trace 0

Run from a checkout of the repository: bpcalc is imported from ``src/``
next to this directory, never from an installed copy, and the run fails
with exit code 2 when that source is missing.

Load model: a closed loop with one client. One process, no threads; each
op starts after the previous one ends. The run makes passes over the
workload's op list for about ``--seconds``: at least one pass, and
another only while it would end closer to ``--seconds`` than stopping
does. Each later pass draws fresh seeded inputs. Every op's output is checked;
an op that raises or gives a wrong output counts as failed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the first
pass's op list untraced, traced and untraced again, and prints the
per-layer metrics of the traced pass (see ``tracing.py``);
``trace.overhead_s`` is the traced pass time minus the mean of the two
untraced ones.

With ``--trace 0`` every time is reference-speed time (``speed.py``): wall
time scaled, stretch by stretch, by how fast a fixed calibration kernel
ran at that moment, so that a shared host's changing speed does not show
as a change in the program. The raw wall times are printed too. Lines before the last list every metric by name and unit;
the last line is the JSON result. The full result, with every op's time
and the trace's root spans, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter
from types import SimpleNamespace

import workloads
from speed import SpeedClock
from tracing import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 7


def load_bpcalc():
    """Import bpcalc afresh from ``src/``, dropping any copy already loaded,
    so each set-up pays the full import."""
    for name in [m for m in sys.modules if m == "bpcalc" or m.startswith("bpcalc.")]:
        del sys.modules[name]
    bp = SimpleNamespace(**{m: importlib.import_module(f"bpcalc.{m}") for m in LAYERS})
    if not os.path.abspath(bp.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"bpcalc was imported from {bp.cli.__file__}, not {SRC}")
    return bp


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least a share q
    of the values at or below it."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def run_pass(op_list, tracer=None) -> dict:
    """Run every op once, in order; time ``run`` and then check its output.
    Each op keeps the wall times it started and ended at, ``t0``/``t1``."""
    records = []
    start = perf_counter()
    for op in op_list:
        if tracer is not None:
            tracer.begin_op(op.label)
        t0 = perf_counter()
        try:
            result = op.run()
            error = None
        except (Exception, SystemExit) as exc:
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        t1 = perf_counter()
        if tracer is not None:
            tracer.end_op()
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        records.append({"kind": op.kind, "label": op.label, "t0": t0, "t1": t1,
                        "s": t1 - t0, "error": error})
    end = perf_counter()
    return {"start": start, "end": end, "wall_s": end - start, "ops": records}


def failures(passes) -> list:
    return [r for p in passes for r in p["ops"] if r["error"] is not None]


def end_to_end(setups, passes, peak_rss_kb, clock) -> tuple:
    """The metrics every workload reports, and the extra lines it prints.
    Times are reference-speed times. Pass-level figures are medians over
    the run's passes; op percentiles pool the ops of every pass."""
    for p in passes:
        p["ref_s"] = clock.scaled(p["start"], p["end"])
        for r in p["ops"]:
            r["ref_s"] = clock.scaled(r["t0"], r["t1"])

    def per_pass(fn):
        return statistics.median(fn(p) for p in passes)

    op_ms = [r["ref_s"] * 1000 for p in passes for r in p["ops"]]

    metrics = {
        "setup_s": (statistics.median(clock.scaled(a, b) for a, b in setups), "s"),
        "wall_s": (per_pass(lambda p: p["ref_s"]), "s"),
        "op_p50_ms": (percentile(op_ms, 0.5), "ms"),
        "op_p90_ms": (percentile(op_ms, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }
    attempted = sum(len(p["ops"]) for p in passes)
    extra = {
        "ops_failed_frac": (len(failures(passes)) / attempted, "ratio"),
        "op_samples": (attempted, "count"),
        "passes": (len(passes), "count"),
        "raw_setup_s": (statistics.median(b - a for a, b in setups), "s"),
        "raw_wall_s": (per_pass(lambda p: p["wall_s"]), "s"),
        "machine_slowdown": (clock.slowdown(), "x"),
    }
    for p in (5, 7):
        times = [r["ref_s"] for q in passes for r in q["ops"] if r["label"] == f"verify all p={p}"]
        if times:
            extra[f"verify_all_p{p}_s"] = (statistics.median(times), "s")
    return metrics, extra


def timed_run(args, bp, inputs, first) -> tuple:
    """Passes with tracing off for about ``args.seconds`` of wall time, and
    the peak RSS after the first."""
    passes = []
    start = perf_counter()
    op_list = first
    while True:
        passes.append(run_pass(op_list))
        if len(passes) == 1:
            # Peak memory of set-up and one pass, so that it does not
            # depend on how many passes fit in --seconds.
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Start another pass only if it would end closer to --seconds than
        # stopping now does.
        elapsed = perf_counter() - start
        if elapsed + statistics.mean(p["wall_s"] for p in passes) / 2 > args.seconds:
            break
        op_list = workloads.build_pass(args.workload, bp, inputs)
    return passes, peak_rss_kb


def traced_run(bp, op_list) -> tuple:
    """The op list untraced, traced, and untraced again; the per-layer
    metrics and one root span per traced op. The overhead compares the
    traced pass with the mean of the two untraced ones around it, so that
    a drift in machine speed during the run biases it less."""
    before = run_pass(op_list)
    tracer = Tracer(bp)
    tracer.install()
    try:
        traced = run_pass(op_list, tracer)
    finally:
        tracer.uninstall()
    after = run_pass(op_list)
    untraced_s = (before["wall_s"] + after["wall_s"]) / 2
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (traced["wall_s"] - untraced_s, "s")
    extra = {"untraced_wall_s": (untraced_s, "s"), "traced_wall_s": (traced["wall_s"], "s")}
    origin = tracer.roots[0][1]
    spans = [{"op": label, "start_s": s - origin, "dur_s": e - s, "self_s": own}
             for label, s, e, own in tracer.roots]
    return [before, traced, after], metrics, extra, spans


def parse_args(argv):
    parser = argparse.ArgumentParser(description="bpcalc benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bpcalc", "__init__.py")):
        print(f"error: no bpcalc source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    refs = workloads.load_references(HERE)
    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    clock = SpeedClock()
    if not args.trace:
        clock.start()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            bp = load_bpcalc()
            inputs = workloads.Inputs(random.Random(args.seed), refs, scratch)
            first = workloads.build_pass(args.workload, bp, inputs)
            setups.append((t0, perf_counter()))

        if args.trace:
            passes, metrics, extra, spans = traced_run(bp, first)
        else:
            passes, peak_rss_kb = timed_run(args, bp, inputs, first)
            spans = []
    finally:
        if not args.trace:
            clock.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    if not args.trace:
        metrics, extra = end_to_end(setups, passes, peak_rss_kb, clock)

    failed = failures(passes)
    attempted = sum(len(p["ops"]) for p in passes)
    for rec in failed[:10]:
        print(f"FAILED {rec['label']}: {rec['error']}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {value:.6g} {unit}")

    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "setup_s": [b - a for a, b in setups],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        "passes": passes,
        "root_spans": spans,
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(full, fh, indent=1)

    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
