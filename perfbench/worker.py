"""One benchmark process: set up a workload, then optionally time it.

Started by ``run.py`` in a fresh interpreter, never imported. With
``--mode setup`` it only measures set-up: importing jpta, building the
workload's inputs and one untimed warm-up call. With ``--mode run`` it then
runs timed tasks for ``--seconds``; with ``--trace 1`` it runs whole rounds
untraced for half the time and traced for the other half, and reduces the
spans to per-layer metrics. The result goes to ``--result`` as JSON.

The benchmark modules import numpy, so they are imported only after the
set-up clock has started.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path


def _check(workload, references):
    from harness import compare

    def check(i, result):
        outputs, problems = workload.outputs(i, result)
        return problems + compare(outputs, references)

    return check


def _per_layer(tracer, untraced, traced) -> dict:
    """Per-layer metrics of the traced tasks, as averages per task."""
    from tracer import COMPUTED_COUNTS, LAYERS, summarize

    tasks = len(traced)
    summary = summarize(tracer.spans)
    stats = summary["stats"]
    counts = tracer.counts
    metrics = {}
    for layer, functions in LAYERS.items():
        for fn in functions:
            name = "%s.%s" % (layer, fn)
            entry = stats.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            metrics[name + ".calls"] = entry["calls"] / tasks
            metrics[name + ".busy_s"] = entry["busy_s"] / tasks
            metrics[name + ".self_s"] = entry["self_s"] / tasks
    for scheme in ("paa", "jpta"):
        metrics["link.select_rate.%s.busy_s" % scheme] = summary[
            "by_parent"].get(("link.select_rate", "sysim.run_" + scheme),
                             0.0) / tasks
    calls_us = [d * 1e6 for d in summary["durations"].get("link.select_rate",
                                                          [])]
    if calls_us:
        deciles = statistics.quantiles(calls_us, n=10, method="inclusive")
        metrics["link.select_rate.p50_us"] = statistics.median(calls_us)
        metrics["link.select_rate.p90_us"] = deciles[8]
    else:
        metrics["link.select_rate.p50_us"] = 0.0
        metrics["link.select_rate.p90_us"] = 0.0
    for name in COMPUTED_COUNTS:
        metrics[name] = counts.get(name, 0) / tasks
    decisions = counts.get("link.decisions", 0)
    metrics["link.outage_frac"] = (counts.get("link.outages", 0) / decisions
                                   if decisions else 0.0)
    pattern_busy = stats.get("antenna.pattern_map", {}).get("busy_s", 0.0)
    metrics["antenna.pattern_cells_per_s"] = (
        counts.get("antenna.pattern_cells", 0) / pattern_busy
        if pattern_busy else 0.0)
    # a mean, so the per-task averages above add up to it
    metrics["trace.wall_s"] = statistics.fmean(r["seconds"] for r in traced)
    metrics["trace.overhead_frac"] = (
        statistics.fmean(r["scaled_s"] for r in traced)
        / statistics.fmean(r["scaled_s"] for r in untraced) - 1.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import workloads  # imports numpy and jpta: part of set-up

    workload = workloads.WORKLOADS[args.workload](args.seed,
                                                  Path(args.workdir))
    workload.warm_up()
    setup_s = time.perf_counter() - t0
    from harness import load_references, machine_speed, run_for, run_record

    report = {"setup_s": setup_s,
              "setup_scaled_s": setup_s / machine_speed()}
    if args.mode == "run":
        check = _check(workload, load_references(args.workload))
        if args.trace:
            import tracer as tracing

            half = args.seconds / 2.0
            rounds = workload.tasks_per_round
            untraced = run_for(workload.run, check, half, rounds)
            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
            try:
                traced = run_for(workload.run, check, half, rounds)
            finally:
                uninstall()
            records = untraced + traced
            report["per_layer"] = _per_layer(tracer, untraced, traced)
        else:
            records = run_for(workload.run, check, args.seconds)
        report["task_s"] = [r["seconds"] for r in records]
        report["task_scaled_s"] = [r["scaled_s"] for r in records]
        report["problems"] = [p for r in records for p in r["problems"]]
        report["failed"] = sum(1 for r in records if r["problems"])
        report["outputs_per_task"] = workload.outputs_per_task
        report["run_record"] = run_record(Path(args.root), args.workload,
                                          args.seed)
    with open(args.result, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
