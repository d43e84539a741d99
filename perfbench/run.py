#!/usr/bin/env python3
"""Run one jpta benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep_dense --seed 1 --seconds 30 --trace 0

Every workload runs in fresh single processes started here: a few that only
set up (import jpta, build the inputs from the seed, make one warm-up call),
whose median is ``setup_s``, and one that sets up and then runs timed tasks
for ``--seconds``. Times are scaled to reference machine speed (see
``harness.machine_speed``); the raw samples are printed with the run record.
Outputs are checked against ``references.json``. With
``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics of a
traced run. The line before it is the run record. The child processes get
their BLAS and OpenMP thread counts capped at the number of usable CPUs.

Exits 2 without a result when the checkout has no ``src/jpta`` to measure,
and 1 when a benchmark process fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from harness import nproc
from tracer import COMPUTED_COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
# every process started here must have ended by then
DEADLINE_S = 170.0
WORKLOAD_NAMES = ("sweep_dense", "cli_quickstart", "design_certify")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _run_worker(args, mode: str, workdir: str, deadline: float):
    """Run worker.py to completion; returns (report, resource usage)."""
    result = os.path.join(workdir, "result-%s.json" % mode)
    argv = [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--mode", mode, "--workdir", workdir, "--root", str(ROOT),
            "--result", result]
    # the worker's stdout goes to stderr, keeping ours for the result
    proc = subprocess.Popen(argv, env=_child_env(), cwd=str(ROOT),
                            stdout=sys.stderr)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise RuntimeError("%s process overran the deadline" % mode)
            time.sleep(0.02)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError("%s process exited %d" % (mode, proc.returncode))
    with open(result) as fh:
        return json.load(fh), usage


def _metric_units(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jpta" / "__init__.py").is_file():
        print("no jpta sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=str(ROOT))
    try:
        setups = [_run_worker(args, "setup", workdir, deadline)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        report, usage = _run_worker(args, "run", workdir, deadline)
    except RuntimeError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(report)

    attempted = len(report["task_s"])
    failed = report["failed"]
    for problem in report["problems"]:
        print("output check: %s" % problem, file=sys.stderr)
    if args.trace:
        values = report["per_layer"]
        units = _metric_units("per_layer")
    else:
        wall_s = statistics.median(report["task_scaled_s"])
        values = {
            "setup_s": statistics.median(s["setup_scaled_s"] for s in setups),
            "wall_s": wall_s,
            "outputs_per_s": report["outputs_per_task"] / wall_s,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "passed_frac": (attempted - failed) / attempted,
        }
        units = _metric_units("end_to_end")
    print(json.dumps({
        "run_record": report["run_record"],
        "computed_from_input_sizes": list(COMPUTED_COUNTS),
        "raw_samples": {"setup_s": [s["setup_s"] for s in setups],
                        "task_s": report["task_s"]}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
