"""Timing loop, output checks and run record shared by the benchmark files."""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCES_PATH = HERE / "references.json"

# floats must match their reference to 1e-12, relative above magnitude 1
FLOAT_TOLERANCE = 1e-12

# Median calibration pass time on the machine the benchmark was defined on
# (2-vCPU Xeon VM, Python 3.11, numpy 2.4), so scaled times there read close
# to raw ones.
CALIBRATION_REFERENCE_S = 0.020
CALIBRATION_WINDOW_S = 0.3

_CAL_SNR = np.geomspace(50.0, 0.5, 264)
_CAL_PHASE = np.linspace(0.0, 50.0, 300_000)


def _calibration_pass() -> None:
    """Fixed work independent of jpta, in the two shapes the workloads
    spend their time on: a Python loop over small numpy arrays, as in the
    rate scan, and one large complex exponential, as in the pattern grid."""
    for n in range(4, _CAL_SNR.size + 1):
        values = _CAL_SNR[:n] / n
        np.mean(np.exp(values[-1] - values))
    np.abs(np.exp(1j * _CAL_PHASE)).sum()


def machine_speed(window_s: float = CALIBRATION_WINDOW_S,
                  clock=time.perf_counter) -> float:
    """Median calibration pass time over ``window_s``, relative to
    CALIBRATION_REFERENCE_S: 1.0 at reference speed, above 1 when slower.

    Shared hosts change a process's speed by up to 1.5x for seconds to
    minutes at a time. A time divided by the factor measured next to it is
    the time at reference speed, which is what the end-to-end metrics
    report.
    """
    passes = []
    end = clock() + window_s
    while not passes or clock() < end:
        t0 = clock()
        _calibration_pass()
        passes.append(clock() - t0)
    return statistics.median(passes) / CALIBRATION_REFERENCE_S


def run_for(task, check, seconds: float, round_size: int = 1,
            clock=time.perf_counter, speed=machine_speed) -> list:
    """Run ``task(i)`` for i = 0, 1, ... until ``seconds`` have passed and
    the last round of ``round_size`` tasks is complete.

    Only ``task`` is timed. ``check(i, result)`` runs after the clock stops
    and returns a list of problems, empty when the outputs are correct. An
    exception in either counts as a problem, so every task is one attempt.
    ``speed()`` runs before and after each task; ``scaled_s`` is the task
    time divided by the mean of the two. Returns one ``{"index", "seconds",
    "scaled_s", "problems"}`` record per task.
    """
    records = []
    start = clock()
    before = speed()
    i = 0
    while not records or i % round_size or clock() - start < seconds:
        t0 = clock()
        try:
            result = task(i)
            problems = []
        except Exception as exc:  # a failed task is data, not a crash
            problems = ["task raised %r" % (exc,)]
        elapsed = clock() - t0
        after = speed()
        if not problems:
            try:
                problems = list(check(i, result))
            except Exception as exc:
                problems = ["check raised %r" % (exc,)]
        records.append({"index": i, "seconds": elapsed,
                        "scaled_s": elapsed * 2.0 / (before + after),
                        "problems": problems})
        before = after
        i += 1
    return records


def load_references(workload: str) -> dict:
    with open(REFERENCES_PATH) as fh:
        return json.load(fh)[workload]


def compare(outputs: dict, references: dict) -> list:
    """Problems found comparing named outputs with their references.

    Strings (digests, flags) must be equal; numbers must agree to
    FLOAT_TOLERANCE. An output without a reference is a problem too, so no
    output goes unchecked.
    """
    problems = []
    for key, value in sorted(outputs.items()):
        if key not in references:
            problems.append("%s: no reference" % key)
            continue
        ref = references[key]
        if isinstance(ref, str) or isinstance(value, str):
            ok = value == ref
        else:
            ok = abs(value - ref) <= FLOAT_TOLERANCE * max(1.0, abs(ref))
        if not ok:
            problems.append("%s: got %r, reference %r" % (key, value, ref))
    return problems


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _blas_record() -> dict:
    """BLAS name and version from numpy's build info, and the live thread
    count read from the loaded OpenBLAS library when it exposes one."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": info.get("name"), "version": info.get("version"),
              "library": None, "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.lower() and ".so" in line})
    except OSError:  # no procfs: leave the thread count unknown
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                record["library"] = os.path.basename(path)
                record["threads"] = int(getter())
                return record
    return record


def _git_commit(root: Path):
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (root / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def source_sha256(root: Path) -> str:
    """Digest of the package sources, which names the code when git is
    unavailable."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "jpta").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(root: Path, workload: str, seed: int) -> dict:
    """Where a run came from: code, interpreter, libraries and machine."""
    from jpta import _kernels

    return {
        "git_commit": _git_commit(root),
        "source_sha256": source_sha256(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels_backend": _kernels.backend(),
        "blas": _blas_record(),
        "blas_thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": nproc(),
        "workload": workload,
        "seed": seed,
    }
