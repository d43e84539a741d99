#!/usr/bin/env python3
"""Benchmark the hot kernels against their brute-force oracles.

Each kernel of ``jpta._kernels`` exists once, in numpy. The table times it
against the plain-loop reference of ``tests/oracles.py`` on the same
inputs: the pattern grid at 721 and 3001 angles x 264 RBs, the delay scan,
and the rate scan at 1 and at 160 rings (the oracle called once per ring).
Kernels and the delay- and rate-scan oracles report the best of
``--repeats`` runs; the pattern-grid oracle, which takes seconds, is timed
once.

Usage::

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeats N]
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from jpta import _kernels

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import delay_scan_py, pattern_corr_py, rate_scan_py  # noqa: E402


def _time_best(fn, args, repeats: int) -> float:
    """Best-of-N wall time in seconds for ``fn(*args)``."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _pattern_args(num_angles: int):
    rng = np.random.default_rng(1)
    num_el = 16
    cos_angles = np.cos(np.linspace(0.02, math.pi - 0.02, num_angles))
    freqs = 28e9 + 120e3 * 12.0 * (np.arange(264) - 131.5)
    phases = rng.uniform(-math.pi, math.pi, num_el)
    delays = rng.integers(0, 64, num_el) * 2.5e-9
    spacing = 299_792_458.0 / 28e9 / 2.0  # half wavelength at 28 GHz
    slope_scale = 2.0 * math.pi * spacing / 299_792_458.0
    return cos_angles, freqs, phases, delays, slope_scale


def _delay_args():
    rng = np.random.default_rng(2)
    freqs = 28e9 + 120e3 * 12.0 * (np.arange(264) - 131.5)
    slopes = rng.uniform(-math.pi, math.pi, freqs.size)
    taus = np.arange(64) * 2.5e-9
    return slopes, freqs, taus, 16


def _rate_args(rings: int):
    """One 264-RB row seen at ``rings`` path gains 30 dB apart end to end,
    as a distance sweep sees it, on the 15-level ladder."""
    rng = np.random.default_rng(3)
    row = np.sort(rng.uniform(0.5, 50.0, 264))[::-1]
    snr = row[None, :] * np.geomspace(1.0, 1e-3, rings)[:, None]
    thr_db = np.linspace(-7.5, 24.3, 15)
    thr_lin = 10.0 ** (thr_db / 10.0)
    se = np.linspace(0.1523, 7.4063, 15)
    unique_betas = np.array([1.0])
    beta_idx = np.zeros(15, dtype=np.int64)
    return snr, thr_lin, se, unique_betas, beta_idx, 4


def _rate_scan_per_ring(snr, *args):
    return [rate_scan_py(row, *args) for row in snr]


# (label, kernel, oracle, argument factory, oracle timed once)
BENCHES = [
    ("pattern_corr (721 angles x 264 RBs, 16 el)", _kernels.pattern_corr,
     pattern_corr_py, lambda: _pattern_args(721), True),
    ("pattern_corr (3001 angles x 264 RBs, 16 el)", _kernels.pattern_corr,
     pattern_corr_py, lambda: _pattern_args(3001), True),
    ("delay_scan   (64 taus x 264 freqs, 16 el)", _kernels.delay_scan,
     delay_scan_py, _delay_args, False),
    ("rate_scan    (1 ring x 264 RBs x 15 MCS)", _kernels.rate_scan_batch,
     _rate_scan_per_ring, lambda: _rate_args(1), False),
    ("rate_scan    (160 rings x 264 RBs x 15 MCS)", _kernels.rate_scan_batch,
     _rate_scan_per_ring, lambda: _rate_args(160), False),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7,
                        help="timing repeats per kernel and per fast oracle "
                             "(best is reported)")
    args = parser.parse_args()

    header = "%-46s %12s %12s %9s" % ("kernel", "numpy", "oracle", "speedup")
    print(header)
    print("-" * len(header))
    for name, kernel, oracle, make_args, oracle_once in BENCHES:
        call_args = make_args()
        t_kernel = _time_best(kernel, call_args, args.repeats)
        t_oracle = _time_best(oracle, call_args,
                              1 if oracle_once else args.repeats)
        print("%-46s %10.3f ms %10.3f ms %8.1fx"
              % (name, t_kernel * 1e3, t_oracle * 1e3, t_oracle / t_kernel))


if __name__ == "__main__":
    main()
