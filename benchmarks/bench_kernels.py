#!/usr/bin/env python3
"""Benchmark the hot kernels.

The pattern grid and the delay scan exist as numpy and numba routines; each
is timed with both and the table gives the speedup of numba. The rate scan
exists once, batched over rings; it is timed at 1 and at 160 rings against
the brute-force oracle of ``tests/oracles.py`` called once per ring. The
numba functions are called once before timing so compilation cost is not
mixed into the numbers.

Usage::

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeats N]

Without numba only the numpy column of the first table is filled.
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
from oracles import rate_scan_py  # noqa: E402


def _time_best(fn, args, repeats: int) -> float:
    """Best-of-N wall time in seconds for ``fn(*args)``."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _pattern_args():
    rng = np.random.default_rng(1)
    num_el = 16
    cos_angles = np.cos(np.linspace(0.02, math.pi - 0.02, 721))
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


BACKEND_BENCHES = [
    ("pattern_corr (721 angles x 264 freqs, 16 el)",
     _kernels.pattern_corr_numpy, _kernels.pattern_corr_jit, _pattern_args),
    ("delay_scan   (64 taus x 264 freqs, 16 el)",
     _kernels.delay_scan_numpy, _kernels.delay_scan_jit, _delay_args),
]
RATE_SCAN_RINGS = (1, 160)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7,
                        help="timing repeats per kernel (best is reported)")
    args = parser.parse_args()

    print("active backend: %s" % _kernels.backend())
    header = "%-46s %12s %12s %9s" % ("kernel", "numpy", "numba", "speedup")
    print(header)
    print("-" * len(header))
    for name, np_fn, jit_fn, make_args in BACKEND_BENCHES:
        call_args = make_args()
        t_np = _time_best(np_fn, call_args, args.repeats)
        if jit_fn is None:
            print("%-46s %10.3f ms %12s %9s" % (name, t_np * 1e3, "n/a", "n/a"))
            continue
        jit_fn(*call_args)  # compile outside the timed region
        t_jit = _time_best(jit_fn, call_args, args.repeats)
        print("%-46s %10.3f ms %10.3f ms %8.1fx"
              % (name, t_np * 1e3, t_jit * 1e3, t_np / t_jit))

    print()
    header = "%-46s %12s %12s %9s" % ("rate scan (264 RBs x 15 MCS)", "batched",
                                      "per ring", "speedup")
    print(header)
    print("-" * len(header))
    for rings in RATE_SCAN_RINGS:
        call_args = _rate_args(rings)
        t_batch = _time_best(_kernels.rate_scan_batch, call_args,
                             args.repeats)
        t_loop = _time_best(_rate_scan_per_ring, call_args, args.repeats)
        print("%-46s %10.3f ms %10.3f ms %8.1fx"
              % ("%d ring%s" % (rings, "" if rings == 1 else "s"),
                 t_batch * 1e3, t_loop * 1e3, t_loop / t_batch))


if __name__ == "__main__":
    main()
