#!/usr/bin/env python3
"""Benchmark the hot kernels against their brute-force oracles.

Each kernel of ``jpta._kernels`` exists once, in numpy. The table times it
against the plain-loop reference of ``tests/oracles.py`` on the same
inputs: the pattern grid at 721 and 3001 angles x 264 RBs, the delay scan
with a new and with a kept twiddle table, and the rate scan of one user at
1 and at 160 rings and of 8 users at 160 rings (the oracle called once per
user and ring). Kernels and the delay- and rate-scan oracles report the
best of ``--repeats`` runs; the oracles that take seconds (pattern grid,
8-user rate scan) are timed once.

Two rows time the kernels' thread use: the 3001-angle pattern grid split
over the usable CPUs against the same call on one thread, and the delay
scan in row blocks of ``DELAY_SCAN_BLOCK_TAUS`` taus against the one whole
product it replaced, which OpenBLAS splits over its threads when it has
more than one (``OPENBLAS_NUM_THREADS``).

One row times the PAA gain stage of a sweep against the layout it
replaced: for the criterion-4 deployment's 8 UEs, 16 beams at the carrier
pick each UE's serving beam, then each UE's row over 264 RBs comes from its
serving beam alone (``sysim._serving_gain_rows``), against every serving
beam evaluated toward every UE in one column-block call and one row per UE
kept.

One row times rate selection end to end, kernel and result assembly: the
two ``link.select_rate_grid`` calls of one sweep of the criterion-4
deployment (8 UEs at exponent 3, 5120 log rings over 300-3000 m), against
the same calls followed by the per-decision objects and the
attribute-gathering ring mean that the column results replaced.

The last row times the pattern CSV writer of ``jpta pattern``
(``cli.format_g6`` byte slots) on the quick-start grid, the default type-1
design over 721 angles x 264 RBs, into memory, against the per-row
``%``-format writer.

Usage::

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeats N]
"""

from __future__ import annotations

import argparse
import io
import math
import sys
import time
from pathlib import Path

import numpy as np

from jpta import _kernels, antenna, cli, codebook, link, sysim
from jpta.config import RunConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import (  # noqa: E402
    delay_scan_py,
    pattern_corr_py,
    rate_scan_py,
    snr_rows,
    write_pattern_rows_py,
)


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


def _pattern_corr_one_thread(*args):
    """``pattern_corr`` with every chunk on the calling thread."""
    usable = _kernels._usable_cpus
    _kernels._usable_cpus = lambda: 1
    try:
        return _kernels.pattern_corr(*args)
    finally:
        _kernels._usable_cpus = usable


def _paa_gain_row_args():
    """The criterion-4 deployment's 8 UEs, 16 PAA beams over +-60 degrees
    and the 264 RB centers."""
    cfg = antenna.ArrayConfig.half_wavelength(16, 28e9, 28.0)
    beams = codebook.paa_codebook(cfg, 16, (
        antenna.axis_from_boresight_deg(60.0),
        antenna.axis_from_boresight_deg(-60.0)))
    freqs = antenna.FrequencyGrid(28e9, 400e6, 120e3, 264).rb_center_freqs()
    return cfg, beams, np.radians(np.linspace(-55.0, 55.0, 8)), freqs


def _paa_serving_beams(cfg, beams, angles):
    """``run_paa``'s pick: the beam of highest carrier gain toward each UE,
    the first on ties."""
    cos_ues = np.cos(antenna.axis_from_boresight_rad(angles))
    return np.argmax(antenna.pattern_gain_db(cfg, beams, cos_ues,
                                             [cfg.carrier_hz]), axis=1)


def _paa_gain_rows(cfg, beams, angles, freqs):
    """Each UE's row from its serving beam alone, as ``run_paa`` builds
    them."""
    return sysim._serving_gain_rows(cfg, beams,
                                    _paa_serving_beams(cfg, beams, angles),
                                    angles, freqs)


def _paa_gain_rows_as_columns(cfg, beams, angles, freqs):
    """The same rows from every serving beam toward every UE, tiled as
    column blocks in one call, then one row per UE kept."""
    used, ue_beam = np.unique(_paa_serving_beams(cfg, beams, angles),
                              return_inverse=True)
    gains = antenna.pattern_gain_db(
        cfg, [beams[b] for b in used],
        np.cos(antenna.axis_from_boresight_rad(angles)), freqs)
    return gains.reshape(angles.size, used.size, freqs.size)[
        np.arange(angles.size), ue_beam]


# the delay scan's setting: the default 64-step delay line at the 264 RB
# centers
_DELAY = codebook.DelayConstraint()
_DELAY_GRID = antenna.FrequencyGrid(28e9, 400e6, 120e3, 264)


def _delay_args():
    """Random target slopes, and the frequencies and delays of ``_DELAY`` at
    ``_DELAY_GRID``'s RB centers."""
    rng = np.random.default_rng(2)
    freqs = _DELAY_GRID.rb_center_freqs()
    slopes = rng.uniform(-math.pi, math.pi, freqs.size)
    return slopes, freqs, _DELAY.grid(), 16


def _delay_scan_new_table(slopes, freqs, taus, num_elements):
    """The delay scan with its twiddle table built afresh."""
    return _kernels.delay_scan(slopes, _kernels.delay_twiddles(taus, freqs),
                               num_elements)


def _delay_scan_kept_table(slopes, freqs, taus, num_elements):
    """The designer's delay scan once it keeps the twiddle table, which it
    keys by ``_DELAY`` and ``_DELAY_GRID``, the source of ``freqs`` and
    ``taus``."""
    return _kernels.delay_scan(
        slopes, codebook._delay_twiddles(_DELAY, _DELAY_GRID, False),
        num_elements)


def _delay_scan_whole_product(slopes, freqs, taus, num_elements):
    """The kept-table delay scan as one twiddles @ target product."""
    elem = np.arange(num_elements, dtype=np.float64)
    target = np.exp(1j * slopes[:, None] * elem[None, :])
    return codebook._delay_twiddles(_DELAY, _DELAY_GRID, False) @ target


def _rate_args(users: int, rings: int):
    """Random 264-RB gain rows seen at ``rings`` link gains 30 dB apart end
    to end, as a distance sweep sees them, on the 15-level ladder."""
    rng = np.random.default_rng(3)
    gain_db = np.sort(10.0 * np.log10(rng.uniform(0.5, 50.0, (users, 264))),
                      axis=1)[:, ::-1]
    link_db = np.linspace(0.0, -30.0, rings)
    thr_db = np.linspace(-7.5, 24.3, 15)
    thr_lin = 10.0 ** (thr_db / 10.0)
    se = np.linspace(0.1523, 7.4063, 15)
    unique_betas = np.array([1.0])
    beta_idx = np.zeros(15, dtype=np.int64)
    return link_db, gain_db, 0.0, thr_lin, se, unique_betas, beta_idx, 4


def _rate_scan_per_ring(link_db, gain_db, noise_db, *args):
    rows = snr_rows(link_db, gain_db, noise_db)
    return [rate_scan_py(row, *args) for user in rows for row in user]


def _sweep_rate_args():
    """The arguments of a sweep's PAA and JPTA ``select_rate_grid`` calls on
    the criterion-4 deployment at exponent 3 with 5120 rings."""
    cfg, beams, angles, freqs = _paa_gain_row_args()
    grid = antenna.FrequencyGrid(28e9, 400e6, 120e3, 264)
    paa_rows = _paa_gain_rows(cfg, beams, angles, freqs)
    target, shares = sysim.jpta_share_target(angles, grid.num_rbs)
    weights, _ = codebook.design_type1(cfg, target, grid,
                                       codebook.DelayConstraint())
    jpta_rows = sysim._serving_gain_rows(cfg, [weights],
                                         np.zeros(angles.size, int), angles,
                                         freqs)
    common = (link.LinkModel(carrier_hz=28e9),
              sysim.log_ring_grid(300.0, 3000.0, 5120))
    table = link.McsTable.default()
    all_rbs = [np.arange(grid.num_rbs)] * angles.size
    return ((*common, paa_rows, all_rbs, table, grid.scs_hz,
             1.0 / angles.size),
            (*common, jpta_rows, shares, table, grid.scs_hz, 1.0))


def _sweep_rate_grids(paa_args, jpta_args):
    """Both schemes' rate grids and ring means, read from the columns."""
    return [link.select_rate_grid(*args).throughput_bps.mean(axis=1)
            for args in (paa_args, jpta_args)]


def _sweep_rate_decisions(paa_args, jpta_args):
    """The same, through one RateDecision per ring and UE and a ring mean
    of their throughput attributes."""
    return [np.array([[d.throughput_bps for d in ring]
                      for ring in link.select_rate_grid(*args).decisions()])
            .mean(axis=1) for args in (paa_args, jpta_args)]


def _pattern_csv_args():
    """The quick-start pattern: the default type-1 design's gains over
    -90:90:0.25 degrees and 264 RBs, as ``jpta pattern`` computes them."""
    cfg = RunConfig()
    array = cfg.array_config()
    grid = cfg.frequency_grid()
    weights, _ = codebook.design_type1(array, cfg.type1_target(), grid,
                                       cfg.delay_constraint())
    bore_deg = -90.0 + 0.25 * np.arange(721)
    axis = np.array([antenna.axis_from_boresight_deg(a)
                     for a in bore_deg[::-1]])
    return bore_deg, antenna.pattern_map(array, weights, axis, grid)[::-1]


def _pattern_csv(bore_deg, gains):
    cli.write_pattern_rows(io.BytesIO(), bore_deg, gains)


def _pattern_csv_py(bore_deg, gains):
    write_pattern_rows_py(io.BytesIO(), bore_deg, gains)


# (label, kernel, oracle or the code it replaced, argument factory, oracle
# timed once)
BENCHES = [
    ("pattern_corr (721 angles x 264 RBs, 16 el)", _kernels.pattern_corr,
     pattern_corr_py, lambda: _pattern_args(721), True),
    ("pattern_corr (3001 angles x 264 RBs, 16 el)", _kernels.pattern_corr,
     pattern_corr_py, lambda: _pattern_args(3001), True),
    ("pattern_corr (3001 x 264, threaded vs 1 thread)",
     _kernels.pattern_corr, _pattern_corr_one_thread,
     lambda: _pattern_args(3001), False),
    ("gain rows    (PAA, 8 UEs x 264 RBs)", _paa_gain_rows,
     _paa_gain_rows_as_columns, _paa_gain_row_args, False),
    ("delay_scan   (64 taus x 264 freqs, new table)", _delay_scan_new_table,
     delay_scan_py, _delay_args, False),
    ("delay_scan   (64 taus x 264 freqs, kept table)",
     _delay_scan_kept_table, delay_scan_py, _delay_args, False),
    ("delay_scan   (16-tau blocks vs one product)",
     _delay_scan_kept_table, _delay_scan_whole_product, _delay_args, False),
    ("rate_scan    (1 ring x 264 RBs x 15 MCS)", _kernels.rate_scan_batch,
     _rate_scan_per_ring, lambda: _rate_args(1, 1), False),
    ("rate_scan    (160 rings x 264 RBs x 15 MCS)", _kernels.rate_scan_batch,
     _rate_scan_per_ring, lambda: _rate_args(1, 160), False),
    ("rate_scan    (8 users x 160 rings x 264 RBs)", _kernels.rate_scan_batch,
     _rate_scan_per_ring, lambda: _rate_args(8, 160), True),
    ("select_rate_grid (8 UEs x 5120 rings, 2 calls)", _sweep_rate_grids,
     _sweep_rate_decisions, _sweep_rate_args, False),
    ("pattern CSV  (721 angles x 264 RBs)", _pattern_csv,
     _pattern_csv_py, _pattern_csv_args, False),
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
