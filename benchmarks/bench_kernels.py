#!/usr/bin/env python3
"""Benchmark the hot kernels against their brute-force oracles.

Each kernel of ``jpta._kernels`` exists once, in numpy. The table times it
against the plain-loop reference of ``tests/oracles.py`` on the same
inputs: the pattern grid at 721 and 3001 angles x 264 RBs, and at 64 and
256 elements on 91 angles, the delay scan with a new and with a kept
twiddle table, at the 3168 subcarriers of a per-subcarrier design on one
CPU, and at 64 and 256 elements, and the rate scan of one user
at 1 and at 160 rings and of 8 users at 160 rings (the oracle called once
per user and ring). Kernels and the delay- and rate-scan oracles report
the best of ``--repeats`` runs; the oracles that take seconds (pattern
grid, the delay scan past 16 elements, 8-user rate scan) are timed once.
The faults column counts the process's minor page faults during the
kernel's best run: memory the allocator has just taken from the system
faults once per page on first use, which can cost more than the work, so
a time with faults reflects the heap's layout as well as the kernel.
This is the package's one micro-benchmark; ``perfbench/`` times whole
workloads.

One row times a sweep's gain stage, recorded from
``sysim.throughput_sweep`` of the criterion-4 deployment: the PAA and JPTA
gain rows of 8 UEs over 264 RBs, each scheme's rows from one
``antenna.serving_gain_db`` call over the UE angles, each row naming its
serving set, against one ``pattern_map`` call per UE. Three time one
``throughput_sweep`` of that deployment, its two stages apart. Cold, each
call sweeps a new geometry, the UE angles moved by a further 1e-12 rad, so
it builds the ring-free stage (codebook, design, gain rows and the rate
scan's envelope intervals) as a sweep of a new deployment does, at one
ring against 160 rings. Warm, on the kept stage, at one ring and at 160
rings, each against the same sweep cold: the link stage alone, what each
further sweep of that geometry pays.

One row times the kernels' thread use: the 3001-angle pattern grid split
over the usable CPUs against the same call on one thread. Another times
``antenna.pattern_map`` of criterion 7's 110-degree swept beam, the
``design_type2`` map of 3001 angles x 264 RBs at 16 elements that the
``design_certify`` workload builds three of, on one CPU, against the
long-double sum of the same correlations (``pattern_corr_longdouble``,
timed once), and one more the same beam designed and mapped at a
subcarrier spacing of 119,999.7 Hz, whose RB centers miss an exact
progression by about one ulp. Two rows time the PAA carrier pick of
``sysim.run_paa`` on one CPU, one ``serving_gain_db`` call of one column
and one (UE, beam) row each: 16 beams of 16 elements toward 8 UEs, and
1024 beams of 256 elements toward 64 UEs, against one ``pattern_map``
call per beam.

One row times the rate scan's EESM stage (``_kernels._eesm_stage``) on
the candidates of one ``throughput_sweep`` of the criterion-4 deployment
at exponent 3 and 160 rings, both schemes' stage calls and outage
diagnostics as the sweep makes them, against the same means from one 1-D
``np.mean`` per candidate and beta (``eesm_stage_py``, timed once).

Two rows time rate selection end to end, kernel and result assembly: the
two ``link.select_rate_grid`` calls of one sweep, recorded from
``sysim.throughput_sweep``, of the quick start (4 UEs, 40 rings) and of
the criterion-4 deployment (8 UEs at exponent 3, 5120 log rings over
300-3000 m), against the same calls followed by the per-decision objects
and the attribute-gathering ring mean that the column results replaced.

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
import itertools
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

from jpta import _kernels, antenna, cli, codebook, link, sysim
from jpta.config import RunConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import (  # noqa: E402
    delay_scan_py,
    eesm_stage_py,
    pattern_corr_longdouble,
    pattern_corr_py,
    rate_scan_py,
    snr_factors,
    write_pattern_rows_py,
)


def _time_best(fn, args, repeats: int):
    """Best-of-N wall time in seconds for ``fn(*args)``, and the minor page
    faults of the process during that run."""
    best = (math.inf, 0)
    for _ in range(repeats):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        fn(*args)
        seconds = time.perf_counter() - t0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        best = min(best, (seconds, faults))
    return best


def _pattern_args(num_angles: int, num_el: int = 16):
    rng = np.random.default_rng(1)
    cos_angles = np.cos(np.linspace(0.02, math.pi - 0.02, num_angles))
    freqs = 28e9 + 120e3 * 12.0 * (np.arange(264) - 131.5)
    phases = rng.uniform(-math.pi, math.pi, num_el)
    delays = rng.integers(0, 64, num_el) * 2.5e-9
    spacing = 299_792_458.0 / 28e9 / 2.0  # half wavelength at 28 GHz
    slope_scale = 2.0 * math.pi * spacing / 299_792_458.0
    return cos_angles, freqs, phases, delays, slope_scale


def _pattern_corr(cos_angles, freqs, phases, delays, slope_scale):
    """``pattern_corr`` of one weight set with its coefficient table, as
    ``antenna.pattern_map`` calls it."""
    split = _kernels.phasor_split(slope_scale, freqs)
    coef = _kernels.pattern_coefficients(split, [phases], [delays])
    return _kernels.pattern_corr(cos_angles, split, coef)


def _on_one_cpu(fn, *args):
    """``fn(*args)`` with every pattern chunk on the calling thread."""
    usable = _kernels._usable_cpus
    _kernels._usable_cpus = lambda: 1
    try:
        return fn(*args)
    finally:
        _kernels._usable_cpus = usable


def _pattern_corr_one_thread(*args):
    """``_pattern_corr`` with every chunk on the calling thread."""
    return _on_one_cpu(_pattern_corr, *args)


def _swept_map_args(scs_hz=120e3):
    """Criterion 7's 110-degree swept beam and its certification grid:
    ``design_type2`` of the 16-element array over 264 RBs of ``scs_hz``,
    3001 axis angles."""
    cfg = antenna.ArrayConfig.half_wavelength(16, 28e9)
    grid = antenna.FrequencyGrid(28e9, 400e6, scs_hz, 264)
    spec = codebook.RainbowSpec(center_rad=math.pi / 2.0,
                                spread_rad=math.radians(110.0))
    return (cfg, codebook.design_type2(cfg, spec, grid),
            np.linspace(0.02, math.pi - 0.02, 3001), grid)


def _swept_map_one_cpu(cfg, weights, axis, grid):
    """The swept beam's ``pattern_map`` on one CPU."""
    return _on_one_cpu(antenna.pattern_map, cfg, weights, axis, grid)


def _swept_map_longdouble(cfg, weights, axis, grid):
    """The swept beam's correlations as a long-double sum."""
    return pattern_corr_longdouble(
        np.cos(axis), grid.rb_center_freqs(), weights.phases_rad,
        weights.delays_s,
        2.0 * math.pi * cfg.spacing_m / antenna.SPEED_OF_LIGHT_M_S)


def _carrier_pick_args(num_el, num_beams, num_ues):
    """The PAA carrier pick of ``num_ues`` UEs over -55..55 degrees from a
    ``num_beams``-beam codebook of the ``num_el``-element array at 28 GHz,
    as ``sysim.run_paa`` makes it: one (UE, beam) row each, one column."""
    cfg = antenna.ArrayConfig.half_wavelength(num_el, 28e9)
    sector = (antenna.axis_from_boresight_deg(60.0),
              antenna.axis_from_boresight_deg(-60.0))
    beams = codebook.paa_codebook(cfg, num_beams, sector)
    axes = antenna.axis_from_boresight_rad(
        np.radians(np.linspace(-55.0, 55.0, num_ues)))
    return cfg, beams, axes


def _carrier_pick_one_cpu(cfg, beams, axes):
    """Every beam's gain toward every UE at the carrier, one
    ``serving_gain_db`` call on one CPU."""
    count = len(beams)
    return _on_one_cpu(antenna.serving_gain_db, cfg, beams,
                       np.arange(axes.size * count) % count,
                       np.repeat(np.cos(axes), count), [cfg.carrier_hz])


def _carrier_pick_per_beam(cfg, beams, axes):
    """The same gains from one ``pattern_map`` call per beam."""
    grid = antenna.FrequencyGrid(cfg.carrier_hz, 120e3 * 12, 120e3, 1)
    return [_on_one_cpu(antenna.pattern_map, cfg, w, axes, grid)
            for w in beams]


# the delay scan's setting: the default 64-step delay line at the 264 RB
# centers
_DELAY = codebook.DelayConstraint()
_DELAY_GRID = antenna.FrequencyGrid(28e9, 400e6, 120e3, 264)


def _delay_args(num_el: int = 16):
    """Random target slopes, and the frequencies and delays of ``_DELAY`` at
    ``_DELAY_GRID``'s RB centers, for ``num_el`` elements."""
    rng = np.random.default_rng(2)
    freqs = _DELAY_GRID.rb_center_freqs()
    slopes = rng.uniform(-math.pi, math.pi, freqs.size)
    return slopes, freqs, _DELAY.grid(), num_el


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


def _delay_sc_args():
    """The per-subcarrier designer's scan: random target slopes at
    ``_DELAY_GRID``'s 3168 subcarriers, the ``_DELAY`` line's 64 taus, 16
    elements."""
    rng = np.random.default_rng(2)
    freqs = _DELAY_GRID.subcarrier_freqs()
    slopes = rng.uniform(-math.pi, math.pi, freqs.size)
    return slopes, freqs, _DELAY.grid(), 16


def _delay_scan_sc(slopes, freqs, taus, num_elements):
    """The per-subcarrier scan with its kept twiddle table; its tiles keep
    it on the calling thread, one CPU."""
    return _kernels.delay_scan(
        slopes, codebook._delay_twiddles(_DELAY, _DELAY_GRID, True),
        num_elements)


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
    link, rows = snr_factors(link_db, gain_db, noise_db)
    return [rate_scan_py(g, row, *args) for row in rows for g in link]


def _recorded_args(name, cfg, dep, lm, module=sysim):
    """The arguments of every call of ``module.<name>``, PAA's before
    JPTA's, in one ``throughput_sweep`` of ``dep`` under the config
    ``cfg``'s array, grid, MCS table, delay line and PAA codebook, recorded
    as a cold sweep, one that keeps no stage yet, makes them."""
    calls = []
    real = getattr(module, name)

    def record(*args):
        calls.append(args)
        return real(*args)

    _kernels.clear_kept_tables()
    setattr(module, name, record)
    try:
        mcs = cfg.mcs_table()
        sysim.throughput_sweep(dep, cfg.array_config(), cfg.frequency_grid(),
                               lm, mcs, cfg.delay_constraint(),
                               cfg.paa_num_beams, cfg.paa_sector_rad(),
                               cfg.eesm_betas(mcs))
    finally:
        setattr(module, name, real)
    return calls


def _criterion4(rings):
    """The criterion-4 deployment at exponent 3: 8 UEs over -55..55
    degrees, ``rings`` log rings over 300-3000 m."""
    return (RunConfig(),
            sysim.Deployment(np.radians(np.linspace(-55.0, 55.0, 8)),
                             sysim.log_ring_grid(300.0, 3000.0, rings)),
            link.LinkModel(carrier_hz=28e9))


def _criterion4_rate_args():
    """The rate selection of the criterion-4 deployment at 5120 rings."""
    return _recorded_args("select_rate_grid", *_criterion4(5120))


def _eesm_stage_args():
    """Every EESM stage call of the criterion-4 sweep at 160 rings."""
    return (_recorded_args("_eesm_stage", *_criterion4(160),
                           module=_kernels),)


def _eesm_stages(calls):
    return [_kernels._eesm_stage(*args) for args in calls]


def _eesm_stages_per_candidate(calls):
    return [eesm_stage_py(*args) for args in calls]


def _quickstart_rate_args():
    """The quick start's sweep, the default config: 4 UEs, 40 rings."""
    cfg = RunConfig()
    return _recorded_args("select_rate_grid", cfg, cfg.deployment(),
                          cfg.link_model())


def _gain_rows_args():
    """The gain stage of the criterion-4 deployment: the PAA rows from 16
    beams, of which the 8 UEs are served by 8, and the JPTA rows from its
    one weight set (the sweep's second and third ``serving_gain_db``
    calls, after the carrier pick), and the grid and UE axis angles of one
    ``pattern_map`` call per UE."""
    cfg, dep, lm = _criterion4(2)
    rows = _recorded_args("serving_gain_db", cfg, dep, lm)[1:]
    return (*rows, cfg.frequency_grid(),
            antenna.axis_from_boresight_rad(dep.ue_angles_rad))


def _gain_rows(paa_args, jpta_args, grid, ue_axes):
    """Both schemes' gain rows, one ``serving_gain_db`` call each."""
    return [antenna.serving_gain_db(*args) for args in (paa_args, jpta_args)]


def _gain_rows_per_ue(paa_args, jpta_args, grid, ue_axes):
    """The same rows from one ``pattern_map`` call per UE and scheme."""
    return [[antenna.pattern_map(cfg, weight_sets[s], ue_axes[u:u + 1], grid)
             for u, s in enumerate(serving.tolist())]
            for cfg, weight_sets, serving, _, _ in (paa_args, jpta_args)]


def _sweep_args(rings):
    """``throughput_sweep``'s arguments for the criterion-4 deployment at
    ``rings`` rings (one ring at 1000 m)."""
    cfg, dep, lm = _criterion4(max(rings, 2))
    if rings == 1:
        dep = sysim.Deployment(dep.ue_angles_rad, [1000.0])
    mcs = cfg.mcs_table()
    return (dep, cfg.array_config(), cfg.frequency_grid(), lm, mcs,
            cfg.delay_constraint(), cfg.paa_num_beams, cfg.paa_sector_rad(),
            cfg.eesm_betas(mcs))


def _one_ring_sweep_args():
    """The one-ring sweep and, for the comparison, the 160-ring one."""
    return _sweep_args(1), _sweep_args(160)


# how far each cold sweep moves the UE angles, in units of 1e-12 rad: one
# count for every cold row, so that no two cold calls, a one-ring sweep and
# a 160-ring one say, share a ring-free stage
_COLD_MOVES = itertools.count(1)


def _sweep(rings, cold):
    """``throughput_sweep`` at one ring or at 160 rings. Cold, each call
    moves the UE angles by a further 1e-12 rad, a new geometry whose
    ring-free stage no table keeps, so it builds that stage; warm, it runs
    on the stage that every sweep of the criterion-4 deployment shares, the
    link stage alone."""
    def sweep(one_ring, many_rings):
        dep, *rest = one_ring if rings == 1 else many_rings
        if cold:
            dep = sysim.Deployment(dep.ue_angles_rad + 1e-12 * next(_COLD_MOVES),
                                   dep.ring_distances_m)
        return sysim.throughput_sweep(dep, *rest)
    return sweep


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
    axis = antenna.axis_from_boresight_rad(np.radians(bore_deg))
    return bore_deg, antenna.pattern_map(array, weights, axis, grid)


def _pattern_csv(bore_deg, gains):
    cli.write_pattern_rows(io.BytesIO(), bore_deg, gains)


def _pattern_csv_py(bore_deg, gains):
    write_pattern_rows_py(io.BytesIO(), bore_deg, gains)


# (label, kernel, oracle or the code it replaced, argument factory, oracle
# timed once)
BENCHES = [
    ("pattern_corr (721 angles x 264 RBs, 16 el)", _pattern_corr,
     pattern_corr_py, lambda: _pattern_args(721), True),
    ("pattern_corr (3001 angles x 264 RBs, 16 el)", _pattern_corr,
     pattern_corr_py, lambda: _pattern_args(3001), True),
    ("pattern_corr (3001 x 264, threaded vs 1 thread)",
     _pattern_corr, _pattern_corr_one_thread,
     lambda: _pattern_args(3001), False),
    ("pattern_map  (swept 3001 x 264, 1 CPU)",
     _swept_map_one_cpu, _swept_map_longdouble, _swept_map_args, True),
    ("pattern_map  (swept, SCS 119,999.7 Hz, 1 CPU)",
     _swept_map_one_cpu, _swept_map_longdouble,
     lambda: _swept_map_args(119_999.7), True),
    ("carrier pick (16 beams x 8 UEs, 16 el, 1 CPU)",
     _carrier_pick_one_cpu, _carrier_pick_per_beam,
     lambda: _carrier_pick_args(16, 16, 8), False),
    ("carrier pick (1024 x 64 UEs, 256 el, 1 CPU)",
     _carrier_pick_one_cpu, _carrier_pick_per_beam,
     lambda: _carrier_pick_args(256, 1024, 64), True),
    ("pattern_corr (91 angles x 264 RBs, 64 el)", _pattern_corr,
     pattern_corr_py, lambda: _pattern_args(91, 64), True),
    ("pattern_corr (91 angles x 264 RBs, 256 el)", _pattern_corr,
     pattern_corr_py, lambda: _pattern_args(91, 256), True),
    ("gain rows    (8 UEs x 264 RBs, vs per-UE maps)", _gain_rows,
     _gain_rows_per_ue, _gain_rows_args, False),
    ("throughput_sweep (8 UEs, 1 ring, cold vs 160 cold)", _sweep(1, True),
     _sweep(160, True), _one_ring_sweep_args, False),
    ("throughput_sweep (8 UEs, 1 ring, warm vs cold)", _sweep(1, False),
     _sweep(1, True), _one_ring_sweep_args, False),
    ("throughput_sweep (8 UEs, 160 rings, warm vs cold)", _sweep(160, False),
     _sweep(160, True), _one_ring_sweep_args, False),
    ("delay_scan   (64 taus x 264 freqs, new table)", _delay_scan_new_table,
     delay_scan_py, _delay_args, False),
    ("delay_scan   (64 taus x 264 freqs, kept table)",
     _delay_scan_kept_table, delay_scan_py, _delay_args, False),
    ("delay_scan   (64 taus x 3168 subcarriers, 1 CPU)",
     _delay_scan_sc, delay_scan_py, _delay_sc_args, True),
    ("delay_scan   (64 taus x 264 freqs, 64 el)", _delay_scan_kept_table,
     delay_scan_py, lambda: _delay_args(64), True),
    ("delay_scan   (64 taus x 264 freqs, 256 el)", _delay_scan_kept_table,
     delay_scan_py, lambda: _delay_args(256), True),
    ("rate_scan    (1 ring x 264 RBs x 15 MCS)", _kernels.rate_scan_batch,
     _rate_scan_per_ring, lambda: _rate_args(1, 1), False),
    ("rate_scan    (160 rings x 264 RBs x 15 MCS)", _kernels.rate_scan_batch,
     _rate_scan_per_ring, lambda: _rate_args(1, 160), False),
    ("rate_scan    (8 users x 160 rings x 264 RBs)", _kernels.rate_scan_batch,
     _rate_scan_per_ring, lambda: _rate_args(8, 160), True),
    ("EESM stage   (sweep at 160 rings, vs np.mean)", _eesm_stages,
     _eesm_stages_per_candidate, _eesm_stage_args, True),
    ("select_rate_grid (4 UEs x 40 rings, 2 calls)", _sweep_rate_grids,
     _sweep_rate_decisions, _quickstart_rate_args, False),
    ("select_rate_grid (8 UEs x 5120 rings, 2 calls)", _sweep_rate_grids,
     _sweep_rate_decisions, _criterion4_rate_args, False),
    ("pattern CSV  (721 angles x 264 RBs)", _pattern_csv,
     _pattern_csv_py, _pattern_csv_args, False),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7,
                        help="timing repeats per kernel and per fast oracle "
                             "(best is reported)")
    args = parser.parse_args()

    header = "%-46s %12s %7s %12s %9s" % ("kernel", "numpy", "faults",
                                           "oracle", "speedup")
    print(header)
    print("-" * len(header))
    for name, kernel, oracle, make_args, oracle_once in BENCHES:
        call_args = make_args()
        t_kernel, faults = _time_best(kernel, call_args, args.repeats)
        t_oracle = _time_best(oracle, call_args,
                              1 if oracle_once else args.repeats)[0]
        print("%-46s %10.3f ms %7d %10.3f ms %8.1fx"
              % (name, t_kernel * 1e3, faults, t_oracle * 1e3,
                 t_oracle / t_kernel))


if __name__ == "__main__":
    main()
