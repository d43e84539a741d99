#!/usr/bin/env python3
"""Delay-line study: the type-1 design and the coverage ratio against the
delay step and the largest realizable delay.

Setups: 8 UEs at -55..55 degrees and 4 UEs at -30, -10, 10, 30 degrees, on
the 16-element half-wavelength array at 28 GHz with 264 RBs of 120 kHz
subcarriers, path-loss exponent 3, 320 log rings over 300-3000 m and a
16-beam PAA codebook over +-60 degrees. For every delay step and max delay
the table prints:

* objective: ``design_type1``'s least-squares objective;
* dip: the design's worst in-band dip below the 28 dB peak, over every
  UE's own subband (the measure of acceptance criterion 2);
* ratio: JPTA over PAA coverage distance at 1 Mbit/s mean throughput (the
  measure of acceptance criterion 4); ``*`` marks a ratio whose coverage
  was not bracketed by the rings.

Usage::

    PYTHONPATH=src python3 benchmarks/delay_study.py
"""

from __future__ import annotations

import numpy as np

from jpta.antenna import (
    ArrayConfig,
    FrequencyGrid,
    axis_from_boresight_deg,
    pattern_map,
)
from jpta.codebook import DelayConstraint, design_type1
from jpta.link import LinkModel, McsTable
from jpta.sysim import (
    SCHEME_JPTA,
    SCHEME_PAA,
    Deployment,
    coverage_distance,
    jpta_share_target,
    log_ring_grid,
    throughput_sweep,
)

ARRAY = ArrayConfig.half_wavelength(16, 28e9, 28.0)
GRID = FrequencyGrid(28e9, 400e6, 120e3, 264)
LINK = LinkModel(carrier_hz=28e9, path_loss_exponent=3.0)
MCS = McsTable.default()
SECTOR = (axis_from_boresight_deg(60.0), axis_from_boresight_deg(-60.0))
RINGS = log_ring_grid(300.0, 3000.0, 320)
THRESHOLD_BPS = 1e6

SETUPS = {
    8: tuple(np.linspace(-55.0, 55.0, 8)),
    4: (-30.0, -10.0, 10.0, 30.0),
}
STEPS_NS = (0.625, 2.5, 5.0, 10.0, 20.0)
MAX_DELAYS_NS = (0.0, 20.0, 40.0, 157.5)


def study_row(angles_deg, step_ns: float, max_ns: float):
    """(objective, worst in-band dip in dB, coverage ratio, bracketed) of
    one delay line for one UE set."""
    angles = np.radians(angles_deg)
    delay = DelayConstraint(step_ns * 1e-9, max_ns * 1e-9)
    target, _ = jpta_share_target(angles, GRID.num_rbs)
    weights, objective = design_type1(ARRAY, target, GRID, delay)
    # each UE's gain over its own subband
    gains = pattern_map(ARRAY, weights,
                        np.array([axis for axis, _ in target.entries]), GRID)
    dip = max(ARRAY.peak_gain_db - row[start:stop].min()
              for row, (_, (start, stop)) in zip(gains, target.entries))
    res = throughput_sweep(Deployment(angles, RINGS), ARRAY, GRID, LINK, MCS,
                           delay, 16, SECTOR)
    cov = [coverage_distance(RINGS, res.mean_throughput_bps(scheme),
                             THRESHOLD_BPS)
           for scheme in (SCHEME_PAA, SCHEME_JPTA)]
    bracketed = all(c.distance_m is not None and not c.censored for c in cov)
    ratio = (cov[1].distance_m / cov[0].distance_m
             if cov[0].distance_m and cov[1].distance_m else float("nan"))
    return objective, float(dip), ratio, bracketed


def main() -> None:
    header = "%4s %8s %8s %10s %8s %8s" % ("UEs", "max_ns", "step_ns",
                                           "objective", "dip_dB", "ratio")
    print(header)
    print("-" * len(header))
    for num_ues, angles_deg in SETUPS.items():
        for max_ns in MAX_DELAYS_NS:
            for step_ns in STEPS_NS:
                objective, dip, ratio, bracketed = study_row(
                    angles_deg, step_ns, max_ns)
                print("%4d %8g %8g %10.2f %8.2f %7.4f%s"
                      % (num_ues, max_ns, step_ns, objective, dip, ratio,
                         "" if bracketed else "*"))


if __name__ == "__main__":
    main()
