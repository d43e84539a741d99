"""Uplink multi-user system simulation: swept-ring throughput and coverage.

Two schemes are compared on the same deployment:

* PAA: conventional phased-array beam sweeping. Each UE is served by the
  best frequency-flat codebook beam, may use the whole band, but only holds
  the slot a 1/N_UE fraction of the time (TDM).
* JPTA: one phase-time weight set serves all UEs at once by pointing each
  RB subband at its UE (FDM). Each UE keeps every slot but only its RB
  share; shares are equal contiguous blocks in ascending boresight-angle
  order, remainder RBs to the last share.

The simulation is deterministic: no fading, no retransmissions, rate
selection is an exhaustive search.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .antenna import (
    ArrayConfig,
    FrequencyGrid,
    PhaseTimeWeights,
    axis_from_boresight_rad,
    pattern_gain_db,
)
from .codebook import DelayConstraint, Type1Target, design_type1, paa_codebook
from .link import LinkModel, McsTable, RateGrid, select_rate_grid

SCHEME_PAA = "PAA"
SCHEME_JPTA = "JPTA"

RESULTS_CSV_HEADER = ("scheme", "distance_m", "ue_index", "ue_angle_deg",
                      "mcs", "num_rbs", "eff_snr_db", "throughput_bps")
SUMMARY_CSV_HEADER = ("scheme", "distance_m", "mean_throughput_bps")
COVERAGE_CSV_HEADER = ("scheme", "threshold_bps", "coverage_m", "censored")

# ring distances: from the path-loss model's 1 m reference distance out to
# 10,000 km
RING_RANGE_M = (1.0, 1e7)
# log-grid ring count cap, far above the 5120 rings of the largest study
MAX_RING_COUNT = 100_000


@dataclass(frozen=True)
class Deployment:
    """UE directions (boresight-relative radians) and evaluation rings."""

    ue_angles_rad: np.ndarray
    ring_distances_m: np.ndarray

    def __post_init__(self):
        angles = np.array(self.ue_angles_rad, dtype=np.float64)
        rings = np.array(self.ring_distances_m, dtype=np.float64)
        if angles.ndim != 1 or angles.size == 0:
            raise ValueError("ue_angles_rad must be a non-empty 1-D array")
        if not np.all(np.isfinite(angles)):
            raise ValueError("ue_angles_rad must be finite")
        if np.any(np.abs(angles) > math.pi / 2.0):
            raise ValueError("ue_angles_rad must lie in [-pi/2, pi/2]")
        if rings.ndim != 1 or rings.size == 0:
            raise ValueError("ring_distances_m must be a non-empty 1-D array")
        if not np.all(np.isfinite(rings)):
            raise ValueError("ring_distances_m must be finite")
        if np.any(rings <= 0.0) or np.any(np.diff(rings) <= 0.0):
            raise ValueError("ring_distances_m must be positive and strictly "
                             "increasing")
        if rings[0] < RING_RANGE_M[0] or rings[-1] > RING_RANGE_M[1]:
            raise ValueError("ring_distances_m must lie in [%g, %g], got %g "
                             "to %g" % (RING_RANGE_M + (rings[0], rings[-1])))
        object.__setattr__(self, "ue_angles_rad", angles)
        object.__setattr__(self, "ring_distances_m", rings)

    @property
    def num_ues(self) -> int:
        return int(self.ue_angles_rad.size)


def log_ring_grid(ring_min_m: float, ring_max_m: float,
                  count: int) -> np.ndarray:
    """Logarithmically spaced ring distances, endpoints included.

    The ends must be ordered, then each lie in ``RING_RANGE_M``, then the
    count in [2, ``MAX_RING_COUNT``]; an error starts with the names of the
    arguments it reads.
    """
    if not ring_min_m < ring_max_m:
        raise ValueError("ring_min_m, ring_max_m: ring_min_m must be below "
                         "ring_max_m")
    for name, value in (("ring_min_m", ring_min_m),
                        ("ring_max_m", ring_max_m)):
        if not RING_RANGE_M[0] <= value <= RING_RANGE_M[1]:
            raise ValueError("%s must lie in [%g, %g], got %g"
                             % ((name,) + RING_RANGE_M + (value,)))
    if not 2 <= count <= MAX_RING_COUNT:
        raise ValueError("count must lie in [2, %d], got %s"
                         % (MAX_RING_COUNT, count))
    return np.geomspace(ring_min_m, ring_max_m, count)


def jpta_share_target(ue_angles_rad, num_rbs: int):
    """Equal-share subband target for a UE set.

    Returns (Type1Target, shares) where shares[u] is the RB index array of
    UE u in deployment order. Shares are contiguous blocks starting at RB 0
    in ascending axis-angle order (descending boresight angle): the lowest
    frequencies serve the largest boresight-relative angle. This orientation
    makes the fitted delay progression a nonnegative ramp and keeps the
    largest quantized delay minimal; the remainder RBs go to the last block.
    """
    angles = np.asarray(ue_angles_rad, dtype=np.float64)
    order = np.argsort(-angles, kind="stable")
    axis_sorted = [axis_from_boresight_rad(a) for a in angles[order]]
    target = Type1Target.equal_shares(axis_sorted, num_rbs)
    shares = [None] * angles.size
    for pos, ue in enumerate(order):
        start, stop = target.entries[pos][1]
        shares[ue] = np.arange(start, stop, dtype=np.int64)
    return target, shares


def _serving_gain_rows(cfg: ArrayConfig, weight_sets, serving,
                       ue_angles_rad, freqs) -> np.ndarray:
    """Gain rows (num_ues, num_freqs): row u is ``weight_sets[serving[u]]``
    toward UE u (boresight-relative radians), bit for bit its one-angle
    pattern_map row, from one pattern-kernel call per serving set."""
    cos_ues = np.cos(axis_from_boresight_rad(ue_angles_rad))
    rows = np.empty((cos_ues.size, len(freqs)))
    # not np.unique, whose first call imports numpy.ma: 20-30 ms, 1 MB
    for s in set(serving.tolist()):
        ues = serving == s
        rows[ues] = pattern_gain_db(cfg, [weight_sets[s]], cos_ues[ues], freqs)
    return rows


def run_paa(dep: Deployment, cfg: ArrayConfig, grid: FrequencyGrid,
            lm: LinkModel, mcs_table: McsTable, beams,
            eesm_betas=None) -> RateGrid:
    """Beam-sweeping benchmark: whole band, slot duty 1/N_UE per UE.

    Each UE is served by the codebook beam with the highest gain toward it
    at the carrier, the first beam on ties. Returns its ``RateGrid``.
    """
    duty = 1.0 / dep.num_ues
    all_rbs = np.arange(grid.num_rbs, dtype=np.int64)
    cos_ues = np.cos(axis_from_boresight_rad(dep.ue_angles_rad))
    serving = np.argmax(pattern_gain_db(cfg, beams, cos_ues,
                                        [cfg.carrier_hz]), axis=1)
    rows = _serving_gain_rows(cfg, beams, serving, dep.ue_angles_rad,
                              grid.rb_center_freqs())
    return select_rate_grid(lm, dep.ring_distances_m, rows,
                            [all_rbs] * dep.num_ues, mcs_table, grid.scs_hz,
                            duty, eesm_betas)


def run_jpta(dep: Deployment, cfg: ArrayConfig, grid: FrequencyGrid,
             lm: LinkModel, mcs_table: McsTable,
             constraint: DelayConstraint, eesm_betas=None):
    """FDM scheme: subband-steered weights, full duty, per-UE RB share.

    Returns (RateGrid, designed weights). The weights are fitted
    at the RB centers. RB shares are disjoint by construction, so UEs do not
    interfere.
    """
    target, shares = jpta_share_target(dep.ue_angles_rad, grid.num_rbs)
    weights, _ = design_type1(cfg, target, grid, constraint)
    # conservation: the disjoint shares exhaust the band exactly
    assert sum(s.size for s in shares) == grid.num_rbs
    gain_rows = _serving_gain_rows(cfg, [weights], np.zeros(dep.num_ues, int),
                                   dep.ue_angles_rad, grid.rb_center_freqs())
    return select_rate_grid(lm, dep.ring_distances_m, gain_rows, shares,
                            mcs_table, grid.scs_hz, 1.0, eesm_betas), weights


@dataclass
class ScenarioResult:
    """Sweep output: one (rings x UEs) ``RateGrid`` per scheme."""

    distances_m: np.ndarray
    ue_angles_rad: np.ndarray
    rates: dict
    jpta_weights: PhaseTimeWeights = None

    @property
    def decisions(self) -> dict:
        """``{scheme: RateGrid.decisions()}``, built on each access."""
        return {s: rates.decisions() for s, rates in self.rates.items()}

    def mean_throughput_bps(self, scheme: str) -> np.ndarray:
        # a row mean over the contiguous axis equals each ring's 1-D np.mean
        return self.rates[scheme].throughput_bps.mean(axis=1)


def throughput_sweep(dep: Deployment, cfg: ArrayConfig, grid: FrequencyGrid,
                     lm: LinkModel, mcs_table: McsTable,
                     constraint: DelayConstraint, num_paa_beams: int,
                     paa_sector_rad, eesm_betas=None) -> ScenarioResult:
    """Run both schemes over every ring of the deployment.

    Per slot both schemes spend the same RB-seconds: PAA gives each of the
    N_UE users the whole band for a 1/N_UE duty, JPTA gives each user a
    1/N_UE band share at full duty.
    """
    beams = paa_codebook(cfg, num_paa_beams, paa_sector_rad)
    paa = run_paa(dep, cfg, grid, lm, mcs_table, beams, eesm_betas)
    jpta, weights = run_jpta(dep, cfg, grid, lm, mcs_table, constraint,
                             eesm_betas)
    return ScenarioResult(distances_m=dep.ring_distances_m.copy(),
                          ue_angles_rad=dep.ue_angles_rad.copy(),
                          rates={SCHEME_PAA: paa, SCHEME_JPTA: jpta},
                          jpta_weights=weights)


@dataclass(frozen=True)
class CoverageResult:
    """Largest distance meeting a throughput threshold.

    distance_m is None when the threshold is never met. censored is True
    when the curve never drops below the threshold on the evaluated rings,
    so the true coverage lies beyond the last ring.
    """

    distance_m: float
    censored: bool


def coverage_distance(distances_m, mean_bps, threshold_bps: float) -> CoverageResult:
    """Coverage from a sampled mean-throughput curve.

    Uses the farthest ring still meeting the threshold and linearly
    interpolates the crossing toward the next ring.
    """
    dists = np.asarray(distances_m, dtype=np.float64)
    vals = np.asarray(mean_bps, dtype=np.float64)
    if dists.size != vals.size or dists.size == 0:
        raise ValueError("distances and throughputs must be equal-length, "
                         "non-empty")
    if not 0.0 < threshold_bps < math.inf:
        raise ValueError("threshold_bps must be positive and finite")
    meets = np.nonzero(vals >= threshold_bps)[0]
    if meets.size == 0:
        return CoverageResult(distance_m=None, censored=False)
    i = int(meets[-1])
    if i == dists.size - 1:
        return CoverageResult(distance_m=float(dists[-1]), censored=True)
    d0, d1 = dists[i], dists[i + 1]
    v0, v1 = vals[i], vals[i + 1]
    frac = (v0 - threshold_bps) / (v0 - v1)
    return CoverageResult(distance_m=float(d0 + frac * (d1 - d0)),
                          censored=False)


def _fmt(value) -> str:
    return "%.6g" % value


def write_results_csv(result: ScenarioResult, path) -> None:
    """Per-UE decisions, schemes PAA then JPTA, rings ascending, UEs by
    index. Floats carry six significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_CSV_HEADER)
        angles = [_fmt(math.degrees(a)) for a in result.ue_angles_rad]
        for scheme in (SCHEME_PAA, SCHEME_JPTA):
            rings = zip(*(c.tolist() for c in result.rates[scheme][:4]))
            for dist, ring in zip(result.distances_m, rings):
                for u, (mcs, num_rbs, eff_db, tput) in enumerate(zip(*ring)):
                    writer.writerow([scheme, _fmt(dist), u, angles[u], mcs,
                                     num_rbs, _fmt(eff_db), _fmt(tput)])


def write_summary_csv(result: ScenarioResult, path) -> None:
    """Per-ring mean throughput, schemes PAA then JPTA, rings ascending."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_CSV_HEADER)
        for scheme in (SCHEME_PAA, SCHEME_JPTA):
            means = result.mean_throughput_bps(scheme)
            for dist, mean in zip(result.distances_m, means):
                writer.writerow([scheme, _fmt(dist), _fmt(mean)])
