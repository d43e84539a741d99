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

import copy
import csv
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .antenna import (
    ArrayConfig,
    FrequencyGrid,
    PhaseTimeWeights,
    axis_from_boresight_rad,
    serving_gain_db,
)
from .codebook import DelayConstraint, Type1Target, design_type1, paa_codebook
from .link import (
    MIN_RBS_PER_GRANT,
    LinkModel,
    McsTable,
    RateGrid,
    select_rate_grid,
)

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


def require_min_jpta_share(num_ues: int, num_rbs: int) -> None:
    """Reject a band whose smallest ``jpta_share_target`` share is below
    the minimum grant: that UE could only ever be an outage."""
    smallest = num_rbs // num_ues if num_rbs >= num_ues else 0
    if smallest < MIN_RBS_PER_GRANT:
        raise ValueError("%d RBs over %d UEs leave a JPTA share of %d RBs, "
                         "below the %d-RB minimum grant"
                         % (num_rbs, num_ues, smallest, MIN_RBS_PER_GRANT))


# A sweep's ring-free stage: what ``run_paa`` and ``run_jpta`` build before
# they read a ring, kept by the value of every input it reads, so that a
# sweep of the same UEs, array, grid, codebook and delay line at other rings
# or another path-loss exponent builds none of it. Every kept array is
# read-only, and each table is a ``_kernels.kept_table``, which
# ``_kernels.clear_kept_tables`` empties with the rest. The rate scan keeps
# its own ring-free stage, keyed by the gain rows (``link.select_rate_grid``).
# One geometry of 8 UEs over 264 RBs keeps about 50 KB here, of 64 UEs over
# 1024 RBs about 1.1 MB.

class _Inputs:
    """A kept table's inputs as one argument of its ``functools.lru_cache``:
    hashed and compared by ``key``, the value of every input the table
    reads, while a miss builds the table from the objects in ``args``, which
    it then drops. Rebuilding the beams from the key's bytes instead would
    validate each one again: 0.17 ms a miss for 16 beams, longer than
    ``paa_codebook`` takes to design them."""

    __slots__ = ("key", "args")

    def __init__(self, key, *args):
        self.key, self.args = key, args

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return self.key == other.key


def _read_only(*arrays):
    for array in arrays:
        array.flags.writeable = False


@_kernels.kept_table(maxsize=8)
def _paa_beams(cfg: ArrayConfig, num_beams: int, sector: tuple) -> tuple:
    """``paa_codebook``, its weights read-only."""
    beams = tuple(paa_codebook(cfg, num_beams, sector))
    for w in beams:
        _read_only(w.delays_s, w.phases_rad)
    return beams


@_kernels.kept_table(maxsize=8)
def _paa_rows(inputs: _Inputs) -> np.ndarray:
    """Each UE's gain row over the RB centers from its serving beam, read
    only; ``inputs.args`` is ``(cfg, grid, beams, ue_angles_rad)``."""
    cfg, grid, beams, angles = inputs.args
    inputs.args = ()  # the kept key holds the values, not the objects
    cos_ues = np.cos(axis_from_boresight_rad(angles))
    # every beam toward every UE at the carrier, one (UE, beam) row each
    count = len(beams)
    carrier = serving_gain_db(cfg, beams,
                              np.arange(cos_ues.size * count) % count,
                              np.repeat(cos_ues, count), [cfg.carrier_hz])
    serving = np.argmax(carrier.reshape(cos_ues.size, -1), axis=1)
    rows = serving_gain_db(cfg, beams, serving, cos_ues,
                           grid.rb_center_freqs())
    _read_only(rows)
    return rows


@_kernels.kept_table(maxsize=8)
def _jpta_stage(cfg: ArrayConfig, grid: FrequencyGrid,
                constraint: DelayConstraint, angles_bytes: bytes) -> tuple:
    """``(shares, weights, gain_rows)`` of the UEs at the boresight angles
    ``angles_bytes``: their RB shares, the type-1 design of the share
    target and each UE's gain row over the RB centers, all read-only."""
    angles = np.frombuffer(angles_bytes)
    target, shares = jpta_share_target(angles, grid.num_rbs)
    weights, _ = design_type1(cfg, target, grid, constraint)
    # conservation: the disjoint shares exhaust the band exactly
    assert sum(s.size for s in shares) == grid.num_rbs
    rows = serving_gain_db(cfg, [weights], np.zeros(angles.size, dtype=int),
                           np.cos(axis_from_boresight_rad(angles)),
                           grid.rb_center_freqs())
    _read_only(rows, weights.delays_s, weights.phases_rad, *shares)
    return tuple(shares), weights, rows


def run_paa(dep: Deployment, cfg: ArrayConfig, grid: FrequencyGrid,
            lm: LinkModel, mcs_table: McsTable, beams,
            eesm_betas=None) -> RateGrid:
    """Beam-sweeping benchmark: whole band, slot duty 1/N_UE per UE.

    Each UE is served by the codebook beam with the highest gain toward it
    at the carrier, the first beam on ties. Returns its ``RateGrid``.
    """
    duty = 1.0 / dep.num_ues
    all_rbs = np.arange(grid.num_rbs, dtype=np.int64)
    angles = dep.ue_angles_rad
    key = (cfg, grid, angles.tobytes(),
           tuple((w.delays_s.tobytes(), w.phases_rad.tobytes())
                 for w in beams))
    rows = _paa_rows(_Inputs(key, cfg, grid, beams, angles))
    return select_rate_grid(lm, dep.ring_distances_m, rows,
                            [all_rbs] * dep.num_ues, mcs_table, grid.scs_hz,
                            duty, eesm_betas)


def run_jpta(dep: Deployment, cfg: ArrayConfig, grid: FrequencyGrid,
             lm: LinkModel, mcs_table: McsTable,
             constraint: DelayConstraint, eesm_betas=None):
    """FDM scheme: subband-steered weights, full duty, per-UE RB share.

    Returns (RateGrid, designed weights). The weights are fitted
    at the RB centers. RB shares are disjoint by construction, so UEs do not
    interfere. Every share must hold the minimum grant.
    """
    require_min_jpta_share(dep.num_ues, grid.num_rbs)
    shares, kept, gain_rows = _jpta_stage(cfg, grid, constraint,
                                          dep.ue_angles_rad.tobytes())
    # the caller's own copy of the kept design, checked when it was built
    weights = copy.copy(kept)
    weights.delays_s = kept.delays_s.copy()
    weights.phases_rad = kept.phases_rad.copy()
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
    beams = _paa_beams(cfg, num_paa_beams,
                       (float(paa_sector_rad[0]), float(paa_sector_rad[1])))
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
    interpolates the crossing toward the next ring; the distances must
    strictly increase.
    """
    dists = np.asarray(distances_m, dtype=np.float64)
    vals = np.asarray(mean_bps, dtype=np.float64)
    if dists.size != vals.size or dists.size == 0:
        raise ValueError("distances and throughputs must be equal-length, "
                         "non-empty")
    if not 0.0 < threshold_bps < math.inf:
        raise ValueError("threshold_bps must be positive and finite")
    if not (np.all(np.isfinite(dists)) and np.all(np.isfinite(vals))):
        raise ValueError("distances_m and mean_bps must be finite")
    if np.any(np.diff(dists) <= 0.0):
        raise ValueError("distances_m must be strictly increasing")
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


# distances that each refining sweep of ``coverage_edge`` probes per
# scheme: a bracket shrinks 65-fold a sweep, so about 9 sweeps take a
# bracket of one ring step to a few ulps
EDGE_PROBES = 64


def coverage_edge(dep: Deployment, cfg: ArrayConfig, grid: FrequencyGrid,
                  lm: LinkModel, mcs_table: McsTable,
                  constraint: DelayConstraint, num_paa_beams: int,
                  paa_sector_rad, threshold_bps: float,
                  eesm_betas=None) -> dict:
    """Each scheme's coverage, ``{scheme: CoverageResult}``, refined from
    the rings to the distance at which its mean throughput falls below
    ``threshold_bps``.

    The first sweep runs over the deployment's rings. Where a scheme meets
    the threshold at a ring but not at the next, its edge lies between
    them. Each further sweep probes ``EDGE_PROBES`` log-spaced distances
    inside each such bracket and keeps the farthest probe that meets the
    threshold and the nearest farther one that misses it. It stops when no
    float lies strictly inside a bracket's probes, a few ulps apart. The
    edge is the bracket's near end, the farthest distance found to meet
    the threshold. Bisection is valid because a UE's throughput never
    rises with distance, so neither does the mean. A scheme that meets the
    threshold at no ring, or at the last, keeps ``coverage_distance``'s
    result.

    Every sweep probes the same UEs, so all but the first run on the
    ring-free stage that the first one kept and pay for the link stage
    alone.
    """
    args = (cfg, grid, lm, mcs_table, constraint, num_paa_beams,
            paa_sector_rad, eesm_betas)
    res = throughput_sweep(dep, *args)
    edges, brackets = {}, {}
    for scheme in (SCHEME_PAA, SCHEME_JPTA):
        mean = res.mean_throughput_bps(scheme)
        edges[scheme] = coverage_distance(dep.ring_distances_m, mean,
                                          threshold_bps)
        meets = np.flatnonzero(mean >= threshold_bps)
        if meets.size and meets[-1] + 1 < mean.size:
            brackets[scheme] = tuple(
                dep.ring_distances_m[meets[-1]:meets[-1] + 2].tolist())
    while True:
        probes = {}
        for scheme, (near, far) in brackets.items():
            inside = np.geomspace(near, far, EDGE_PROBES + 2)[1:-1]
            inside = np.unique(inside[(inside > near) & (inside < far)])
            if inside.size:
                probes[scheme] = inside
        if not probes:
            break
        # both schemes' probes in one sweep; brackets may overlap
        rings = np.unique(np.concatenate(list(probes.values())))
        res = throughput_sweep(Deployment(dep.ue_angles_rad, rings), *args)
        for scheme, inside in probes.items():
            meets = (res.mean_throughput_bps(scheme)
                     [np.searchsorted(rings, inside)] >= threshold_bps)
            near, far = brackets[scheme]
            hit = np.flatnonzero(meets)
            if hit.size:
                near = float(inside[hit[-1]])
            miss = np.flatnonzero(~meets & (inside > near))
            if miss.size:
                far = float(inside[miss[0]])
            brackets[scheme] = (near, far)
    for scheme, (near, _) in brackets.items():
        edges[scheme] = CoverageResult(distance_m=near, censored=False)
    return edges


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
