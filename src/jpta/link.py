"""Uplink link budget, EESM link abstraction, and rate selection.

The link model is a log-distance path loss with free-space intercept at the
carrier, a per-RB noise floor built from thermal noise plus receiver noise
figure, and an EESM effective-SNR mapping onto a monotone MCS threshold
table. BLER is a hard threshold: a transport format either meets its SNR
threshold (BLER 0) or not (BLER 1), so any selected rate satisfies the 10%
BLER target by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .antenna import (
    CARRIER_RANGE_HZ,
    GAIN_RANGE_DB,
    SPEED_OF_LIGHT_M_S,
    read_indexed_csv,
    require_finite_fields,
    require_range,
)

THERMAL_NOISE_DBM_PER_HZ = -174.0

# physical ranges: a path-loss exponent above 10 loses 100 dB per decade
# of distance; a noise figure is 0 dB for a noiseless receiver
MAX_PATH_LOSS_EXPONENT = 10.0
NOISE_FIGURE_RANGE_DB = (0.0, 100.0)

# smallest schedulable allocation
MIN_RBS_PER_GRANT = 4

# Largest EESM beta. EESM follows the Chernoff bound of the symbol error
# rate, exp(-gamma * d_min**2 / (4 E_s)), which for square M-QAM is
# exp(-gamma / beta) with beta = 2 (M - 1) / 3: 1 for BPSK, 2 for QPSK, 170
# for 256-QAM and 682 for 1024-QAM, the densest NR constellation; calibrated
# per-MCS betas are of that order. The cap leaves a factor of ten above it
# and bounds the rounding: the shifted mean's rounding next to 1 reaches the
# effective SNR as about beta * 2**-53, at most 1.1e-12 of linear SNR. A
# beta above about 2**53 times the spread of the linear SNRs rounds every
# shifted term to 1, and the effective SNR collapses to the weakest RB's.
MAX_EESM_BETA = 1e4

# 15-level spectral-efficiency ladder (standard CQI ladder, QPSK to 256QAM)
DEFAULT_SPECTRAL_EFFICIENCIES = (
    0.1523, 0.3770, 0.8770, 1.4766, 1.9141, 2.4063, 2.7305, 3.3223,
    3.9023, 4.5234, 5.1152, 5.5547, 6.2266, 6.9141, 7.4063,
)
DEFAULT_MCS_MARGIN_DB = 2.0

MCS_CSV_HEADER = ("index", "spectral_efficiency", "snr_threshold_db")
EESM_BETA_CSV_HEADER = ("index", "beta")


@dataclass(frozen=True)
class LinkModel:
    """Scalar link-budget parameters for the uplink."""

    carrier_hz: float
    path_loss_exponent: float = 3.0
    ue_tx_power_dbm: float = 23.0
    ue_beam_gain_db: float = 0.0
    bs_noise_figure_db: float = 5.0

    def __post_init__(self):
        require_finite_fields(self)
        if not self.path_loss_exponent > 0.0:
            raise ValueError("path_loss_exponent must be positive")
        require_range(self, "carrier_hz", *CARRIER_RANGE_HZ)
        require_range(self, "path_loss_exponent", 0.0, MAX_PATH_LOSS_EXPONENT)
        require_range(self, "ue_tx_power_dbm", *GAIN_RANGE_DB)
        require_range(self, "ue_beam_gain_db", *GAIN_RANGE_DB)
        require_range(self, "bs_noise_figure_db", *NOISE_FIGURE_RANGE_DB)


def path_gain_db(lm: LinkModel, distance_m):
    """Log-distance path gain: free-space intercept at 1 m plus
    -10*beta*log10(d), of a distance or elementwise of an array of them.
    ``np.log10`` does not depend on an entry's position, so an array's
    entries keep the bits of the scalar call."""
    dists = np.asarray(distance_m, dtype=np.float64)
    if not np.all((dists > 0.0) & (dists < math.inf)):
        raise ValueError("distance_m must be positive and finite")
    intercept = 20.0 * math.log10(
        SPEED_OF_LIGHT_M_S / (4.0 * math.pi * lm.carrier_hz))
    return intercept - 10.0 * lm.path_loss_exponent * np.log10(dists)


def noise_power_dbm_per_rb(lm: LinkModel, scs_hz: float) -> float:
    """Noise floor of one 12-subcarrier RB including the noise figure."""
    if not scs_hz > 0.0:
        raise ValueError("scs_hz must be positive")
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(12.0 * scs_hz) \
        + lm.bs_noise_figure_db


def eesm_effective_snr_db(snr_db_values, beta: float) -> float:
    """Exponential effective-SNR mapping over per-RB SNRs (dB in, dB out).

    Linear-domain: -beta * ln(mean(exp(-snr/beta))). Computed with a shift
    so large SNRs do not underflow; always lies between min and max input.
    """
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    snr_db = np.asarray(snr_db_values, dtype=np.float64)
    if snr_db.size == 0:
        raise ValueError("snr_db_values must be non-empty")
    if not np.all(np.isfinite(snr_db)):
        raise ValueError("snr_db_values must be finite")
    lin = _kernels.pow10(snr_db / 10.0)
    v_min = lin.min()
    mean = np.mean(np.exp(-(lin - v_min) / beta))
    return float(_kernels.eesm_snr_db(v_min, mean, beta))


@dataclass(frozen=True)
class McsEntry:
    index: int
    spectral_efficiency: float
    snr_threshold_db: float


@dataclass(frozen=True)
class McsTable:
    """Monotone MCS ladder: increasing spectral efficiency and threshold."""

    entries: tuple

    def __post_init__(self):
        if len(self.entries) == 0:
            raise ValueError("MCS table must be non-empty")
        for i, e in enumerate(self.entries):
            if e.index != i:
                raise ValueError("MCS indices must run 0..L-1 in order")
            require_finite_fields(e)
            if e.spectral_efficiency <= 0.0:
                raise ValueError("spectral efficiencies must be positive")
        se = [e.spectral_efficiency for e in self.entries]
        thr = [e.snr_threshold_db for e in self.entries]
        if np.any(np.diff(se) <= 0.0):
            raise ValueError("spectral efficiencies must be strictly increasing")
        if np.any(np.diff(thr) <= 0.0):
            raise ValueError("SNR thresholds must be strictly increasing")
        # the dB range of the link budget's own fields: a threshold past it
        # is met by every SNR or by none
        for e in self.entries:
            require_range(e, "snr_threshold_db", *GAIN_RANGE_DB)

    def __len__(self) -> int:
        return len(self.entries)

    def spectral_efficiencies(self) -> np.ndarray:
        return np.array([e.spectral_efficiency for e in self.entries])

    def thresholds_db(self) -> np.ndarray:
        return np.array([e.snr_threshold_db for e in self.entries])

    @classmethod
    def default(cls, margin_db: float = DEFAULT_MCS_MARGIN_DB) -> "McsTable":
        """Ladder with Shannon-gap thresholds 10*log10(2^SE - 1) + margin."""
        entries = []
        for i, se in enumerate(DEFAULT_SPECTRAL_EFFICIENCIES):
            thr = 10.0 * math.log10(2.0 ** se - 1.0) + margin_db
            entries.append(McsEntry(i, se, thr))
        return cls(tuple(entries))

    @classmethod
    def from_csv(cls, path) -> "McsTable":
        """Table from an MCS CSV file; every error names the file."""
        rows = read_indexed_csv(path, MCS_CSV_HEADER)
        try:
            return cls(tuple(McsEntry(idx, se, thr)
                             for _, idx, (se, thr) in rows))
        except ValueError as exc:
            raise ValueError("%s: %s" % (path, exc))


def require_eesm_beta(where: str, beta: float) -> None:
    """Raise ValueError, its message starting with ``where``, unless
    ``0 < beta <= MAX_EESM_BETA``."""
    if not beta > 0.0:
        raise ValueError("%s: must be positive, got %g" % (where, beta))
    if not beta <= MAX_EESM_BETA:
        raise ValueError("%s: must be at most %g, got %g"
                         % (where, MAX_EESM_BETA, beta))


def load_eesm_betas(path, num_levels: int) -> np.ndarray:
    """Per-MCS EESM beta values from a CSV with columns index,beta."""
    betas = np.full(num_levels, np.nan)
    for line, idx, (beta,) in read_indexed_csv(path, EESM_BETA_CSV_HEADER):
        if not 0 <= idx < num_levels:
            raise ValueError("%s line %d: EESM beta index %d out of range"
                             % (path, line, idx))
        if not np.isnan(betas[idx]):
            raise ValueError("%s line %d: duplicate EESM beta for index %d"
                             % (path, line, idx))
        require_eesm_beta("%s line %d: EESM beta" % (path, line), beta)
        betas[idx] = beta
    if np.any(np.isnan(betas)):
        raise ValueError("EESM beta file %s must cover every MCS index"
                         % (path,))
    return betas


class RateDecision(NamedTuple):
    """Outcome of rate selection for one UE at one distance."""

    mcs_index: int
    num_rbs: int
    effective_snr_db: float
    throughput_bps: float
    outage: bool = False


class RateGrid(NamedTuple):
    """One C-contiguous (rings x UEs) array per ``RateDecision`` field."""

    mcs_index: np.ndarray
    num_rbs: np.ndarray
    effective_snr_db: np.ndarray
    throughput_bps: np.ndarray
    outage: np.ndarray

    def decisions(self) -> list:
        """``decisions[ring][ue]``, each a RateDecision of Python scalars."""
        return [list(map(RateDecision, *ring))
                for ring in zip(*(c.tolist() for c in self))]


def select_rate_grid(lm: LinkModel, distances_m, gain_rows, available_rbs,
                     mcs_table: McsTable, scs_hz: float, slot_duty: float,
                     eesm_betas=None) -> RateGrid:
    """Best feasible (MCS, RB count) for every UE at every distance.

    UE u uses the RBs ``available_rbs[u]``, distinct ids into its gain row
    ``gain_rows[u]`` (dB), whose gains there must be finite. Allocations
    use its n highest-gain RBs for n from 4 up to its available count, with
    transmit power split evenly. A pair is feasible when the EESM effective
    SNR meets the MCS threshold; candidates are ranked by throughput
    SE*n*12*scs*slot_duty, ties broken toward the higher MCS and then the
    smaller allocation. A distance where nothing with at least 4 RBs is
    feasible gets an outage decision (mcs -1, zero throughput) whose
    effective SNR is the EESM, at MCS 0's beta, of the min(4, available)
    best RBs with the power split over them.

    Returns a ``RateGrid``, row i for ``distances_m[i]``; every cell equals
    the one-UE, one-distance ``select_rate`` result.
    """
    if not 0.0 < slot_duty <= 1.0:
        raise ValueError("slot_duty must lie in (0, 1]")
    if len(gain_rows) != len(available_rbs):
        raise ValueError("gain_rows and available_rbs need one entry per UE")
    rows = [np.asarray(row, dtype=np.float64) for row in gain_rows]
    rbs = [np.asarray(ids, dtype=np.int64) for ids in available_rbs]
    if not all(ids.ndim == 1 and ids.size for ids in rbs):
        raise ValueError("available_rbs must be non-empty 1-D lists")
    # UEs grouped by share width, each group checked and sorted at once
    widths = [ids.size for ids in rbs]
    groups = [[u for u, width in enumerate(widths) if width == w]
              for w in sorted(set(widths))]
    shares = [_sorted_share_gains([rows[u] for u in ues],
                                  [rbs[u] for u in ues]) for ues in groups]
    dists = np.asarray(distances_m, dtype=np.float64)
    if dists.ndim != 1:
        raise ValueError("distances_m must be a 1-D sequence")
    betas = np.ones(len(mcs_table)) if eesm_betas is None \
        else np.asarray(eesm_betas, dtype=np.float64)
    if betas.shape != (len(mcs_table),):
        raise ValueError("eesm_betas needs one beta per MCS level")
    for beta in betas.tolist():
        require_eesm_beta("eesm_betas", beta)

    link_db = (lm.ue_tx_power_dbm + lm.ue_beam_gain_db
               + path_gain_db(lm, dists))
    noise_db = noise_power_dbm_per_rb(lm, scs_hz)
    unique_betas, beta_idx = np.unique(betas, return_inverse=True)
    thr_lin = _kernels.pow10(mcs_table.thresholds_db() / 10.0)
    se = mcs_table.spectral_efficiencies()

    shape = (2, dists.size, len(rows))
    mcs, num_rbs = np.empty(shape, dtype=np.int64)
    eff_db, tput = np.empty(shape)
    for ues, gains_desc in zip(groups, shares):
        best_n, best_mcs, best_eff, best_se_n = _kernels.rate_scan_batch(
            link_db, gains_desc, noise_db, thr_lin, se, unique_betas,
            beta_idx, MIN_RBS_PER_GRANT)
        mcs[:, ues], num_rbs[:, ues] = best_mcs.T, best_n.T
        eff_db[:, ues] = best_eff.T
        tput[:, ues] = (best_se_n * 12.0 * scs_hz * slot_duty).T
    return RateGrid(mcs, num_rbs, eff_db, tput, mcs < 0)


def _sorted_share_gains(rows, rbs) -> np.ndarray:
    """Gains of UEs with shares of one width on their RBs, one row per UE,
    each sorted descending: each SNR term is monotone in its gain, so a
    UE's SNR rows come out sorted descending at every distance. The RB ids
    of each UE must be distinct ids into its gain row, and its gains there
    finite; the gain rows may differ in length."""
    ids = np.sort(rbs, axis=1)
    sizes = np.array([row.size if row.ndim == 1 else -1 for row in rows])
    if np.any((ids[:, 0] < 0) | (ids[:, -1] >= sizes)
              | (ids[:, 1:] == ids[:, :-1]).any(axis=1)):
        raise ValueError("available_rbs must hold distinct RB ids of "
                         "their gain_rows entry")
    # each UE's ids into the gain rows laid end to end
    ids += (np.cumsum(sizes) - sizes)[:, None]
    gains = np.concatenate(rows)[ids]
    if not np.all(np.isfinite(gains)):
        raise ValueError("gain_rows must be finite on the available RBs")
    return -np.sort(-gains, axis=1)


def select_rate(lm: LinkModel, distance_m: float, beam_gain_db_per_rb,
                available_rbs, mcs_table: McsTable, scs_hz: float,
                slot_duty: float, eesm_betas=None) -> RateDecision:
    """``select_rate_grid`` of one UE at a single distance."""
    return select_rate_grid(lm, [distance_m], [beam_gain_db_per_rb],
                            [available_rbs], mcs_table, scs_hz, slot_duty,
                            eesm_betas).decisions()[0][0]
