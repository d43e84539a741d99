"""Uplink link budget, EESM link abstraction, and rate selection.

The link model is a log-distance path loss with free-space intercept at the
carrier, a per-RB noise floor built from thermal noise plus receiver noise
figure, and an EESM effective-SNR mapping onto a monotone MCS threshold
table. BLER is a hard threshold: a transport format either meets its SNR
threshold (BLER 0) or not (BLER 1), so any selected rate satisfies the 10%
BLER target by construction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .antenna import SPEED_OF_LIGHT_M_S, require_finite_fields

THERMAL_NOISE_DBM_PER_HZ = -174.0

# smallest schedulable allocation
MIN_RBS_PER_GRANT = 4

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
    thermal_noise_dbm_per_hz: float = THERMAL_NOISE_DBM_PER_HZ

    def __post_init__(self):
        require_finite_fields(self)
        if not self.carrier_hz > 0.0:
            raise ValueError("carrier_hz must be positive")
        if not self.path_loss_exponent > 0.0:
            raise ValueError("path_loss_exponent must be positive")


def path_gain_db(lm: LinkModel, distance_m: float) -> float:
    """Log-distance path gain: free-space intercept at 1 m plus
    -10*beta*log10(d)."""
    if not distance_m > 0.0:
        raise ValueError("distance_m must be positive")
    intercept = 20.0 * math.log10(
        SPEED_OF_LIGHT_M_S / (4.0 * math.pi * lm.carrier_hz))
    return intercept - 10.0 * lm.path_loss_exponent * math.log10(distance_m)


def noise_power_dbm_per_rb(lm: LinkModel, scs_hz: float) -> float:
    """Noise floor of one 12-subcarrier RB including the noise figure."""
    if not scs_hz > 0.0:
        raise ValueError("scs_hz must be positive")
    return lm.thermal_noise_dbm_per_hz + 10.0 * math.log10(12.0 * scs_hz) \
        + lm.bs_noise_figure_db


def snr_per_rb_db(lm: LinkModel, distance_m: float, beam_gain_db_per_rb,
                  allocated_rbs, scs_hz: float) -> np.ndarray:
    """Per-RB SNR with transmit power split evenly over the allocation.

    beam_gain_db_per_rb is indexable by RB id; allocated_rbs lists the RB ids
    carrying the transmission. Returns SNRs in allocation order.
    """
    gains = np.asarray(beam_gain_db_per_rb, dtype=np.float64)
    alloc = np.asarray(allocated_rbs, dtype=np.int64)
    if alloc.size == 0:
        raise ValueError("allocated_rbs must be non-empty")
    tx = lm.ue_tx_power_dbm - 10.0 * math.log10(alloc.size)
    return (tx + lm.ue_beam_gain_db + path_gain_db(lm, distance_m)
            + gains[alloc] - noise_power_dbm_per_rb(lm, scs_hz))


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
    return _eesm_effective_snr_db_rows(snr_db.reshape(1, -1), beta)[0]


def _eesm_effective_snr_db_rows(snr_db_rows, beta: float) -> list:
    """``eesm_effective_snr_db`` of every row of a 2-D array, one float per
    row, without input checks. The shift by the row minimum keeps large SNRs
    from underflowing; the last step uses ``math.log`` and ``math.log10``,
    so a row's result does not depend on the other rows."""
    lin = np.power(10.0, snr_db_rows / 10.0)
    v_min = lin.min(axis=1)
    means = np.mean(np.exp(-(lin - v_min[:, None]) / beta), axis=1)
    return [10.0 * math.log10(v - beta * math.log(m))
            for v, m in zip(v_min, means)]


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
            if e.spectral_efficiency <= 0.0:
                raise ValueError("spectral efficiencies must be positive")
        se = [e.spectral_efficiency for e in self.entries]
        thr = [e.snr_threshold_db for e in self.entries]
        if np.any(np.diff(se) <= 0.0):
            raise ValueError("spectral efficiencies must be strictly increasing")
        if np.any(np.diff(thr) <= 0.0):
            raise ValueError("SNR thresholds must be strictly increasing")

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
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError("MCS table file %s is empty" % (path,))
            if tuple(h.strip() for h in header) != MCS_CSV_HEADER:
                raise ValueError(
                    "MCS table header must be %s" % (",".join(MCS_CSV_HEADER),))
            entries = []
            for row in reader:
                if not row:
                    continue
                if len(row) != 3:
                    raise ValueError("MCS row %r must have 3 fields" % (row,))
                entries.append(McsEntry(int(row[0]), float(row[1]),
                                        float(row[2])))
        return cls(tuple(entries))


def load_eesm_betas(path, num_levels: int) -> np.ndarray:
    """Per-MCS EESM beta values from a CSV with columns index,beta."""
    betas = np.full(num_levels, np.nan)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("EESM beta file %s is empty" % (path,))
        if tuple(h.strip() for h in header) != EESM_BETA_CSV_HEADER:
            raise ValueError(
                "EESM beta header must be %s" % (",".join(EESM_BETA_CSV_HEADER),))
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ValueError("EESM beta row %r must have 2 fields" % (row,))
            idx = int(row[0])
            if not 0 <= idx < num_levels:
                raise ValueError("EESM beta index %d out of range" % idx)
            if not np.isnan(betas[idx]):
                raise ValueError("duplicate EESM beta for index %d" % idx)
            beta = float(row[1])
            if not beta > 0.0:
                raise ValueError("EESM beta must be positive")
            betas[idx] = beta
    if np.any(np.isnan(betas)):
        raise ValueError("EESM beta file must cover every MCS index")
    return betas


def bler(entry: McsEntry, effective_snr_db: float) -> float:
    """Hard-threshold block error rate: 0 at or above threshold, else 1."""
    return 0.0 if effective_snr_db >= entry.snr_threshold_db else 1.0


@dataclass(frozen=True)
class RateDecision:
    """Outcome of rate selection for one UE at one distance."""

    mcs_index: int
    num_rbs: int
    effective_snr_db: float
    bler: float
    throughput_bps: float
    outage: bool = False


def select_rates(lm: LinkModel, distances_m, gain_row, available_rbs,
                 mcs_table: McsTable, scs_hz: float, slot_duty: float,
                 eesm_betas=None) -> list:
    """Best feasible (MCS, RB count) among the available RBs, per distance.

    Allocations use the n highest-gain RBs for n from 4 up to the available
    count, with transmit power split evenly. A pair is feasible when the
    EESM effective SNR meets the MCS threshold; candidates are ranked by
    throughput SE*n*12*scs*slot_duty, ties broken toward the higher MCS and
    then the smaller allocation. A distance where nothing with at least 4
    RBs is feasible gets an outage decision (mcs -1, zero throughput,
    BLER 1). Returns one RateDecision per distance, in the given order; all
    distances are searched in one batched scan, and each decision equals
    the one-distance ``select_rate`` result.
    """
    if not 0.0 < slot_duty <= 1.0:
        raise ValueError("slot_duty must lie in (0, 1]")
    gains = np.asarray(gain_row, dtype=np.float64)
    avail = np.asarray(available_rbs, dtype=np.int64)
    if avail.size == 0:
        raise ValueError("available_rbs must be non-empty")
    dists = np.asarray(distances_m, dtype=np.float64)
    if dists.ndim != 1:
        raise ValueError("distances_m must be a 1-D sequence")
    if eesm_betas is None:
        betas = np.ones(len(mcs_table))
    else:
        betas = np.asarray(eesm_betas, dtype=np.float64)
        if betas.size != len(mcs_table) or np.any(betas <= 0.0):
            raise ValueError("eesm_betas must be positive, one per MCS level")

    # per-RB SNR with the whole budget on one RB; splitting divides by n.
    # Built in place, so one rings x RBs array is ever allocated, and sorted
    # descending per row as the negated values sorted ascending.
    link_db = np.array([lm.ue_tx_power_dbm + lm.ue_beam_gain_db
                        + path_gain_db(lm, float(d)) for d in dists])
    unsplit_lin = link_db[:, None] + gains[avail]
    unsplit_lin -= noise_power_dbm_per_rb(lm, scs_hz)
    unsplit_lin /= 10.0
    np.power(10.0, unsplit_lin, out=unsplit_lin)
    np.negative(unsplit_lin, out=unsplit_lin)
    unsplit_lin.sort(axis=1)
    np.negative(unsplit_lin, out=unsplit_lin)

    unique_betas, beta_idx = np.unique(betas, return_inverse=True)
    thr_lin = np.power(10.0, mcs_table.thresholds_db() / 10.0)
    se = mcs_table.spectral_efficiencies()

    best_n, best_mcs, best_eff_lin, best_se_n = _kernels.rate_scan_batch(
        unsplit_lin, thr_lin, se, unique_betas,
        beta_idx.astype(np.int64), MIN_RBS_PER_GRANT)

    # diagnostic effective SNR of every outage: the most concentrated
    # allowed allocation
    outages = np.flatnonzero(best_mcs < 0)
    n_diag = min(MIN_RBS_PER_GRANT, int(avail.size))
    diag_db = iter(_eesm_effective_snr_db_rows(
        10.0 * np.log10(unsplit_lin[outages, :n_diag] / n_diag),
        float(betas[0])))

    decisions = []
    for r in range(dists.size):
        if best_mcs[r] < 0:
            decisions.append(RateDecision(
                mcs_index=-1, num_rbs=0, effective_snr_db=next(diag_db),
                bler=1.0, throughput_bps=0.0, outage=True))
            continue
        throughput = best_se_n[r] * 12.0 * scs_hz * slot_duty
        decisions.append(RateDecision(
            mcs_index=int(best_mcs[r]), num_rbs=int(best_n[r]),
            effective_snr_db=10.0 * math.log10(best_eff_lin[r]),
            bler=0.0, throughput_bps=float(throughput), outage=False))
    return decisions


def select_rate(lm: LinkModel, distance_m: float, beam_gain_db_per_rb,
                available_rbs, mcs_table: McsTable, scs_hz: float,
                slot_duty: float, eesm_betas=None) -> RateDecision:
    """``select_rates`` at a single distance."""
    return select_rates(lm, [distance_m], beam_gain_db_per_rb, available_rbs,
                        mcs_table, scs_hz, slot_duty, eesm_betas)[0]
