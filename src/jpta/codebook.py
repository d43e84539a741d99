"""Beam design: wideband multi-direction fits, rainbow sweeps, flat codebooks.

Two designers produce PhaseTimeWeights:

* design_type1 fits the per-element phase shifter and quantized delay to a
  frequency-dependent steering target (different pointing angle per RB
  subband) by exhaustive per-antenna search over the delay grid.
* design_type2 is the closed-form rainbow ramp: a linear delay ramp sweeps
  the beam across a requested angular spread as frequency moves through the
  band, with the phase shifter compensating the delay phase at band center.

A conventional phased-array codebook (frequency-flat beams on an angular
grid) is provided for the benchmark scheme.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .antenna import (
    SPEED_OF_LIGHT_M_S,
    ArrayConfig,
    FrequencyGrid,
    PhaseTimeWeights,
    read_indexed_csv,
    require_finite_fields,
    require_range,
)

DEFAULT_DELAY_STEP_S = 2.5e-9
# six-bit delay line: 63 steps of 2.5 ns
DEFAULT_MAX_DELAY_S = 157.5e-9
# physical range of a delay line: at most 1 us and 1024 steps (ten bits)
MAX_DELAY_S = 1e-6
MAX_DELAY_STEPS = 1024
# benchmark codebook size cap, far above the 16 beams of every study
MAX_PAA_BEAMS = 1024

CODEBOOK_CSV_HEADER = ("antenna", "delay_ns", "phase_deg")


@dataclass(frozen=True)
class Type1Target:
    """Per-subband steering target: ordered (angle, rb_range) entries.

    Each entry steers the RBs in the half-open range [start, stop) toward an
    axis angle. Ranges must start at 0, be contiguous and disjoint; together
    they cover [0, num_rbs) exactly.
    """

    entries: tuple

    def __post_init__(self):
        if len(self.entries) == 0:
            raise ValueError("Type1Target needs at least one entry")
        expected_start = 0
        for angle, (start, stop) in self.entries:
            if not (0.0 <= angle <= math.pi):
                raise ValueError("target angle %r outside [0, pi]" % (angle,))
            if start != expected_start:
                raise ValueError(
                    "rb ranges must be contiguous from 0; got start %d, "
                    "expected %d" % (start, expected_start))
            if stop <= start:
                raise ValueError("rb range [%d, %d) is empty" % (start, stop))
            expected_start = stop
        object.__setattr__(self, "entries", tuple(
            (float(a), (int(s), int(t))) for a, (s, t) in self.entries))

    @property
    def num_rbs(self) -> int:
        return self.entries[-1][1][1]

    @classmethod
    def equal_shares(cls, angles_rad, num_rbs: int) -> "Type1Target":
        """Split num_rbs into equal contiguous shares in the given angle
        order; remainder RBs go to the last entry."""
        angles = [float(a) for a in angles_rad]
        if len(angles) == 0:
            raise ValueError("angles_rad must be non-empty")
        if num_rbs < len(angles):
            raise ValueError("fewer RBs than target angles")
        share = num_rbs // len(angles)
        entries = []
        start = 0
        for i, angle in enumerate(angles):
            stop = start + share if i < len(angles) - 1 else num_rbs
            entries.append((angle, (start, stop)))
            start = stop
        return cls(tuple(entries))

    def rb_angles(self, num_rbs: int) -> np.ndarray:
        """Target axis angle per RB index; validates full coverage."""
        if self.num_rbs != num_rbs:
            raise ValueError(
                "target covers %d RBs but grid has %d" % (self.num_rbs, num_rbs))
        out = np.empty(num_rbs, dtype=np.float64)
        for angle, (start, stop) in self.entries:
            out[start:stop] = angle
        return out


@dataclass(frozen=True)
class RainbowSpec:
    """Swept-beam request: center axis angle and total angular spread."""

    center_rad: float
    spread_rad: float

    def __post_init__(self):
        if self.spread_rad < 0.0:
            raise ValueError("spread_rad must be nonnegative")
        lo = self.center_rad - self.spread_rad / 2.0
        hi = self.center_rad + self.spread_rad / 2.0
        if lo < -1e-12 or hi > math.pi + 1e-12:
            raise ValueError("swept interval must stay within [0, pi]")


@dataclass(frozen=True)
class DelayConstraint:
    """Quantized delay line: grid {0, step, 2*step, ...} capped at max."""

    step_s: float = DEFAULT_DELAY_STEP_S
    max_delay_s: float = DEFAULT_MAX_DELAY_S

    def __post_init__(self):
        require_finite_fields(self)
        if not self.step_s > 0.0:
            raise ValueError("step_s must be positive")
        # the 1e-9 relative slack admits a decimal 1000 ns, as in num_steps
        require_range(self, "max_delay_s", 0.0, MAX_DELAY_S * (1.0 + 1e-9))
        # the ratio test first keeps num_steps' floor finite
        if not (self.max_delay_s / self.step_s < MAX_DELAY_STEPS + 1
                and self.num_steps <= MAX_DELAY_STEPS):
            raise ValueError("step_s must split max_delay_s into at most %d "
                             "steps" % MAX_DELAY_STEPS)

    @property
    def num_steps(self) -> int:
        # largest k with k*step <= max (small tolerance for decimal inputs)
        return int(math.floor(self.max_delay_s / self.step_s + 1e-9))

    def grid(self) -> np.ndarray:
        return np.arange(self.num_steps + 1, dtype=np.float64) * self.step_s


def steer_weights(cfg: ArrayConfig, angle_rad: float) -> PhaseTimeWeights:
    """Frequency-flat steering weights toward an axis angle (delays zero)."""
    if not (0.0 <= angle_rad <= math.pi):
        raise ValueError("angle_rad must lie in [0, pi]")
    m = np.arange(cfg.num_elements, dtype=np.float64)
    slope = 2.0 * math.pi * cfg.spacing_m * math.cos(angle_rad) / cfg.wavelength_m
    return PhaseTimeWeights(delays_s=np.zeros(cfg.num_elements),
                            phases_rad=slope * m, delay_step_s=0.0)


def design_type2(cfg: ArrayConfig, spec: RainbowSpec,
                 grid: FrequencyGrid) -> PhaseTimeWeights:
    """Closed-form rainbow design sweeping spread_rad across the band.

    Delays ramp linearly over the elements, tau_m = m*sin(spread/2)/W with W
    the total bandwidth, so the pointing angle moves monotonically with
    frequency and covers the requested spread. Phases steer the band center
    toward center_rad and compensate the delay phase at the band center so
    the mid-band beam actually points at center_rad.
    """
    m = np.arange(cfg.num_elements, dtype=np.float64)
    delays = m * (math.sin(spec.spread_rad / 2.0) / grid.bandwidth_hz)
    steer_slope = 2.0 * math.pi * cfg.spacing_m \
        * math.cos(spec.center_rad) / cfg.wavelength_m
    phases = steer_slope * m - 2.0 * math.pi * grid.center_hz * delays
    return PhaseTimeWeights(delays_s=delays, phases_rad=phases,
                            delay_step_s=0.0)


def _eval_freqs(grid: FrequencyGrid, per_subcarrier: bool) -> np.ndarray:
    """Evaluation frequencies of the type-1 fit: RB centers or subcarriers."""
    return grid.subcarrier_freqs() if per_subcarrier \
        else grid.rb_center_freqs()


def _target_slopes(cfg: ArrayConfig, target: Type1Target, grid: FrequencyGrid,
                   per_subcarrier: bool):
    """Evaluation frequencies and per-element target phase slopes."""
    freqs = _eval_freqs(grid, per_subcarrier)
    angles = np.repeat(target.rb_angles(grid.num_rbs),
                       freqs.size // grid.num_rbs)
    slopes = 2.0 * math.pi * cfg.spacing_m * freqs * np.cos(angles) \
        / SPEED_OF_LIGHT_M_S
    return freqs, slopes


# keyed by the frozen constraint and grid and the mode: the last two tables
# used stay resident, so designs alternating between the two modes build
# each once; the per-subcarrier table of a 264-RB grid takes 3.2 MB
@functools.lru_cache(maxsize=2)
def _delay_twiddles(constraint: DelayConstraint, grid: FrequencyGrid,
                    per_subcarrier: bool) -> np.ndarray:
    """Read-only ``_kernels.delay_twiddles`` table of the delay grid at the
    evaluation frequencies."""
    table = _kernels.delay_twiddles(constraint.grid(),
                                    _eval_freqs(grid, per_subcarrier))
    table.flags.writeable = False
    return table


def design_type1(cfg: ArrayConfig, target: Type1Target, grid: FrequencyGrid,
                 constraint: DelayConstraint,
                 per_subcarrier: bool = False):
    """Least-squares fit of phase-plus-delay weights to a subband target.

    The squared error sum_k ||response(f_k) - steering(angle_k, f_k)||^2
    separates per antenna; for each antenna the best quantized delay
    maximizes |S_m(tau)| = |sum_k exp(j(m*slope_k - 2*pi*f_k*tau))| over the
    delay grid (ties resolve to the smallest delay) and the optimal phase is
    the argument of S_m at that delay. Evaluation runs at RB centers by
    default, or every subcarrier with per_subcarrier=True.

    Returns (weights, achieved objective). With that phase antenna m adds
    (2K - 2|S_m|)/M over the K evaluation frequencies to the objective.
    """
    freqs, slopes = _target_slopes(cfg, target, grid, per_subcarrier)
    taus = constraint.grid()
    scores = _kernels.delay_scan(
        slopes, _delay_twiddles(constraint, grid, per_subcarrier),
        cfg.num_elements)
    best = np.argmax(np.abs(scores), axis=0)
    fitted = scores[best, np.arange(cfg.num_elements)]
    weights = PhaseTimeWeights(delays_s=taus[best],
                               phases_rad=np.angle(fitted),
                               delay_step_s=constraint.step_s)
    objective = 2.0 * freqs.size \
        - 2.0 / cfg.num_elements * float(np.sum(np.abs(fitted)))
    return weights, objective


def type1_objective(cfg: ArrayConfig, weights: PhaseTimeWeights,
                    target: Type1Target, grid: FrequencyGrid,
                    per_subcarrier: bool = False) -> float:
    """Achieved sum of squared distances to the target steering vectors."""
    freqs, slopes = _target_slopes(cfg, target, grid, per_subcarrier)
    m = np.arange(cfg.num_elements, dtype=np.float64)
    steer = np.exp(1j * slopes[:, None] * m[None, :])
    resp = np.exp(1j * (weights.phases_rad[None, :]
                        + 2.0 * math.pi * freqs[:, None] * weights.delays_s[None, :]))
    diff = (resp - steer) / math.sqrt(cfg.num_elements)
    return float(np.sum(np.abs(diff) ** 2))


def quantize_delays(weights: PhaseTimeWeights,
                    constraint: DelayConstraint) -> PhaseTimeWeights:
    """Round delays to the nearest grid point (ties toward the smaller
    multiple) and clamp into [0, max_delay_s]. Phases pass through."""
    ratio = weights.delays_s / constraint.step_s
    steps = np.ceil(ratio - 0.5)  # nearest integer, half-way cases go down
    steps = np.clip(steps, 0, constraint.num_steps)
    return PhaseTimeWeights(delays_s=steps * constraint.step_s,
                            phases_rad=weights.phases_rad.copy(),
                            delay_step_s=constraint.step_s)


def paa_codebook(cfg: ArrayConfig, num_beams: int, sector_rad) -> list:
    """Frequency-flat beam codebook over an axis-angle sector.

    The sector is split into num_beams equal angular slices and one beam is
    steered at each slice center. Beams are ordered by ascending
    boresight-relative angle (descending axis angle).
    """
    lo, hi = float(sector_rad[0]), float(sector_rad[1])
    if not 1 <= num_beams <= MAX_PAA_BEAMS:
        raise ValueError("num_beams must lie in [1, %d], got %s"
                         % (MAX_PAA_BEAMS, num_beams))
    if not (0.0 <= lo < hi <= math.pi):
        raise ValueError("sector must satisfy 0 <= lo < hi <= pi")
    width = (hi - lo) / num_beams
    centers = hi - (np.arange(num_beams) + 0.5) * width
    return [steer_weights(cfg, float(c)) for c in centers]


def export_codebook_csv(weights: PhaseTimeWeights, path) -> None:
    """Write one row per element: antenna (1-based), delay_ns, phase_deg.

    Values carry six significant digits.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CODEBOOK_CSV_HEADER)
        for i in range(weights.num_elements):
            writer.writerow([
                i + 1,
                "%.6g" % (weights.delays_s[i] * 1e9),
                "%.6g" % math.degrees(weights.phases_rad[i]),
            ])


def import_codebook_csv(path) -> PhaseTimeWeights:
    """Read a codebook written by export_codebook_csv; every error names
    the file.

    Imported weights carry delay_step_s = 0: the file format does not record
    the quantization step.
    """
    delays = []
    phases = []
    for line, idx, (delay_ns, phase_deg) in read_indexed_csv(
            path, CODEBOOK_CSV_HEADER):
        if idx != len(delays) + 1:
            raise ValueError("%s line %d: antenna indices must run 1..M in "
                             "order; got %d" % (path, line, idx))
        delays.append(delay_ns * 1e-9)
        phases.append(math.radians(phase_deg))
    if not delays:
        raise ValueError("codebook file %s has no element rows" % (path,))
    try:
        return PhaseTimeWeights(delays_s=np.array(delays),
                                phases_rad=np.array(phases), delay_step_s=0.0)
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc))
