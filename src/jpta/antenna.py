"""Uniform linear array geometry, steering vectors, and phase-time responses.

Angle convention: internal angles are measured from the array axis in radians,
so boresight is pi/2 and the element-m phase of a plane wave at frequency f is
2*pi*(m)*spacing*f*cos(angle)/c with m = 0..M-1. User-facing interfaces speak
boresight-relative degrees in [-90, +90]; the mapping is
axis_angle = pi/2 - boresight_angle, hence cos(axis) = sin(boresight).

All weight vectors are normalized by 1/sqrt(M) so steering vectors and
phase-time responses have unit norm and per-entry magnitude 1/sqrt(M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import _kernels

SPEED_OF_LIGHT_M_S = 299_792_458.0

# correlations below this floor are clamped, putting a -80 dB floor on the
# beam gain relative to the array peak
CORRELATION_FLOOR = 1e-4

_ANGLE_TOL_RAD = 1e-12


def require_finite_fields(obj) -> None:
    """Raise ValueError naming the first field of dataclass ``obj`` whose
    value is not a finite number."""
    for f in fields(obj):
        if not math.isfinite(getattr(obj, f.name)):
            raise ValueError("%s must be finite" % f.name)


def axis_from_boresight_rad(boresight_rad: float):
    """Convert a boresight-relative angle (radians) to an axis angle."""
    return math.pi / 2.0 - boresight_rad


def axis_from_boresight_deg(boresight_deg: float):
    return math.pi / 2.0 - math.radians(boresight_deg)


def boresight_deg_from_axis(axis_rad: float):
    return 90.0 - math.degrees(axis_rad)


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array at a fixed carrier.

    Attributes:
        num_elements: element count M, one phase shifter and one delay per
            element.
        spacing_m: inter-element spacing in meters.
        carrier_hz: carrier frequency used for wavelength-based defaults.
        peak_gain_db: broadside array gain when a beam points exactly at the
            evaluation direction.
    """

    num_elements: int
    spacing_m: float
    carrier_hz: float
    peak_gain_db: float = 28.0

    def __post_init__(self):
        require_finite_fields(self)
        if self.num_elements < 1:
            raise ValueError("num_elements must be >= 1")
        if not self.spacing_m > 0.0:
            raise ValueError("spacing_m must be positive")
        if not self.carrier_hz > 0.0:
            raise ValueError("carrier_hz must be positive")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.carrier_hz

    @classmethod
    def half_wavelength(cls, num_elements: int, carrier_hz: float,
                        peak_gain_db: float = 28.0) -> "ArrayConfig":
        """Array with the default half-wavelength spacing at the carrier."""
        spacing = SPEED_OF_LIGHT_M_S / carrier_hz / 2.0
        return cls(num_elements, spacing, carrier_hz, peak_gain_db)


@dataclass(frozen=True)
class FrequencyGrid:
    """OFDM frequency layout: subcarriers grouped into 12-subcarrier RBs."""

    center_hz: float
    bandwidth_hz: float
    scs_hz: float
    num_rbs: int

    def __post_init__(self):
        require_finite_fields(self)
        if not self.center_hz > 0.0:
            raise ValueError("center_hz must be positive")
        if not self.bandwidth_hz > 0.0:
            raise ValueError("bandwidth_hz must be positive")
        if not self.scs_hz > 0.0:
            raise ValueError("scs_hz must be positive")
        if self.num_rbs < 1:
            raise ValueError("num_rbs must be >= 1")
        occupied = self.num_rbs * 12 * self.scs_hz
        if occupied > self.bandwidth_hz * (1.0 + 1e-12):
            raise ValueError(
                "occupied bandwidth %.6g Hz exceeds bandwidth_hz %.6g Hz"
                % (occupied, self.bandwidth_hz))

    @property
    def num_subcarriers(self) -> int:
        return 12 * self.num_rbs

    @property
    def rb_bandwidth_hz(self) -> float:
        return 12.0 * self.scs_hz

    def subcarrier_freqs(self) -> np.ndarray:
        """Absolute subcarrier frequencies, strictly increasing, symmetric
        about center_hz."""
        k = np.arange(self.num_subcarriers, dtype=np.float64)
        return self.center_hz - (self.num_subcarriers / 2.0 - k - 0.5) * self.scs_hz

    def rb_center_freqs(self) -> np.ndarray:
        """Mean subcarrier frequency of each RB, strictly increasing."""
        r = np.arange(self.num_rbs, dtype=np.float64)
        return self.center_hz - (self.num_subcarriers / 2.0 - 12.0 * r - 6.0) * self.scs_hz


@dataclass
class PhaseTimeWeights:
    """Per-element phase shifter and true-time-delay settings.

    phases_rad are stored wrapped to [0, 2*pi). delays_s must be nonnegative;
    when delay_step_s > 0 every delay must sit on the quantized grid to within
    1e-15 s.
    """

    delays_s: np.ndarray
    phases_rad: np.ndarray
    delay_step_s: float = 0.0

    def __post_init__(self):
        delays = np.array(self.delays_s, dtype=np.float64)
        phases = np.array(self.phases_rad, dtype=np.float64)
        if delays.ndim != 1 or phases.ndim != 1:
            raise ValueError("delays_s and phases_rad must be 1-D")
        if delays.size != phases.size:
            raise ValueError("delays_s and phases_rad must have equal length")
        if delays.size == 0:
            raise ValueError("weights must cover at least one element")
        if not np.all(np.isfinite(delays)) or not np.all(np.isfinite(phases)):
            raise ValueError("weights must be finite")
        if np.any(delays < 0.0):
            raise ValueError("delays_s must be nonnegative")
        if self.delay_step_s < 0.0:
            raise ValueError("delay_step_s must be nonnegative")
        if self.delay_step_s > 0.0:
            steps = np.round(delays / self.delay_step_s)
            if np.any(np.abs(delays - steps * self.delay_step_s) > 1e-15):
                raise ValueError(
                    "delays_s must be multiples of delay_step_s within 1e-15 s")
        phases = np.mod(phases, 2.0 * math.pi)
        self.delays_s = delays
        self.phases_rad = phases

    @property
    def num_elements(self) -> int:
        return int(self.delays_s.size)


def _check_angle(angle_rad: float):
    if not (-_ANGLE_TOL_RAD <= angle_rad <= math.pi + _ANGLE_TOL_RAD):
        raise ValueError("angle_rad must lie in [0, pi] (axis convention)")


def _check_freq(freq_hz: float):
    if not freq_hz > 0.0:
        raise ValueError("freq_hz must be positive")


def steering_vector(cfg: ArrayConfig, angle_rad: float,
                    freq_hz: float) -> np.ndarray:
    """Unit-norm array response of a plane wave from the given axis angle.

    Entry m is (1/sqrt(M)) * exp(j*2*pi*m*spacing*freq*cos(angle)/c).
    """
    _check_angle(angle_rad)
    _check_freq(freq_hz)
    m = np.arange(cfg.num_elements, dtype=np.float64)
    slope = 2.0 * math.pi * cfg.spacing_m * freq_hz * math.cos(angle_rad) \
        / SPEED_OF_LIGHT_M_S
    return np.exp(1j * slope * m) / math.sqrt(cfg.num_elements)


def jpta_response(cfg: ArrayConfig, weights: PhaseTimeWeights,
                  freq_hz: float) -> np.ndarray:
    """Array weight vector realized at one frequency.

    Entry m is (1/sqrt(M)) * exp(j*(phi_m + 2*pi*freq*tau_m)): the phase
    shifter is frequency flat, the true-time-delay element contributes a
    phase linear in absolute frequency.
    """
    _check_freq(freq_hz)
    if weights.num_elements != cfg.num_elements:
        raise ValueError("weights length does not match cfg.num_elements")
    phase = weights.phases_rad + 2.0 * math.pi * freq_hz * weights.delays_s
    return np.exp(1j * phase) / math.sqrt(cfg.num_elements)


def beam_gain_db(cfg: ArrayConfig, weights: PhaseTimeWeights,
                 angle_rad: float, freq_hz: float) -> float:
    """Realized gain toward an axis angle at one frequency, in dB.

    peak_gain_db plus 20*log10 of the correlation between the steering
    vector and the response; correlations below 1e-4 are floored, which caps
    the loss at 80 dB below peak. Never exceeds peak_gain_db.
    """
    steer = steering_vector(cfg, angle_rad, freq_hz)
    resp = jpta_response(cfg, weights, freq_hz)
    corr = abs(np.vdot(steer, resp))
    return cfg.peak_gain_db + 20.0 * math.log10(max(corr, CORRELATION_FLOOR))


def pattern_map(cfg: ArrayConfig, weights: PhaseTimeWeights,
                angle_grid_rad: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """Gain map over an angle grid and the RB centers of a frequency grid.

    Returns shape (num_angles, num_rbs); entry (i, r) is the beam gain in dB
    at angle_grid_rad[i] and the center frequency of RB r. Rows follow the
    given angle order (strictly increasing axis angles required), columns are
    RB index 0..num_rbs-1.
    """
    angles = np.asarray(angle_grid_rad, dtype=np.float64)
    if angles.ndim != 1 or angles.size == 0:
        raise ValueError("angle_grid_rad must be a non-empty 1-D array")
    if np.any(np.diff(angles) <= 0.0):
        raise ValueError("angle_grid_rad must be strictly increasing")
    for a in (angles[0], angles[-1]):
        _check_angle(a)
    if weights.num_elements != cfg.num_elements:
        raise ValueError("weights length does not match cfg.num_elements")
    freqs = grid.rb_center_freqs()
    slope_scale = 2.0 * math.pi * cfg.spacing_m / SPEED_OF_LIGHT_M_S
    corr = _kernels.pattern_corr(np.cos(angles), freqs, weights.phases_rad,
                                 weights.delays_s, slope_scale)
    corr = np.maximum(corr, CORRELATION_FLOOR)
    return cfg.peak_gain_db + 20.0 * np.log10(corr)
