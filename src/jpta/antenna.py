"""Uniform linear array geometry, phase-time weights and their gains.

Angle convention: internal angles are measured from the array axis in radians,
so boresight is pi/2 and the element-m phase of a plane wave at frequency f is
2*pi*(m)*spacing*f*cos(angle)/c with m = 0..M-1. User-facing interfaces speak
boresight-relative degrees in [-90, +90]; the mapping is
axis_angle = pi/2 - boresight_angle, hence cos(axis) = sin(boresight).

A gain is the correlation of two unit-norm vectors, per entry of
magnitude 1/sqrt(M): the steering vector of a plane wave and the phase-time
response exp(j*(phi_m + 2*pi*f*tau_m))/sqrt(M), the phase shifter flat in
frequency and the true-time delay linear in it. Every gain, one cell or a
whole map, comes from one pattern kernel call (``serving_gain_db``);
``tests/oracles.py`` builds both vectors as the reference it is checked
against.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import _kernels

SPEED_OF_LIGHT_M_S = 299_792_458.0

# correlations below this floor are clamped, putting a -80 dB floor on the
# beam gain relative to the array peak
CORRELATION_FLOOR = 1e-4

_ANGLE_TOL_RAD = 1e-12

# Physical ranges of the link-budget inputs. Inside them every per-RB SNR
# stays within about +-1300 dB, so its linear value is a normal float64.
CARRIER_RANGE_HZ = (1e8, 1e12)
GAIN_RANGE_DB = (-100.0, 100.0)
MAX_SPACING_M = 10.0
SCS_RANGE_HZ = (1e3, 1e9)
# size caps, so that no array or grid the config accepts allocates more than
# a machine holds: far above the 16 elements of every study, and nearly four
# times the 275 RBs of the widest NR carrier
MAX_NUM_ELEMENTS = 1024
MAX_NUM_RBS = 1024


def require_finite_fields(obj) -> None:
    """Raise ValueError naming the first field of dataclass ``obj`` whose
    value is not a finite number. Python ints are exact, hence finite, even
    past the float range."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not (isinstance(value, int) or math.isfinite(value)):
            raise ValueError("%s must be finite" % f.name)


def require_range(obj, name: str, lo: float, hi: float) -> None:
    """Raise ValueError naming field ``name`` of ``obj`` when its value lies
    outside [lo, hi]."""
    value = getattr(obj, name)
    if not lo <= value <= hi:
        raise ValueError("%s must lie in [%g, %g], got %s" % (
            name, lo, hi, value if isinstance(value, int) else "%g" % value))


def read_indexed_csv(path, header) -> list:
    """Rows ``(line, index, values)`` of a CSV file headed by ``header``: an
    integer index in the first column, finite numbers in the others. Blank
    rows are skipped; every error names the file and the line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise ValueError("%s is empty" % (path,))
        if tuple(h.strip() for h in first) != header:
            raise ValueError("%s line 1: header must be %s"
                             % (path, ",".join(header)))
        rows = []
        for row in reader:
            if not row:
                continue
            where = "%s line %d" % (path, reader.line_num)
            if len(row) != len(header):
                raise ValueError("%s: row %r must have %d fields"
                                 % (where, row, len(header)))
            try:
                index, values = int(row[0]), tuple(map(float, row[1:]))
                finite = all(map(math.isfinite, values))
            except ValueError:
                finite = False
            if not finite:
                raise ValueError("%s: expected an integer %s and finite "
                                 "numbers, got %r" % (where, header[0], row))
            rows.append((reader.line_num, index, values))
    return rows


def axis_from_boresight_rad(boresight_rad: float):
    """Convert a boresight-relative angle (radians) to an axis angle."""
    return math.pi / 2.0 - boresight_rad


def axis_from_boresight_deg(boresight_deg: float):
    return math.pi / 2.0 - math.radians(boresight_deg)


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
        require_range(self, "num_elements", 1, MAX_NUM_ELEMENTS)
        # the carrier first: an automatic spacing is half its wavelength
        require_range(self, "carrier_hz", *CARRIER_RANGE_HZ)
        if not self.spacing_m > 0.0:
            raise ValueError("spacing_m must be positive")
        require_range(self, "spacing_m", 0.0, MAX_SPACING_M)
        require_range(self, "peak_gain_db", *GAIN_RANGE_DB)

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.carrier_hz

    @classmethod
    def half_wavelength(cls, num_elements: int, carrier_hz: float,
                        peak_gain_db: float = 28.0) -> "ArrayConfig":
        """Array with the default half-wavelength spacing at the carrier."""
        # built first at a unit spacing, so the carrier is checked before
        # its wavelength is taken
        array = cls(num_elements, 1.0, carrier_hz, peak_gain_db)
        return replace(array, spacing_m=array.wavelength_m / 2.0)


@dataclass(frozen=True)
class FrequencyGrid:
    """OFDM frequency layout: subcarriers grouped into 12-subcarrier RBs."""

    center_hz: float
    bandwidth_hz: float
    scs_hz: float
    num_rbs: int

    def __post_init__(self):
        require_finite_fields(self)
        if not self.bandwidth_hz > 0.0:
            raise ValueError("bandwidth_hz must be positive")
        if not self.center_hz > self.bandwidth_hz / 2.0:
            raise ValueError("bandwidth_hz, center_hz: center_hz must "
                             "exceed bandwidth_hz / 2: the band may not "
                             "reach 0 Hz")
        require_range(self, "center_hz", *CARRIER_RANGE_HZ)
        require_range(self, "scs_hz", *SCS_RANGE_HZ)
        require_range(self, "num_rbs", 1, MAX_NUM_RBS)
        occupied = self.num_rbs * 12 * self.scs_hz
        if occupied > self.bandwidth_hz * (1.0 + 1e-12):
            raise ValueError(
                "bandwidth_hz, scs_hz, num_rbs: occupied bandwidth %.6g Hz "
                "exceeds bandwidth_hz %.6g Hz" % (occupied, self.bandwidth_hz))

    @property
    def num_subcarriers(self) -> int:
        return 12 * self.num_rbs

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
        # array methods: a codebook validates one set per beam
        if not (np.isfinite(delays).all() and np.isfinite(phases).all()):
            raise ValueError("weights must be finite")
        if (delays < 0.0).any():
            raise ValueError("delays_s must be nonnegative")
        if not math.isfinite(self.delay_step_s):
            raise ValueError("delay_step_s must be finite")
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


def beam_gain_db(cfg: ArrayConfig, weights: PhaseTimeWeights,
                 angle_rad: float, freq_hz: float) -> float:
    """Realized gain toward an axis angle at one frequency, in dB: the
    one-cell ``serving_gain_db``, peak_gain_db plus 20*log10 of the
    correlation between the unit-norm steering vector and the unit-norm
    phase-time response; correlations below 1e-4 are floored, which caps
    the loss at 80 dB below peak."""
    _check_angle(angle_rad)
    if not freq_hz > 0.0:
        raise ValueError("freq_hz must be positive")
    return float(serving_gain_db(cfg, [weights], [0], np.cos([angle_rad]),
                                 [freq_hz])[0, 0])


def pattern_map(cfg: ArrayConfig, weights: PhaseTimeWeights,
                angle_grid_rad: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """Gain map over an angle grid and the RB centers of a frequency grid.

    Returns shape (num_angles, num_rbs); entry (i, r) is the beam gain in dB
    at angle_grid_rad[i] and the center frequency of RB r. Rows follow the
    given angle order, in any order and with repeats, each evaluated on its
    own; columns are RB index 0..num_rbs-1.
    """
    angles = np.asarray(angle_grid_rad, dtype=np.float64)
    if angles.ndim != 1 or angles.size == 0:
        raise ValueError("angle_grid_rad must be a non-empty 1-D array")
    # a NaN angle is outside too
    outside = ~((angles >= -_ANGLE_TOL_RAD)
                & (angles <= math.pi + _ANGLE_TOL_RAD))
    if outside.any():
        _check_angle(angles[outside][0])
    return serving_gain_db(cfg, [weights], np.zeros(angles.size, dtype=int),
                           np.cos(angles), grid.rb_center_freqs())


def serving_gain_db(cfg: ArrayConfig, weight_sets, serving, cos_angles,
                    freqs) -> np.ndarray:
    """Gain in dB, shape (angles, freqs): row a is the gain of
    ``weight_sets[serving[a]]`` toward the axis angle of cosine
    ``cos_angles[a]``, bit for bit its one-angle ``pattern_map`` row at
    ``freqs``. ``serving`` must hold one index per angle, and each must
    name a set: negative ones are rejected too.

    One ``_kernels.pattern_corr`` call: the coefficient tables of every set
    are built in one ``_kernels.pattern_coefficients`` pass, one column
    wide when none of them has a delay, and each row names its set's table
    by its ``serving`` index. Each gain is peak_gain_db plus 20*log10 of
    the correlation floored at CORRELATION_FLOOR, each step taken in place
    by the kernel on each chunk it computes."""
    for w in weight_sets:
        if w.num_elements != cfg.num_elements:
            raise ValueError("weights length does not match cfg.num_elements")
    serving = np.asarray(serving)
    if serving.shape != np.shape(cos_angles):
        raise ValueError("serving must hold one index per angle, got shape "
                         "%s for angles of shape %s"
                         % (serving.shape, np.shape(cos_angles)))
    bad = serving[(serving < 0) | (serving >= len(weight_sets))]
    if bad.size:
        raise ValueError("serving indices must lie in [0, %d), got %d"
                         % (len(weight_sets), bad[0]))
    split = _kernels.phasor_split(
        2.0 * math.pi * cfg.spacing_m / SPEED_OF_LIGHT_M_S, freqs)
    coef = _kernels.pattern_coefficients(
        split, [w.phases_rad for w in weight_sets],
        [w.delays_s for w in weight_sets])
    return _kernels.pattern_corr(cos_angles, split, coef, serving,
                                 (CORRELATION_FLOOR, cfg.peak_gain_db))
