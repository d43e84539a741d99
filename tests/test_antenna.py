"""Array geometry, the steering and response references, gain maps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpta import _kernels
from jpta.antenna import (
    CORRELATION_FLOOR,
    SPEED_OF_LIGHT_M_S,
    ArrayConfig,
    FrequencyGrid,
    PhaseTimeWeights,
    axis_from_boresight_deg,
    axis_from_boresight_rad,
    beam_gain_db,
    pattern_map,
)
from jpta.codebook import (
    RainbowSpec,
    design_type2,
    paa_codebook,
    steer_weights,
)
from oracles import (
    array_factor,
    beam_gain_db_py,
    db_step_bound,
    jpta_response,
    steering_vector,
)


# ---------------------------------------------------------------------------
# angle conventions
# ---------------------------------------------------------------------------

def test_axis_boresight_round_trip():
    for deg in (-90.0, -30.0, 0.0, 10.0, 90.0):
        axis = axis_from_boresight_deg(deg)
        assert axis == axis_from_boresight_rad(math.radians(deg))
    assert axis_from_boresight_deg(0.0) == pytest.approx(math.pi / 2.0)
    assert axis_from_boresight_rad(math.pi / 2.0) == pytest.approx(0.0)
    # boresight +90 deg maps to axis 0 (array end-fire)
    assert axis_from_boresight_deg(90.0) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# ArrayConfig / FrequencyGrid
# ---------------------------------------------------------------------------

def test_half_wavelength_spacing():
    cfg = ArrayConfig.half_wavelength(16, 28e9, 28.0)
    assert cfg.spacing_m == pytest.approx(SPEED_OF_LIGHT_M_S / 28e9 / 2.0)
    assert cfg.wavelength_m == pytest.approx(SPEED_OF_LIGHT_M_S / 28e9)
    assert cfg.num_elements == 16
    assert cfg.peak_gain_db == 28.0


@pytest.mark.parametrize("kwargs", [
    dict(num_elements=0, spacing_m=1e-3, carrier_hz=1e9),
    dict(num_elements=4, spacing_m=0.0, carrier_hz=1e9),
    dict(num_elements=4, spacing_m=1e-3, carrier_hz=0.0),
])
def test_array_config_validation(kwargs):
    with pytest.raises(ValueError):
        ArrayConfig(**kwargs)


def test_frequency_grid_layout(grid264):
    sc = grid264.subcarrier_freqs()
    assert sc.size == 264 * 12 == grid264.num_subcarriers
    assert np.all(np.diff(sc) > 0.0)
    np.testing.assert_allclose(np.diff(sc), 120e3, rtol=1e-12)
    # symmetric about the center frequency
    assert np.mean(sc) == pytest.approx(28e9, rel=1e-15)
    assert sc[0] == pytest.approx(28e9 - (3168 / 2 - 0.5) * 120e3, rel=1e-15)

    rb = grid264.rb_center_freqs()
    assert rb.size == 264
    assert np.all(np.diff(rb) > 0.0)
    assert rb[0] == pytest.approx(28e9 - (3168 / 2 - 6) * 120e3, rel=1e-15)
    # RB center is the mean of its 12 subcarriers
    np.testing.assert_allclose(rb, sc.reshape(264, 12).mean(axis=1), rtol=1e-12)


def test_frequency_grid_occupancy_check():
    with pytest.raises(ValueError, match="occupied bandwidth"):
        FrequencyGrid(28e9, 400e6, 120e3, 278)  # 278*12*120e3 > 400 MHz
    # 277 RBs occupy 398.88 MHz and fit
    FrequencyGrid(28e9, 400e6, 120e3, 277)


@pytest.mark.parametrize("kwargs", [
    dict(center_hz=0.0, bandwidth_hz=400e6, scs_hz=120e3, num_rbs=1),
    dict(center_hz=28e9, bandwidth_hz=0.0, scs_hz=120e3, num_rbs=1),
    dict(center_hz=28e9, bandwidth_hz=400e6, scs_hz=0.0, num_rbs=1),
    dict(center_hz=28e9, bandwidth_hz=400e6, scs_hz=120e3, num_rbs=0),
    # a band reaching 0 Hz would hold negative RB frequencies
    dict(center_hz=1.0, bandwidth_hz=400e6, scs_hz=120e3, num_rbs=264),
    dict(center_hz=200e6, bandwidth_hz=400e6, scs_hz=120e3, num_rbs=1),
])
def test_frequency_grid_validation(kwargs):
    with pytest.raises(ValueError):
        FrequencyGrid(**kwargs)


# ---------------------------------------------------------------------------
# PhaseTimeWeights
# ---------------------------------------------------------------------------

def test_weights_wrap_and_store():
    w = PhaseTimeWeights(delays_s=np.array([0.0, 2.5e-9]),
                         phases_rad=np.array([-math.pi, 3.0 * math.pi]),
                         delay_step_s=2.5e-9)
    assert w.num_elements == 2
    # phases wrapped into [0, 2*pi)
    np.testing.assert_allclose(w.phases_rad, [math.pi, math.pi], rtol=1e-12)
    assert np.all(w.phases_rad >= 0.0) and np.all(w.phases_rad < 2 * math.pi)


@pytest.mark.parametrize("delays,phases,step", [
    (np.array([[0.0]]), np.array([0.0]), 0.0),          # not 1-D
    (np.array([0.0, 1e-9]), np.array([0.0]), 0.0),      # length mismatch
    (np.array([]), np.array([]), 0.0),                  # empty
    (np.array([-1e-9]), np.array([0.0]), 0.0),          # negative delay
    (np.array([np.nan]), np.array([0.0]), 0.0),         # non-finite
    (np.array([0.0]), np.array([np.inf]), 0.0),         # non-finite phase
    (np.array([1e-9]), np.array([0.0]), -1.0),          # negative step
    (np.array([1.3e-9]), np.array([0.0]), 2.5e-9),      # off the grid
])
def test_weights_validation(delays, phases, step):
    with pytest.raises(ValueError):
        PhaseTimeWeights(delays_s=delays, phases_rad=phases, delay_step_s=step)


def test_weights_on_grid_accepted():
    w = PhaseTimeWeights(delays_s=np.array([0.0, 2.5e-9, 5.0e-9]),
                         phases_rad=np.zeros(3), delay_step_s=2.5e-9)
    assert w.delay_step_s == 2.5e-9


# ---------------------------------------------------------------------------
# the steering and response references of tests/oracles.py
# ---------------------------------------------------------------------------

def test_steering_two_element_boresight_vs_endfire():
    cfg = ArrayConfig.half_wavelength(2, 1e9, 0.0)
    # axis pi/2 (boresight): zero inter-element phase
    v = steering_vector(cfg, math.pi / 2.0, 1e9)
    np.testing.assert_allclose(v, np.full(2, 1 / math.sqrt(2)), rtol=1e-12)
    # axis 0 (end-fire): half-wavelength spacing gives a pi phase step
    v = steering_vector(cfg, 0.0, 1e9)
    np.testing.assert_allclose(v[0], 1 / math.sqrt(2), rtol=1e-12)
    np.testing.assert_allclose(v[1], -1 / math.sqrt(2), rtol=1e-12)


def test_steering_slope_formula():
    cfg = ArrayConfig(num_elements=4, spacing_m=3e-3, carrier_hz=20e9)
    angle, freq = 1.0, 17.3e9
    v = steering_vector(cfg, angle, freq)
    slope = 2 * math.pi * 3e-3 * freq * math.cos(angle) / SPEED_OF_LIGHT_M_S
    expect = np.exp(1j * slope * np.arange(4)) / 2.0
    np.testing.assert_allclose(v, expect, rtol=1e-12)


def test_beam_gain_rejects_an_angle_or_frequency_out_of_range():
    cfg = ArrayConfig.half_wavelength(4, 1e9)
    w = PhaseTimeWeights(delays_s=np.zeros(4), phases_rad=np.zeros(4))
    with pytest.raises(ValueError, match="angle_rad"):
        beam_gain_db(cfg, w, -0.1, 1e9)
    with pytest.raises(ValueError, match="angle_rad"):
        beam_gain_db(cfg, w, math.pi + 0.1, 1e9)
    with pytest.raises(ValueError, match="freq_hz"):
        beam_gain_db(cfg, w, 1.0, 0.0)


def test_response_delay_phase():
    cfg = ArrayConfig.half_wavelength(2, 1e9, 0.0)
    w = PhaseTimeWeights(delays_s=np.array([0.0, 1e-9]),
                         phases_rad=np.zeros(2))
    # 1 ns delay at 500 MHz adds a pi phase
    v = jpta_response(cfg, w, 500e6)
    np.testing.assert_allclose(v[0], 1 / math.sqrt(2), rtol=1e-12)
    np.testing.assert_allclose(v[1], -1 / math.sqrt(2), rtol=1e-12)


def test_beam_gain_rejects_mismatched_weights_or_a_negative_frequency():
    cfg = ArrayConfig.half_wavelength(4, 1e9)
    w = PhaseTimeWeights(delays_s=np.zeros(3), phases_rad=np.zeros(3))
    with pytest.raises(ValueError, match="num_elements"):
        beam_gain_db(cfg, w, 1.0, 1e9)
    w4 = PhaseTimeWeights(delays_s=np.zeros(4), phases_rad=np.zeros(4))
    with pytest.raises(ValueError, match="freq_hz"):
        beam_gain_db(cfg, w4, 1.0, -1.0)


def test_response_frequency_flat_without_delays():
    rng = np.random.default_rng(7)
    cfg = ArrayConfig.half_wavelength(8, 28e9)
    w = PhaseTimeWeights(delays_s=np.zeros(8),
                         phases_rad=rng.uniform(0, 2 * math.pi, 8))
    a = jpta_response(cfg, w, 27.8e9)
    b = jpta_response(cfg, w, 28.2e9)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# beam_gain_db / pattern_map
# ---------------------------------------------------------------------------

def test_matched_beam_hits_peak(array16):
    angle = axis_from_boresight_deg(17.0)
    slope = 2 * math.pi * array16.spacing_m * array16.carrier_hz \
        * math.cos(angle) / SPEED_OF_LIGHT_M_S
    w = PhaseTimeWeights(delays_s=np.zeros(16),
                         phases_rad=slope * np.arange(16))
    assert beam_gain_db(array16, w, angle, 28e9) == pytest.approx(28.0,
                                                                  abs=1e-9)


def test_gain_never_exceeds_peak_and_is_floored(array16):
    rng = np.random.default_rng(11)
    grid = FrequencyGrid(28e9, 400e6, 120e3, 24)
    w = PhaseTimeWeights(delays_s=rng.uniform(0, 20e-9, 16),
                         phases_rad=rng.uniform(0, 2 * math.pi, 16))
    angles = np.linspace(0.1, math.pi - 0.1, 181)
    gains = pattern_map(array16, w, angles, grid)
    assert np.all(gains <= 28.0 + 1e-9)
    assert np.all(gains >= 28.0 + 20 * math.log10(CORRELATION_FLOOR) - 1e-9)


def test_pattern_map_is_the_floored_db_of_the_kernel(array16):
    # the dB step runs on the kernel's sums: every gain lies within
    # db_step_bound of peak + 20 * log10(max(corr, floor)) of the kernel's
    # correlation, and a floored cell is that value, peak - 80 dB, bit for
    # bit
    rng = np.random.default_rng(12)
    grid = FrequencyGrid(28e9, 400e6, 120e3, 24)
    angles = np.linspace(0.1, math.pi - 0.1, 181)  # boresight in the middle
    pair = ArrayConfig.half_wavelength(2, 28e9, 28.0)
    for cfg, w in ((array16, PhaseTimeWeights(
                        delays_s=rng.uniform(0, 20e-9, 16),
                        phases_rad=rng.uniform(0, 2 * math.pi, 16))),
                   # a null at boresight on every RB
                   (pair, PhaseTimeWeights(delays_s=np.zeros(2),
                                           phases_rad=[0.0, math.pi]))):
        split = _kernels.phasor_split(
            2 * math.pi * cfg.spacing_m / SPEED_OF_LIGHT_M_S,
            grid.rb_center_freqs())
        corr = _kernels.pattern_corr(
            np.cos(angles), split,
            _kernels.pattern_coefficients(split, [w.phases_rad],
                                          [w.delays_s]))
        want = cfg.peak_gain_db + 20.0 * np.log10(
            np.maximum(corr, CORRELATION_FLOOR))
        gains = pattern_map(cfg, w, angles, grid)
        assert np.all(np.abs(gains - want)
                      <= db_step_bound(corr, cfg.peak_gain_db,
                                       cfg.num_elements))
        floored = corr < CORRELATION_FLOOR * (1.0 - 1e-9)
        assert np.all(gains[floored] == cfg.peak_gain_db - 80.0)
    assert floored.any()


def test_zero_delay_pattern_map_takes_a_one_column_table(monkeypatch,
                                                        array16, grid264):
    # a set without delays reaches the kernel with its one-column coarse
    # table and one column of zero fine phases, not a coarse table widened
    # to the Q coarse columns, and its map keeps the bits of the kernel's
    # result on the explicitly widened (M, 1, Q) table
    real = _kernels.pattern_corr
    widths = []

    def spy(cos_angles, split, coef, *args):
        widths.append((coef[0].shape[2], coef[1].shape[1]))
        return real(cos_angles, split, coef, *args)

    monkeypatch.setattr(_kernels, "pattern_corr", spy)
    angles = np.linspace(0.02, math.pi - 0.02, 3001)
    freqs = grid264.rb_center_freqs()
    split = _kernels.phasor_split(
        2.0 * math.pi * array16.spacing_m / SPEED_OF_LIGHT_M_S, freqs)
    sector = (axis_from_boresight_deg(60.0), axis_from_boresight_deg(-60.0))
    for w in (steer_weights(array16, math.pi / 2.0),
              paa_codebook(array16, 16, sector)[5]):
        widths.clear()
        gains = pattern_map(array16, w, angles, grid264)
        assert widths == [(1, 1)]
        coarse, fine = _kernels.pattern_coefficients(
            split, [w.phases_rad], [w.delays_s])
        assert fine.shape == (16, 1) and np.all(fine == 0.0)
        widened = np.ascontiguousarray(np.broadcast_to(
            coarse, (16, 1, split.coarse.size)))
        assert widened.shape[2] == 12
        want = real(np.cos(angles), split, (widened, fine), None,
                    (CORRELATION_FLOOR, array16.peak_gain_db))
        assert np.array_equal(gains, want)


def test_pattern_map_matches_beam_gain(array16):
    rng = np.random.default_rng(3)
    grid = FrequencyGrid(28e9, 400e6, 120e3, 12)
    w = PhaseTimeWeights(delays_s=rng.uniform(0, 10e-9, 16),
                         phases_rad=rng.uniform(0, 2 * math.pi, 16))
    angles = np.sort(rng.uniform(0.2, math.pi - 0.2, 9))
    gains = pattern_map(array16, w, angles, grid)
    freqs = grid.rb_center_freqs()
    for i in (0, 4, 8):
        for r in (0, 5, 11):
            ref = beam_gain_db_py(array16, w, float(angles[i]),
                                  float(freqs[r]))
            assert gains[i, r] == pytest.approx(ref, abs=1e-9)


def _array_factor_error_bound(num_elements, coef_arg, slope, psi):
    """Largest gap between the correlation a ``pattern_map`` gain stands
    for and the uniform-array factor at ``psi``, with u = 2**-53 and
    ``coef_arg`` the largest coefficient argument ``|phi_m| + 2*pi*f*|tau_m|``
    of the map and ``slope`` its largest steering slope s(f).

    First order in u, per element term m of the kernel's sum, each term of
    magnitude 1/M: its coefficient argument rounds by 3u*coef_arg; the
    designer's rounding of its phase and delay, against m times element
    1's, by 4u*(m*(slope + 2*pi) + coef_arg + 2*pi); its phasor power by
    m*(8u*slope + 6u). The kernel's sums add 4u*M. The factor's psi rounds by
    4u*(slope + |phi_1| + 2*pi*f*|tau_1|) + 3u*|psi|, its reduction mod
    2*pi included, and moves the factor by at most (M - 1)/2 times that;
    the factor itself rounds by 8u, and the dB round trip of the gain by
    30u of the correlation. Summed with M - 1 < M and (M - 1)*(|phi_1| +
    2*pi*f*|tau_1|) <= coef_arg + 2*pi, every term is covered by
    u*(10*coef_arg + 16*M*(slope + |psi| + 4) + 32)."""
    unit = 2.0 ** -53
    return unit * (10.0 * coef_arg
                   + 16.0 * num_elements * (slope + np.abs(psi) + 4.0) + 32.0)


def _linear_weight_sets():
    """``(cfg, weights)`` of every weight set with linear phases and delays
    that the toolkit designs: ``steer_weights`` and every beam of a 16-beam
    ``paa_codebook`` at 1, 2, 16 and 64 elements, and ``design_type2`` at
    criterion 7's 30, 60 and 110 degree spreads about boresight."""
    sector = (axis_from_boresight_deg(60.0), axis_from_boresight_deg(-60.0))
    for m in (1, 2, 16, 64):
        cfg = ArrayConfig.half_wavelength(m, 28e9, 28.0)
        for w in [steer_weights(cfg, axis_from_boresight_deg(17.0))] \
                + paa_codebook(cfg, 16, sector):
            yield cfg, w
    cfg = ArrayConfig.half_wavelength(16, 28e9, 28.0)
    grid = FrequencyGrid(28e9, 400e6, 120e3, 264)
    for spread in (30.0, 60.0, 110.0):
        yield cfg, design_type2(cfg, RainbowSpec(math.pi / 2.0,
                                                 math.radians(spread)), grid)


def test_pattern_map_of_linear_weights_is_the_array_factor(grid264):
    # weights whose element phases and delays step linearly, phi_m = m *
    # phi_1 and tau_m = m * tau_1, have the closed-form correlation
    # |sin(M psi/2) / (M sin(psi/2))|, psi = s(f) cos(theta) - (phi_1 + 2 pi
    # f tau_1): every cell of the 3001 x 264 map within the derived bound
    angles = np.linspace(0.02, math.pi - 0.02, 3001)
    freqs = grid264.rb_center_freqs()
    worst = 0.0
    for cfg, w in _linear_weight_sets():
        m = cfg.num_elements
        slope = 2.0 * math.pi * cfg.spacing_m * freqs / SPEED_OF_LIGHT_M_S
        step = w.phases_rad[1] + 2.0 * math.pi * freqs * w.delays_s[1] \
            if m > 1 else np.zeros(freqs.size)
        psi = np.cos(angles)[:, None] * slope - step
        want = np.maximum(array_factor(m, psi), CORRELATION_FLOOR)
        gains = pattern_map(cfg, w, angles, grid264)
        corr = 10.0 ** ((gains - cfg.peak_gain_db) / 20.0)
        coef_arg = np.max(np.abs(w.phases_rad)[:, None]
                          + 2.0 * math.pi * freqs * w.delays_s[:, None])
        bound = _array_factor_error_bound(m, coef_arg, slope.max(), psi)
        ratio = np.abs(corr - want) / bound
        assert ratio.max() <= 1.0, (m, ratio.max())
        worst = max(worst, ratio.max())
    assert worst > 0.0


def test_pattern_map_validation(array16, grid264):
    w = PhaseTimeWeights(delays_s=np.zeros(16), phases_rad=np.zeros(16))
    with pytest.raises(ValueError, match="non-empty"):
        pattern_map(array16, w, np.array([]), grid264)
    with pytest.raises(ValueError, match="angle_rad"):
        pattern_map(array16, w, np.array([-0.5, 1.0]), grid264)
    w8 = PhaseTimeWeights(delays_s=np.zeros(8), phases_rad=np.zeros(8))
    with pytest.raises(ValueError, match="num_elements"):
        pattern_map(array16, w8, np.array([1.0, 2.0]), grid264)


@pytest.mark.parametrize("bad", [math.nan, -1e-9, math.pi + 1e-9, 4.0])
def test_pattern_map_rejects_an_interior_angle(array16, grid264, bad):
    # every angle is checked, not only the two ends; a NaN used to give a
    # row of NaN gains
    w = PhaseTimeWeights(delays_s=np.zeros(16), phases_rad=np.zeros(16))
    with pytest.raises(ValueError, match=r"^angle_rad must lie in \[0, pi\]"):
        pattern_map(array16, w, np.array([0.5, bad, 1.5]), grid264)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_pattern_map_rows_follow_any_angle_order(data):
    # each row is evaluated on its own: any order of the grid, repeats
    # included, gives the rows of the ascending evaluation bit for bit
    array = ArrayConfig.half_wavelength(8, 28e9)
    grid = FrequencyGrid(28e9, 400e6, 120e3, 12)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    w = PhaseTimeWeights(rng.integers(0, 8, 8) * 2.5e-9,
                         rng.uniform(0.0, 2 * math.pi, 8))
    ascending = np.sort(np.concatenate((
        [0.0, math.pi],
        rng.uniform(0.0, math.pi, data.draw(st.integers(0, 40))))))
    order = data.draw(st.lists(st.integers(0, ascending.size - 1),
                               min_size=1, max_size=60))
    want = pattern_map(array, w, ascending, grid)[order]
    got = pattern_map(array, w, ascending[order], grid)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_global_phase_invariance(array16):
    rng = np.random.default_rng(5)
    grid = FrequencyGrid(28e9, 400e6, 120e3, 12)
    delays = rng.uniform(0, 10e-9, 16)
    phases = rng.uniform(0, 2 * math.pi, 16)
    angles = np.linspace(0.3, 2.8, 21)
    base = pattern_map(array16, PhaseTimeWeights(delays, phases), angles, grid)
    for shift in (0.7, math.pi, 5.1):
        shifted = pattern_map(
            array16, PhaseTimeWeights(delays, phases + shift), angles, grid)
        np.testing.assert_allclose(shifted, base, atol=1e-9)
