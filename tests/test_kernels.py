"""Kernel checks: the pattern, delay and rate kernels against the
brute-force oracles of ``tests/oracles.py``, the pattern kernel's chunking
and bounds, and the rate kernel's bound pruning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpta import FrequencyGrid, PhaseTimeWeights, _kernels
from jpta.antenna import pattern_map
from oracles import delay_scan_py, pattern_corr_py, rate_scan_py

SLOPE_SCALE = 2 * np.pi * 0.005353 / 299792458.0


def _random_pattern_inputs(rng):
    num_el = int(rng.integers(2, 24))
    cos_angles = np.cos(rng.uniform(0.0, np.pi, int(rng.integers(1, 40))))
    freqs = rng.uniform(27e9, 29e9, int(rng.integers(1, 30)))
    phases = rng.uniform(0.0, 2 * np.pi, num_el)
    delays = rng.uniform(0.0, 40e-9, num_el)
    return cos_angles, freqs, phases, delays, SLOPE_SCALE, num_el


def test_backend_name_is_valid():
    assert _kernels.backend() == "numpy"


def test_pattern_corr_matches_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        ca, fr, ph, de, ss, num_el = _random_pattern_inputs(rng)
        got = _kernels.pattern_corr(ca, fr, ph, de, ss)
        np.testing.assert_allclose(got, pattern_corr_py(ca, fr, ph, de, ss),
                                   rtol=0, atol=1e-12)
        assert got.shape == (ca.size, fr.size)
        assert np.all(got <= 1.0 + 1e-12)


def test_delay_scan_matches_oracle():
    rng = np.random.default_rng(4)
    for _ in range(5):
        num_el = int(rng.integers(2, 20))
        slopes = rng.uniform(-np.pi, np.pi, int(rng.integers(1, 50)))
        freqs = rng.uniform(27e9, 29e9, slopes.size)
        taus = np.arange(int(rng.integers(1, 30))) * 2.5e-9
        got = _kernels.delay_scan(slopes, freqs, taus, num_el)
        np.testing.assert_allclose(
            got, delay_scan_py(slopes, freqs, taus, num_el), rtol=0,
            atol=1e-9)
        assert got.shape == (taus.size, num_el)


def _rb_freqs(num_rbs, every=1):
    return FrequencyGrid(28e9, 400e6, 120e3, num_rbs).rb_center_freqs()[::every]


@pytest.mark.parametrize("reverse", [False, True])
def test_pattern_corr_quantized_delays_with_deep_nulls(reverse):
    # A linear phase and delay ramp gives every frequency a Dirichlet-kernel
    # beam with exact zeros; a fine angle grid lands next to them. Delays are
    # on the 2.5 ns grid up to 157.5 ns, where the element phases
    # 2*pi*f*tau reach 2.8e4 rad and their rounding dominates the error.
    rng = np.random.default_rng(21 + reverse)
    elem = np.arange(16)
    delays = (3 + 4 * elem) * 2.5e-9
    if reverse:
        delays = delays[::-1]
    phases = rng.uniform(0.0, 2 * np.pi) * elem
    cos_angles = np.cos(np.linspace(0.01, np.pi - 0.01, 361))
    freqs = _rb_freqs(264, 8)
    got = _kernels.pattern_corr(cos_angles, freqs, phases, delays,
                                SLOPE_SCALE)
    want = pattern_corr_py(cos_angles, freqs, phases, delays, SLOPE_SCALE)
    assert delays.max() == pytest.approx(157.5e-9)
    assert want.min() < 1e-4
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_pattern_corr_chunks_match_one_unchunked_call(monkeypatch):
    rng = np.random.default_rng(7)
    freqs = _rb_freqs(24)
    phases = rng.uniform(0.0, 2 * np.pi, 16)
    delays = rng.integers(0, 64, 16) * 2.5e-9
    chunk = 5
    cos_angles = np.cos(np.linspace(0.05, np.pi - 0.05, 2 * chunk + 1))
    for count in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        ca = cos_angles[:count]
        monkeypatch.setattr(_kernels, "PATTERN_CHUNK_CELLS",
                            count * freqs.size)
        whole = _kernels.pattern_corr(ca, freqs, phases, delays, SLOPE_SCALE)
        monkeypatch.setattr(_kernels, "PATTERN_CHUNK_CELLS",
                            chunk * freqs.size)
        chunked = _kernels.pattern_corr(ca, freqs, phases, delays,
                                        SLOPE_SCALE)
        assert np.array_equal(chunked, whole), count


def test_pattern_map_row_equals_single_angle_call(array16, grid264):
    rng = np.random.default_rng(8)
    w = PhaseTimeWeights(delays_s=rng.integers(0, 64, 16) * 2.5e-9,
                         phases_rad=rng.uniform(0.0, 2 * np.pi, 16))
    angles = np.linspace(0.0, np.pi, 3001)
    full = pattern_map(array16, w, angles, grid264)
    for i in (1, 777, 1500, 2222, 2999):
        row = pattern_map(array16, w, angles[i:i + 1], grid264)
        assert np.array_equal(row[0], full[i]), i


def test_pattern_corr_never_exceeds_one():
    # matched beams put cells at correlation 1 up to rounding
    rng = np.random.default_rng(9)
    freqs = _rb_freqs(264, 4)
    cos_angles = np.cos(np.linspace(0.0, np.pi, 721))
    for _ in range(4):
        cos0 = cos_angles[int(rng.integers(cos_angles.size))]
        f0 = freqs[int(rng.integers(freqs.size))]
        phases = SLOPE_SCALE * f0 * cos0 * np.arange(16)
        delays = np.zeros(16)
        corr = _kernels.pattern_corr(cos_angles, freqs, phases, delays,
                                     SLOPE_SCALE)
        assert corr.max() == pytest.approx(1.0, abs=1e-12)
        assert np.all(corr <= 1.0 + 1e-12)


def test_pattern_corr_single_element_runs_no_horner_step():
    rng = np.random.default_rng(10)
    cos_angles = np.cos(np.linspace(0.1, 3.0, 7))
    freqs = _rb_freqs(24)
    phases = rng.uniform(0.0, 2 * np.pi, 1)
    delays = np.array([157.5e-9])
    got = _kernels.pattern_corr(cos_angles, freqs, phases, delays,
                                SLOPE_SCALE)
    assert got.shape == (7, 24)
    np.testing.assert_allclose(got, 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        got, pattern_corr_py(cos_angles, freqs, phases, delays, SLOPE_SCALE),
        rtol=0, atol=1e-15)


def _rate_inputs(rng, levels, distinct_betas):
    """Random strictly increasing MCS ladder with linear thresholds."""
    thr_db = np.sort(rng.uniform(-10.0, 30.0, levels))
    thr_db += np.arange(levels) * 1e-6  # keep strictly increasing
    se = np.sort(rng.uniform(0.1, 8.0, levels))
    se += np.arange(levels) * 1e-9
    betas = rng.uniform(0.5, 3.0, levels) if distinct_betas \
        else np.ones(levels)
    return 10.0 ** (thr_db / 10.0), se, betas


def _sweep_rows(rng, rings, rbs):
    """One random descending SNR row seen at ``rings`` path gains, as a
    distance sweep sees it: the row scaled down ring by ring."""
    row = np.sort(10.0 ** rng.uniform(-1.0, 5.0, rbs))[::-1]
    return row[None, :] * np.geomspace(1.0, 1e-4, rings)[:, None]


def _assert_matches_oracle(snr, thr_lin, se, betas):
    """Batched scan of every row equals the one-row oracle, exactly."""
    unique_betas, beta_idx = np.unique(betas, return_inverse=True)
    got = _kernels.rate_scan_batch(snr, thr_lin, se, unique_betas, beta_idx,
                                   4)
    assert all(a.shape == (snr.shape[0],) for a in got)
    for r in range(snr.shape[0]):
        want = rate_scan_py(snr[r], thr_lin, se, unique_betas, beta_idx, 4)
        assert tuple(a[r] for a in got) == want, "ring %d" % r
    return got


@pytest.mark.parametrize("rings", [1, 2, 160])
@pytest.mark.parametrize("distinct_betas", [False, True])
def test_rate_scan_batch_matches_oracle(rings, distinct_betas):
    rng = np.random.default_rng(5 + rings + 1000 * distinct_betas)
    decided = outages = 0
    for rbs in (1, 3, 4, 5, 17, 33):
        thr_lin, se, betas = _rate_inputs(rng, 8, distinct_betas)
        for snr in (_sweep_rows(rng, rings, rbs),
                    np.sort(10.0 ** rng.uniform(-1.0, 5.0, (rings, rbs)),
                            axis=1)[:, ::-1]):
            mcs = _assert_matches_oracle(snr, thr_lin, se, betas)[1]
            decided += int(np.sum(mcs >= 0))
            outages += int(np.sum(mcs < 0))
    # the inputs must exercise both branches
    assert decided > 0 and outages > 0


def _rows_where_np_log_rounds_up(rng, count, rbs, beta):
    """Random descending rows whose full-allocation EESM mean gets a larger
    ``np.log`` than ``math.log``: an effective SNR computed with ``np.log``
    then falls an ulp short of the one ``select_rate`` defines."""
    rows = []
    while len(rows) < count:
        block = np.sort(10.0 ** rng.uniform(-1.0, 3.0, (4000, rbs)),
                        axis=1)[:, ::-1]
        values = block / rbs
        means = np.mean(np.exp(-(values - values[:, -1:]) / beta), axis=1)
        ups = np.log(means) > np.array([math.log(m) for m in means])
        rows.extend(block[ups])
    return rows[:count]


@pytest.mark.parametrize("rings", [1, 2, 160])
@pytest.mark.parametrize("distinct_betas", [False, True])
def test_rate_scan_batch_meets_exact_thresholds(rings, distinct_betas):
    # The top MCS threshold equals one ring's exactly computed effective SNR
    # of the whole row, so that ring's best grant is the whole row at the
    # top MCS. The rows are picked where np.log rounds up, so a decision
    # taken on np.log alone would miss that grant.
    rng = np.random.default_rng(11 + rings + 1000 * distinct_betas)
    rbs = 12
    betas = np.array([0.7, 1.9]) if distinct_betas else np.ones(2)
    se = np.array([1.0, 2.0])
    for pinned in _rows_where_np_log_rounds_up(rng, 4, rbs, betas[1]):
        snr = _sweep_rows(rng, rings, rbs)
        r = int(rng.integers(rings))
        snr[r] = pinned
        values = pinned / rbs
        top = values[-1] - betas[1] * math.log(
            np.mean(np.exp(-(values - values[-1]) / betas[1])))
        thr_lin = np.array([top * 1e-3, top])
        got = _assert_matches_oracle(snr, thr_lin, se, betas)
        assert (got[0][r], got[1][r], got[2][r]) == (rbs, 1, top)


def test_rate_scan_chunks_match_oracle(monkeypatch):
    # chunk boundaries fall inside and between runs of equal RB count
    rng = np.random.default_rng(41)
    for chunk in (1, 7, 40, 1000):
        monkeypatch.setattr(_kernels, "EESM_CHUNK_TERMS", chunk)
        for distinct_betas in (False, True):
            thr_lin, se, betas = _rate_inputs(rng, 8, distinct_betas)
            snr = np.sort(10.0 ** rng.uniform(-1.0, 5.0, (30, 17)),
                          axis=1)[:, ::-1]
            _assert_matches_oracle(snr, thr_lin, se, betas)


def test_rate_scan_infeasible_returns_sentinel():
    unsplit = np.full((2, 10), 1e-6)
    for rbs in (10, 3):
        out = _kernels.rate_scan_batch(unsplit[:, :rbs], np.array([1.0]),
                                       np.array([1.0]), np.ones(1),
                                       np.zeros(1, dtype=np.int64), 4)
        assert [a.tolist() for a in out] == [[0, 0], [-1, -1], [0.0, 0.0],
                                             [0.0, 0.0]]


# ---------------------------------------------------------------------------
# rate scan: the EESM-bound prune drops no candidate that could win
# ---------------------------------------------------------------------------

@st.composite
def _scan_problems(draw):
    """Descending SNR rows for 1-200 rings on a ladder of 1-8 MCS levels.
    The rows are one gain row up to 60 dB deep seen at path gains falling
    ring by ring, as a distance sweep sees it, or an independent gain row per
    ring; the ladder has one shared EESM beta or one beta per level."""
    rings = draw(st.integers(1, 200))
    rbs = draw(st.integers(1, 40))
    spread = draw(st.floats(0.0, 60.0))
    peak_db = draw(st.floats(-20.0, 40.0))
    if draw(st.booleans()):
        depth = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=rbs,
                                       max_size=rbs)))[None, :]
        path_db = np.linspace(0.0, draw(st.floats(0.0, 60.0)), rings)
        gains_db = peak_db - spread * depth - path_db[:, None]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        gains_db = peak_db - spread * rng.uniform(0.0, 1.0, (rings, rbs))
    snr = np.sort(10.0 ** (gains_db / 10.0), axis=1)[:, ::-1]
    levels = draw(st.integers(1, 8))
    thr_db = np.sort(draw(st.lists(st.floats(-10.0, 40.0), min_size=levels,
                                   max_size=levels)))
    thr_db += np.arange(levels) * 1e-6  # keep strictly increasing
    se = np.cumsum(draw(st.lists(st.floats(0.05, 2.0), min_size=levels,
                                 max_size=levels)))
    if draw(st.booleans()):
        betas = np.full(levels, draw(st.floats(0.5, 3.0)))
    else:
        betas = np.array(draw(st.lists(st.floats(0.5, 3.0), min_size=levels,
                                       max_size=levels)))
    return snr, 10.0 ** (thr_db / 10.0), se, betas


@settings(max_examples=40, deadline=None, derandomize=True)
@given(problem=_scan_problems())
def test_pruned_rate_scan_equals_oracle(problem):
    _assert_matches_oracle(*problem)


def _tight_bound_rows(rng, kind, rbs, beta):
    """Rows on which a bound is as tight as rounding allows, with the EESM
    effective SNR of the whole row, as ``rate_scan_py`` computes it.

    ``flat``: equal SNRs, whose EESM is the lowest SNR exactly while the
    cumulative-sum mean rounds below it. ``faint``: SNRs near 1e-12 within
    1% of each other, whose EESM exceeds their mean by far more than 1e-6
    relative, because the rounding of ``beta * log(mean)`` is absolute.
    """
    for _ in range(10000):
        if kind == "flat":
            row = np.full(rbs, 10.0 ** rng.uniform(-1.0, 3.0))
        else:
            row = np.sort(10.0 ** rng.uniform(-12.5, -11.5)
                          * (1.0 + rng.uniform(0.0, 1e-2, rbs)))[::-1]
        values = row / rbs
        eff = values[-1] - beta * math.log(
            np.mean(np.exp(-(values - values[-1]) / beta)))
        mean = np.cumsum(row)[-1] / (rbs * rbs)
        if (kind == "flat" and eff > mean) \
                or (kind == "faint" and eff > mean * (1.0 + 1e-5)):
            return row, eff
    raise AssertionError("no %s row of %d RBs found" % (kind, rbs))


@pytest.mark.parametrize("kind", ["flat", "faint"])
@pytest.mark.parametrize("distinct_betas", [False, True])
def test_rate_scan_prune_keeps_winner_on_tight_bounds(kind, distinct_betas):
    # The top threshold is the whole row's effective SNR, which lies above
    # the row's rounded mean: only the bound margins keep that candidate. It
    # must win: every shorter allocation meets the top MCS too but carries
    # fewer RBs, and the whole row at the lower MCS has a tenth of the rate.
    rng = np.random.default_rng(31 + 2 * distinct_betas + (kind == "faint"))
    betas = np.array([0.7, 2.5]) if distinct_betas else np.full(2, 2.5)
    se = np.array([1.0, 10.0])
    for rbs in (9, 17, 33):
        row, top = _tight_bound_rows(rng, kind, rbs, betas[1])
        thr_lin = np.array([top * 1e-3, top])
        snr = row[None, :] * np.array([4.0, 1.0, 0.5])[:, None]
        got = _assert_matches_oracle(snr, thr_lin, se, betas)
        assert (got[0][1], got[1][1], got[2][1]) == (rbs, 1, top), rbs
