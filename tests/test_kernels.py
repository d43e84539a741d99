"""Kernel checks: numba/numpy parity of the pattern and delay kernels, and
the batched rate scan against its brute-force oracle."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from jpta import _kernels
from oracles import rate_scan_py

NEED_JIT = pytest.mark.skipif(_kernels.pattern_corr_jit is None,
                              reason="numba unavailable")


def _random_pattern_inputs(rng):
    num_el = int(rng.integers(2, 24))
    cos_angles = np.cos(rng.uniform(0.0, np.pi, int(rng.integers(1, 40))))
    freqs = rng.uniform(27e9, 29e9, int(rng.integers(1, 30)))
    phases = rng.uniform(0.0, 2 * np.pi, num_el)
    delays = rng.uniform(0.0, 40e-9, num_el)
    slope_scale = 2 * np.pi * 0.005353 / 299792458.0
    return cos_angles, freqs, phases, delays, slope_scale, num_el


def test_backend_name_is_valid():
    assert _kernels.backend() in ("numba", "numpy")
    live = {"numba": _kernels.pattern_corr_jit,
            "numpy": _kernels.pattern_corr_numpy}[_kernels.backend()]
    assert _kernels.pattern_corr is live


@NEED_JIT
def test_pattern_corr_backends_agree():
    rng = np.random.default_rng(3)
    for _ in range(5):
        ca, fr, ph, de, ss, num_el = _random_pattern_inputs(rng)
        a = _kernels.pattern_corr_numpy(ca, fr, ph, de, ss)
        b = _kernels.pattern_corr_jit(ca, fr, ph, de, ss)
        np.testing.assert_allclose(a, b, atol=1e-12)
        assert a.shape == (ca.size, fr.size)
        assert np.all(a <= 1.0 + 1e-12)


@NEED_JIT
def test_delay_scan_backends_agree():
    rng = np.random.default_rng(4)
    for _ in range(5):
        num_el = int(rng.integers(2, 20))
        slopes = rng.uniform(-np.pi, np.pi, int(rng.integers(1, 50)))
        freqs = rng.uniform(27e9, 29e9, slopes.size)
        taus = np.arange(int(rng.integers(1, 30))) * 2.5e-9
        a = _kernels.delay_scan_numpy(slopes, freqs, taus, num_el)
        b = _kernels.delay_scan_jit(slopes, freqs, taus, num_el)
        np.testing.assert_allclose(a, b, atol=1e-9)
        assert a.shape == (taus.size, num_el)


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


def test_rate_scan_infeasible_returns_sentinel():
    unsplit = np.full((2, 10), 1e-6)
    for rbs in (10, 3):
        out = _kernels.rate_scan_batch(unsplit[:, :rbs], np.array([1.0]),
                                       np.array([1.0]), np.ones(1),
                                       np.zeros(1, dtype=np.int64), 4)
        assert [a.tolist() for a in out] == [[0, 0], [-1, -1], [0.0, 0.0],
                                             [0.0, 0.0]]


def test_numpy_backend_forced_by_env_flag():
    code = "import jpta._kernels as k; print(k.backend())"
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "JPTA_NUMBA": "0"},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "numpy"
