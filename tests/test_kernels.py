"""Kernel checks: the pattern, delay and rate kernels against the
brute-force oracles of ``tests/oracles.py``, the pattern kernel's chunking,
threads and bounds, the delay scan's row blocks, the rate kernel's bound
pruning, and the pattern CSV's ``"%.6g"`` formatter (``jpta.cli``) against
Python's own formatting."""

import math
import resource
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpta import FrequencyGrid, PhaseTimeWeights, _kernels, cli
from jpta.antenna import pattern_map
from oracles import (
    delay_scan_py,
    live_candidates_py,
    pattern_corr_py,
    rate_scan_py,
    snr_rows,
)

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
        got = _kernels.delay_scan(
            slopes, _kernels.delay_twiddles(taus, freqs), num_el)
        np.testing.assert_allclose(
            got, delay_scan_py(slopes, freqs, taus, num_el), rtol=0,
            atol=1e-9)
        assert got.shape == (taus.size, num_el)


@pytest.mark.parametrize("num_freqs", [1, 12, 264, 3168])
def test_delay_scan_equals_one_whole_product(num_freqs):
    # the scan's row blocks give every score the bits of the whole
    # twiddles @ target product, for 1 to 70 taus
    rng = np.random.default_rng(15 + num_freqs)
    freqs = rng.uniform(27e9, 29e9, num_freqs)
    slopes = rng.uniform(-np.pi, np.pi, num_freqs)
    table = _kernels.delay_twiddles(np.arange(70) * 2.5e-9, freqs)
    for num_el in (1, 2, 5, 16, 17, 33, 64):
        target = np.exp(1j * slopes[:, None] * np.arange(num_el)[None, :])
        for taus in range(1, 71):
            twiddles = table[:taus]
            assert np.array_equal(
                _kernels.delay_scan(slopes, twiddles, num_el),
                twiddles @ target), (num_el, taus)


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


@pytest.mark.skipif(_kernels._usable_cpus() < 2,
                    reason="BLAS runs one thread on one CPU")
@pytest.mark.parametrize("num_freqs", [264, 3168])
def test_delay_scan_leaves_no_blas_thread_spinning(num_freqs):
    # OpenBLAS splits a large product over worker threads, which then spin
    # for about 0.13 s; the scan's blocks stay on the calling thread, so
    # the process is idle while it sleeps after a 64-tau, 16-element scan
    rng = np.random.default_rng(16)
    freqs = rng.uniform(27e9, 29e9, num_freqs)
    twiddles = _kernels.delay_twiddles(np.arange(64) * 2.5e-9, freqs)
    slopes = rng.uniform(-np.pi, np.pi, num_freqs)
    time.sleep(0.3)  # lets any worker woken earlier settle
    _kernels.delay_scan(slopes, twiddles, 16)
    before = _cpu_s()
    time.sleep(0.3)
    assert _cpu_s() - before < 0.03


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


@pytest.mark.parametrize("chunk_cells", [None, 6])
def test_pattern_corr_weight_sets_as_columns_equal_per_set_calls(
        monkeypatch, chunk_cells):
    # S weight sets tiled as column blocks over K frequencies: block s
    # equals set s's own call bit for bit, also where either call has a
    # one-cell chunk and where chunks split the angles differently
    if chunk_cells is not None:
        monkeypatch.setattr(_kernels, "PATTERN_CHUNK_CELLS", chunk_cells)
    rng = np.random.default_rng(12)
    for num_sets, num_freqs, num_angles in ((1, 1, 1), (2, 1, 1), (2, 1, 7),
                                            (16, 1, 8), (3, 24, 1),
                                            (8, 24, 7)):
        freqs = _rb_freqs(num_freqs)
        cos_angles = np.cos(rng.uniform(0.0, np.pi, num_angles))
        phases = rng.uniform(0.0, 2 * np.pi, (num_sets, 16))
        delays = rng.integers(0, 64, (num_sets, 16)) * 2.5e-9
        tiled = _kernels.pattern_corr(
            cos_angles, np.tile(freqs, num_sets),
            np.repeat(phases, num_freqs, axis=0),
            np.repeat(delays, num_freqs, axis=0), SLOPE_SCALE)
        assert tiled.shape == (num_angles, num_sets * num_freqs)
        for s in range(num_sets):
            own = _kernels.pattern_corr(cos_angles, freqs, phases[s],
                                        delays[s], SLOPE_SCALE)
            block = tiled[:, s * num_freqs:(s + 1) * num_freqs]
            assert np.array_equal(block, own), (num_sets, num_freqs,
                                                num_angles, s)


def _threaded_and_serial(monkeypatch, cpus, args):
    """``pattern_corr(*args)`` with ``cpus`` usable CPUs and with one, and
    the number of threads the first call started."""
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(_kernels.threading, "Thread", CountedThread)
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: cpus)
    threaded = _kernels.pattern_corr(*args)
    assert not any(t.is_alive() for t in started)
    count = len(started)
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 1)
    serial = _kernels.pattern_corr(*args)
    assert len(started) == count
    return threaded, serial, count


@pytest.mark.parametrize("cpus", [2, 3, 8])
def test_threaded_pattern_corr_equals_one_thread(monkeypatch, cpus):
    # 2, 3 and 7 chunks, the last one partial, one-row and one-cell chunks,
    # weight sets as column blocks, and one chunk, which starts no thread:
    # every cell equals the one-thread run's, with one thread per CPU up to
    # one per chunk, the calling thread included; a short switch interval
    # makes the threads interleave their hand-outs
    rng = np.random.default_rng(13)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for num_sets, num_freqs, num_angles, chunk_rows in (
                (1, 24, 10, 5), (1, 24, 11, 5), (2, 12, 33, 5),
                (1, 24, 7, 1), (3, 1, 9, 1), (1, 1, 5, 1),
                (1, 264, 800, 124), (1, 264, 8, 124)):
            monkeypatch.setattr(_kernels, "PATTERN_CHUNK_CELLS",
                                chunk_rows * num_sets * num_freqs)
            freqs = _rb_freqs(num_freqs)
            args = (np.cos(rng.uniform(0.0, np.pi, num_angles)),
                    np.tile(freqs, num_sets),
                    np.repeat(rng.uniform(0.0, 2 * np.pi, (num_sets, 16)),
                              num_freqs, axis=0),
                    np.repeat(rng.integers(0, 64, (num_sets, 16)) * 2.5e-9,
                              num_freqs, axis=0),
                    SLOPE_SCALE)
            threaded, serial, count = _threaded_and_serial(monkeypatch,
                                                           cpus, args)
            chunks = -(-num_angles // chunk_rows)
            assert count == min(cpus, chunks) - 1
            assert np.array_equal(threaded, serial), (num_sets, num_freqs,
                                                      num_angles, chunk_rows)
    finally:
        sys.setswitchinterval(interval)


def test_pattern_corr_raises_a_worker_thread_error(monkeypatch):
    # a chunk that fails on another thread fails the call, once every
    # thread has ended
    horner = _kernels._horner_chunk
    failed = threading.Event()

    def chunk(cos_chunk, *args):
        if threading.current_thread() is not threading.main_thread():
            failed.set()
            raise FloatingPointError("chunk failed")
        failed.wait(5.0)  # the calling thread waits for a worker's chunk
        horner(cos_chunk, *args)

    monkeypatch.setattr(_kernels, "_horner_chunk", chunk)
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(_kernels, "PATTERN_CHUNK_CELLS", 24)
    with pytest.raises(FloatingPointError, match="chunk failed"):
        _kernels.pattern_corr(np.cos(np.linspace(0.1, 3.0, 20)),
                              _rb_freqs(24), np.zeros(16), np.zeros(16),
                              SLOPE_SCALE)
    assert failed.is_set()


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


def _sweep(rng, rings, rbs):
    """One random descending gain row seen at ``rings`` link gains falling
    40 dB end to end, as a distance sweep sees it: ``(link_db, gain_db)``
    for one user."""
    gain_db = np.sort(rng.uniform(-10.0, 50.0, rbs))[::-1]
    return np.linspace(0.0, -40.0, rings), gain_db[None, :]


def _one_ring_users(gain_db):
    """Arbitrary gain rows, each one user seen at one ring of 0 dB link
    gain, so that row's SNRs are the gains themselves."""
    return np.zeros(1), np.sort(gain_db, axis=1)[:, ::-1]


def _assert_matches_oracle(link_db, gain_db, noise_db, thr_lin, se, betas):
    """Batched scan of every (user, ring) pair equals the one-row oracle,
    exactly."""
    unique_betas, beta_idx = np.unique(betas, return_inverse=True)
    got = _kernels.rate_scan_batch(link_db, gain_db, noise_db, thr_lin, se,
                                   unique_betas, beta_idx, 4)
    assert all(a.shape == (gain_db.shape[0], link_db.size) for a in got)
    rows = snr_rows(link_db, gain_db, noise_db)
    for u, r in np.ndindex(rows.shape[:2]):
        want = rate_scan_py(rows[u, r], thr_lin, se, unique_betas, beta_idx,
                            4)
        assert tuple(a[u, r] for a in got) == want, "user %d, ring %d" % (u, r)
    return got


@pytest.mark.parametrize("rings", [1, 2, 160])
@pytest.mark.parametrize("distinct_betas", [False, True])
def test_rate_scan_batch_matches_oracle(rings, distinct_betas):
    rng = np.random.default_rng(5 + rings + 1000 * distinct_betas)
    decided = outages = 0
    for rbs in (1, 3, 4, 5, 17, 33):
        thr_lin, se, betas = _rate_inputs(rng, 8, distinct_betas)
        for link_db, gain_db in (
                _sweep(rng, rings, rbs),
                _one_ring_users(rng.uniform(-10.0, 50.0, (rings, rbs)))):
            mcs = _assert_matches_oracle(link_db, gain_db, 0.0, thr_lin, se,
                                         betas)[1]
            decided += int(np.sum(mcs >= 0))
            outages += int(np.sum(mcs < 0))
    # the inputs must exercise both branches
    assert decided > 0 and outages > 0


def _rows_where_np_log_rounds_up(rng, count, rbs, beta):
    """Random descending gain rows (dB, one ring at 0 dB link gain) whose
    full-allocation EESM mean gets a larger ``np.log`` than ``math.log``: an
    effective SNR computed with ``np.log`` then falls an ulp short of the one
    ``select_rate`` defines."""
    rows = []
    while len(rows) < count:
        block = np.sort(rng.uniform(-10.0, 30.0, (4000, rbs)), axis=1)[:, ::-1]
        values = snr_rows(np.zeros(1), block, 0.0)[:, 0] / rbs
        means = np.mean(np.exp(-(values - values[:, -1:]) / beta), axis=1)
        ups = np.log(means) > np.array([math.log(m) for m in means])
        rows.extend(block[ups])
    return rows[:count]


@pytest.mark.parametrize("rings", [1, 2, 160])
@pytest.mark.parametrize("distinct_betas", [False, True])
def test_rate_scan_batch_meets_exact_thresholds(rings, distinct_betas):
    # The top MCS threshold equals the exactly computed effective SNR of a
    # pinned user's whole row at one ring, so that pair's best grant is the
    # whole row at the top MCS. The rows are picked where np.log rounds up,
    # so a decision taken on np.log alone would miss that grant.
    rng = np.random.default_rng(11 + rings + 1000 * distinct_betas)
    rbs = 12
    betas = np.array([0.7, 1.9]) if distinct_betas else np.ones(2)
    se = np.array([1.0, 2.0])
    for pinned in _rows_where_np_log_rounds_up(rng, 4, rbs, betas[1]):
        link_db, swept = _sweep(rng, rings, rbs)
        r = int(rng.integers(rings))
        link_db[r] = 0.0
        values = snr_rows(np.zeros(1), pinned[None, :], 0.0)[0, 0] / rbs
        top = values[-1] - betas[1] * math.log(
            np.mean(np.exp(-(values - values[-1]) / betas[1])))
        thr_lin = np.array([top * 1e-3, top])
        got = _assert_matches_oracle(link_db, np.vstack((swept, pinned)),
                                     0.0, thr_lin, se, betas)
        assert (got[0][1, r], got[1][1, r], got[2][1, r]) == (rbs, 1, top)


def test_rate_scan_chunks_match_oracle(monkeypatch):
    # chunk boundaries fall inside and between runs of equal RB count
    rng = np.random.default_rng(41)
    for chunk in (1, 7, 40, 1000):
        monkeypatch.setattr(_kernels, "EESM_CHUNK_TERMS", chunk)
        for distinct_betas in (False, True):
            thr_lin, se, betas = _rate_inputs(rng, 8, distinct_betas)
            link_db, gain_db = _one_ring_users(
                rng.uniform(-10.0, 50.0, (30, 17)))
            _assert_matches_oracle(link_db, gain_db, 0.0, thr_lin, se, betas)


def test_snr_terms_keep_the_gain_order():
    # the rate kernel sorts each user's gains once and takes every ring's
    # SNR row in that order; that equals sorting each SNR row itself, bit for
    # bit, because every step of snr_unsplit is monotone in the gain
    rng = np.random.default_rng(61)
    noise_db = -107.41637507904751
    link_db = 23.0 + np.sort(rng.uniform(-200.0, -60.0, 200))
    gain_db = rng.uniform(-52.0, 28.0, (20, 264))
    gain_db[:, :40] = np.round(gain_db[:, :40], 1)  # ties among the gains
    desc = np.sort(gain_db, axis=1)[:, ::-1]
    got = _kernels.snr_unsplit(link_db[None, :, None], desc[:, None, :],
                               noise_db)
    want = -np.sort(-_kernels.snr_unsplit(
        link_db[None, :, None], gain_db[:, None, :], noise_db), axis=2)
    assert np.array_equal(got, want)


def test_rate_scan_infeasible_returns_sentinel():
    for rbs in (10, 3):
        out = _kernels.rate_scan_batch(np.array([-60.0, -61.0]),
                                       np.zeros((1, rbs)), 0.0,
                                       np.array([1.0]), np.array([1.0]),
                                       np.ones(1), np.zeros(1, dtype=np.int64),
                                       4)
        assert [a.tolist() for a in out] == [[[0, 0]], [[-1, -1]],
                                             [[0.0, 0.0]], [[0.0, 0.0]]]


# ---------------------------------------------------------------------------
# rate scan: the EESM-bound prune drops no candidate that could win
# ---------------------------------------------------------------------------

def _ladder(draw, level_counts):
    """An MCS ladder of one of ``level_counts`` levels with thresholds from
    -10 to 40 dB and one shared EESM beta or one beta per level."""
    levels = draw(st.sampled_from(level_counts))
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
    return 10.0 ** (thr_db / 10.0), se, betas


@st.composite
def _scan_problems(draw):
    """Descending gain rows on a ladder: one gain row up to 60 dB deep seen
    at 1-200 link gains falling ring by ring, as a distance sweep sees it,
    or 1-200 independent gain rows, each a user seen at one ring."""
    rings = draw(st.integers(1, 200))
    rbs = draw(st.integers(1, 40))
    spread = draw(st.floats(0.0, 60.0))
    peak_db = draw(st.floats(-20.0, 40.0))
    if draw(st.booleans()):
        depth = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=rbs,
                                       max_size=rbs)))
        link_db = -np.linspace(0.0, draw(st.floats(0.0, 60.0)), rings)
        gain_db = np.sort(peak_db - spread * depth)[None, ::-1]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        link_db, gain_db = _one_ring_users(
            peak_db - spread * rng.uniform(0.0, 1.0, (rings, rbs)))
    return (link_db, gain_db, 0.0) + _ladder(draw, range(1, 9))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(problem=_scan_problems())
def test_pruned_rate_scan_equals_oracle(problem):
    _assert_matches_oracle(*problem)


@st.composite
def _user_problems(draw):
    """1-8 users sharing 1-60 rings at link gains in any order, each with a
    gain row up to 60 dB deep over the same number (4-40) of RBs, against a
    noise floor near -105 dB, on a ladder of up to 15 levels; the far rings
    are outages."""
    users = draw(st.integers(1, 8))
    rings = draw(st.integers(1, 60))
    rbs = draw(st.integers(4, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    noise_db = draw(st.floats(-110.0, -100.0))
    near_db = draw(st.floats(-30.0, 40.0))
    link_db = noise_db + near_db - np.sort(rng.uniform(0.0, 80.0, rings))
    if draw(st.booleans()):
        rng.shuffle(link_db)
    spread = draw(st.floats(0.0, 60.0))
    gain_db = np.sort(draw(st.floats(-20.0, 28.0))
                      - spread * rng.uniform(0.0, 1.0, (users, rbs)),
                      axis=1)[:, ::-1]
    return (link_db, gain_db, noise_db) + _ladder(draw, [1, 2, 3, 5, 8, 15])


def _assert_envelope_holds_per_cell(link_db, gain_db, noise_db, thr_lin, se,
                                    betas):
    """The per-user envelope keeps every candidate the bounds on the SNR
    rows themselves keep, lists each once, ordered by n, and keeps none that
    those bounds drop once widened to twice their margin."""
    counts = np.arange(4, gain_db.shape[1] + 1)
    live = _kernels._envelope_candidates(link_db, gain_db, noise_db, counts,
                                         thr_lin, se, betas.max())
    assert np.all(np.diff(live[2]) >= 0)  # ordered by n
    got = list(zip(*(a.tolist() for a in live)))
    assert len(set(got)) == len(got)
    rows = snr_rows(link_db, gain_db, noise_db)
    kept = {}
    for rel in (_kernels._BOUND_REL, 2.0 * _kernels._BOUND_REL):
        kept[rel] = {(u,) + cell for u in range(gain_db.shape[0])
                     for cell in zip(*live_candidates_py(
                         rows[u], counts, thr_lin, se, betas.max(), rel))}
    kept = [{(u, r, int(counts[k])) for u, k, r in cells}
            for cells in kept.values()]
    assert kept[0] <= set(got) <= kept[1]
    return kept[0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problem=_user_problems())
def test_envelope_holds_per_cell_live_set(problem):
    _assert_envelope_holds_per_cell(*problem)


def test_envelope_holds_cells_pinned_at_their_upper_bound():
    # A one-level ladder whose threshold is exactly one cell's widened upper
    # bound, as the bounds on its SNR row compute it: those bounds keep the
    # cell by equality, and the envelope, which evaluates the bound as link
    # gain times the user's row, keeps it only through its factorisation
    # slack
    rng = np.random.default_rng(51)
    rel = _kernels._BOUND_REL
    for _ in range(60):
        noise_db = -107.4
        link_db = noise_db + 20.0 - np.sort(rng.uniform(0.0, 40.0, 20))
        gain_db = np.sort(rng.uniform(-10.0, 28.0, (3, 24)), axis=1)[:, ::-1]
        beta = rng.uniform(0.5, 3.0)
        u, r, n = rng.integers(3), rng.integers(20), int(rng.integers(4, 25))
        row = snr_rows(link_db, gain_db, noise_db)[u, r]
        mean = np.cumsum(row)[n - 1] / (n * n)
        thr_lin = np.array([mean * (1.0 + rel) + rel * beta])
        kept = _assert_envelope_holds_per_cell(
            link_db, gain_db, noise_db, thr_lin, np.ones(1), np.array([beta]))
        assert (u, r, n) in kept


def _tight_bound_rows(rng, kind, rbs, beta):
    """Gain rows (dB, seen at 0 dB link gain) on which a bound is as tight
    as rounding allows, with the EESM effective SNR of the whole row, as
    ``rate_scan_py`` computes it.

    ``flat``: equal SNRs, whose EESM is the lowest SNR exactly while the
    cumulative-sum mean rounds below it. ``faint``: SNRs near 1e-12 within
    1% of each other, whose EESM exceeds their mean by far more than 1e-6
    relative, because the rounding of ``beta * log(mean)`` is absolute.
    """
    for _ in range(10000):
        if kind == "flat":
            gain_db = np.full(rbs, rng.uniform(-10.0, 30.0))
        else:
            gain_db = np.sort(rng.uniform(-125.0, -115.0) + 10.0 * np.log10(
                1.0 + rng.uniform(0.0, 1e-2, rbs)))[::-1]
        row = snr_rows(np.zeros(1), gain_db[None, :], 0.0)[0, 0]
        values = row / rbs
        eff = values[-1] - beta * math.log(
            np.mean(np.exp(-(values - values[-1]) / beta)))
        mean = np.cumsum(row)[-1] / (rbs * rbs)
        if (kind == "flat" and eff > mean) \
                or (kind == "faint" and eff > mean * (1.0 + 1e-5)):
            return gain_db, eff
    raise AssertionError("no %s row of %d RBs found" % (kind, rbs))


@pytest.mark.parametrize("kind", ["flat", "faint"])
@pytest.mark.parametrize("distinct_betas", [False, True])
def test_rate_scan_prune_keeps_winner_on_tight_bounds(kind, distinct_betas):
    # The top threshold is the whole row's effective SNR at the 0 dB ring,
    # which lies above the row's rounded mean: only the bound margins keep
    # that candidate. It must win: every shorter allocation meets the top
    # MCS too but carries fewer RBs, and the whole row at the lower MCS has
    # a tenth of the rate.
    rng = np.random.default_rng(31 + 2 * distinct_betas + (kind == "faint"))
    betas = np.array([0.7, 2.5]) if distinct_betas else np.full(2, 2.5)
    se = np.array([1.0, 10.0])
    link_db = 10.0 * np.log10([4.0, 1.0, 0.5])
    for rbs in (9, 17, 33):
        gain_db, top = _tight_bound_rows(rng, kind, rbs, betas[1])
        thr_lin = np.array([top * 1e-3, top])
        got = _assert_matches_oracle(link_db, gain_db[None, :], 0.0, thr_lin,
                                     se, betas)
        assert (got[0][0, 1], got[1][0, 1], got[2][0, 1]) == (rbs, 1, top), \
            rbs


# ---------------------------------------------------------------------------
# "%.6g" formatter of the pattern CSV
# ---------------------------------------------------------------------------

def _g6_texts(values):
    return [row.tobytes().replace(b"\0", b"").decode()
            for row in cli.format_g6(np.array(values, dtype=np.float64))]


@pytest.mark.parametrize("value", [
    0.0, -0.0,
    # the lower end of the fixed notation and its neighbours, and a value
    # below it that rounds up to it
    1e-4, -1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0),
    9.9999995e-5,
    # the upper end: rounding down, the exact tie, rounding up to 1e+06
    999999.4, 999999.5, 999999.6, -999999.6,
    # a carry to the next decade inside the fixed range
    9.999995, 0.0009999995,
    # exact ties go to the even digit; products that round onto a half from
    # a value above it
    123456.5, 123457.5, 0.5, 2.5, 123.4565, 1234.565,
    5e-324, -5e-324, 1.7e308, -1.7e308, math.nan, math.inf, -math.inf,
    1e6, 1e-5, 0.1, 1.0, 10.0, 100000.0, 123456.0, -12.3456789,
])
def test_format_g6_edge_values(value):
    assert _g6_texts([value]) == ["%.6g" % value]


def _g6_floats():
    # any float, and the fixed-notation range with values on and near
    # rounding halves of the sixth digit
    halves = st.tuples(st.integers(100_000, 999_999),
                       st.sampled_from([0.5, 0.4999999, 0.5000001]),
                       st.integers(-9, 0), st.booleans()).map(
        lambda t: (-1.0 if t[3] else 1.0) * (t[0] + t[1]) * 10.0 ** t[2])
    return st.one_of(st.floats(), st.floats(-1e6, 1e6), halves,
                     st.floats(9e-5, 2e-4), st.floats(9e5, 1.1e6))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(_g6_floats(), min_size=1, max_size=12))
def test_format_g6_equals_percent_format(values):
    # several values per call, so fast-path and fallback values share masks
    assert _g6_texts(values) == ["%.6g" % v for v in values]


def test_format_g6_fills_a_strided_view():
    values = np.array([[-12.5, 0.0], [1e7, 3.25]])
    buf = np.full((4, cli.G6_SLOT + 3), 7, dtype=np.uint8)
    view = buf[:, 1:-2]
    assert cli.format_g6(values, out=view) is view
    assert np.all(buf[:, 0] == 7) and np.all(buf[:, -2:] == 7)
    assert [row.tobytes().replace(b"\0", b"") for row in view] == [
        b"-12.5", b"0", b"1e+07", b"3.25"]
