"""Kernel checks: the pattern, delay and rate kernels against the
brute-force oracles of ``tests/oracles.py``, the pattern kernel's phasor
split, chunking, threads and bounds, the delay scan's tiles, the rate
kernel's bound pruning, and the pattern CSV's ``"%.6g"`` formatter
(``jpta.cli``) against Python's own formatting."""

import math
import resource
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jpta import _kernels, cli
from jpta.antenna import (
    CARRIER_RANGE_HZ,
    CORRELATION_FLOOR,
    MAX_NUM_RBS,
    MAX_SPACING_M,
    SCS_RANGE_HZ,
    SPEED_OF_LIGHT_M_S,
    ArrayConfig,
    FrequencyGrid,
    PhaseTimeWeights,
    pattern_map,
    serving_gain_db,
)
from jpta.link import MAX_EESM_BETA
from oracles import (
    delay_scan_py,
    eesm_effective_snr_db_py,
    eesm_snr_db_bound,
    eesm_snr_db_longdouble,
    eesm_stage_py,
    highest_mcs_py,
    live_candidates_py,
    pattern_corr_py,
    rate_scan_py,
    snr_rows,
)

SLOPE_SCALE = 2 * np.pi * 0.005353 / 299792458.0


def _kernel_args(cos_angles, freqs, phases, delays, slope_scale, sets=None):
    """``pattern_corr``'s arguments for one weight set, (M,), shared by
    every angle, or for S sets, (S, M), angle a taking set ``sets[a]``."""
    phases, delays = np.atleast_2d(phases, delays)
    return (cos_angles, _kernels.phasor_split(slope_scale, freqs),
            _kernels.pattern_coefficients(freqs, phases, delays), sets)


def _corr(*args):
    """``pattern_corr`` of the weight set of ``_kernel_args(*args)``."""
    return _kernels.pattern_corr(*_kernel_args(*args))


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
        got = _corr(ca, fr, ph, de, ss)
        np.testing.assert_allclose(got, pattern_corr_py(ca, fr, ph, de, ss),
                                   rtol=0, atol=1e-12)
        assert got.shape == (ca.size, fr.size)
        assert np.all(got <= 1.0 + 1e-12)
    # 64 elements, beyond the drawn ones, on a small grid
    ca, fr, ph, de = _random_pattern_inputs(rng)[:4]
    ph, de = rng.uniform(0.0, 2 * np.pi, 64), rng.uniform(0.0, 40e-9, 64)
    np.testing.assert_allclose(_corr(ca, fr, ph, de, ss),
                               pattern_corr_py(ca, fr, ph, de, ss), rtol=0,
                               atol=1e-12)


def _phasors(cos_angles, split):
    """The phasors of ``split``'s columns at ``cos_angles``, built as one
    chunk of the pattern kernel builds them."""
    z, acc = _kernels._chunk_buffers(cos_angles.size, split.width, None)[:2]
    _kernels._fill_phasors(cos_angles, split, z, acc)
    return z


@settings(max_examples=150, deadline=None)
@given(st.integers(1, MAX_NUM_RBS),
       st.integers(int(CARRIER_RANGE_HZ[0]), int(CARRIER_RANGE_HZ[1])),
       st.floats(1e-6, MAX_SPACING_M), st.floats(-1.0, 1.0), st.data())
def test_split_phasors_stay_within_a_few_ulps_of_exp(num_rbs, carrier,
                                                     spacing, cos, data):
    # the RB centers of an integer-Hz carrier and subcarrier spacing are a
    # progression, split from four columns up; every phasor lies within a
    # few ulps of exp(j*c*s_k), scaled by the phase's magnitude, at the
    # ends and the middle of the cos range and at one drawn cos
    scs = data.draw(st.integers(
        int(SCS_RANGE_HZ[0]),
        min(int(SCS_RANGE_HZ[1]), carrier // (12 * num_rbs))))
    freqs = FrequencyGrid(carrier, 12.0 * num_rbs * scs, scs,
                          num_rbs).rb_center_freqs()
    split = _kernels.phasor_split(
        2.0 * math.pi * spacing / SPEED_OF_LIGHT_M_S, freqs)
    fine = split.fine.size
    assert (fine > 1) == (num_rbs >= 4)
    assert split.width == num_rbs and split.coarse.size == -(-num_rbs // fine)
    cos_angles = np.array([-1.0, 0.0, 1.0, cos])
    phase = cos_angles[:, None] * (
        2.0 * math.pi * spacing / SPEED_OF_LIGHT_M_S * freqs)
    err = np.abs(_phasors(cos_angles, split) - np.exp(1j * phase))
    assert np.all(err <= 4 * np.finfo(float).eps
                  * np.maximum(1.0, np.abs(phase)))


def test_a_non_progression_axis_keeps_the_per_column_phasors():
    # random frequencies take the one-factor form: each column keeps its
    # own slope, each phasor the bits of cos and sin of its own phase, and
    # each correlation the bits of the Horner steps on the whole arrays
    rng = np.random.default_rng(31)
    for _ in range(8):
        ca, fr, ph, de, ss, num_el = _random_pattern_inputs(rng)
        split = _kernels.phasor_split(ss, fr)
        assert split.fine.tolist() == [0.0]
        assert np.array_equal(split.coarse, ss * fr)
        arg = ca[:, None] * (ss * fr)
        z = np.empty(arg.shape, dtype=np.complex128)
        np.cos(arg, out=z.real)
        np.sin(arg, out=z.imag)
        assert np.array_equal(_phasors(ca, split), z)
        coef = _kernels.pattern_coefficients(fr, [ph], [de])
        acc = np.broadcast_to(coef[-1], z.shape)
        for m in range(num_el - 2, -1, -1):
            acc = acc * z + coef[m]
        assert np.array_equal(_kernels.pattern_corr(ca, split, coef),
                              np.abs(acc) / num_el)


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
    # the scan's tiles give every score the bits of the whole
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
    # up to the 1024-element cap, at the default delay line's 64 taus
    for num_el in (256, 1024):
        target = np.exp(1j * slopes[:, None] * np.arange(num_el)[None, :])
        assert np.array_equal(
            _kernels.delay_scan(slopes, table[:64], num_el),
            table[:64] @ target), num_el
    # element counts whose one-wide tail joins the tile before it, and 1023
    # below the cap (1.3 s at 3168 frequencies, where 1024 stands for it),
    # at tau counts with one row, one full tile, a joined tail and a new tile
    sizes = (17, 33, 49, 65, 129, 257)
    if num_freqs <= 264:
        sizes += (1023,)
    for num_el in sizes:
        target = np.exp(1j * slopes[:, None] * np.arange(num_el)[None, :])
        for taus in (1, 2, 17, 64, 65):
            twiddles = table[:taus]
            assert np.array_equal(
                _kernels.delay_scan(slopes, twiddles, num_el),
                twiddles @ target), (num_el, taus)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(slopes=hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(
           -1e6, 1e6, allow_subnormal=True).filter(
               lambda x: x != 0.0 or math.copysign(1.0, x) > 0.0)),
       num_el=st.sampled_from([1, 2, 15, 16, 17, 64, 257, 1024]))
def test_phase_ramps_equal_the_complex_exponential(slopes, num_el):
    # the delay scan's target table from np.cos and np.sin keeps every bit
    # of np.exp of the imaginary products, zero and sign bits included,
    # for slopes past any a 10 m, 1 THz array has; a slope of -0.0, which
    # no target angle gives, would flip the sign of its zero sines
    want = np.exp(1j * slopes[:, None] * np.arange(num_el, dtype=np.float64))
    got = _kernels.phase_ramps(slopes, num_el)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


@pytest.mark.skipif(_kernels._usable_cpus() < 2,
                    reason="BLAS runs one thread on one CPU")
@pytest.mark.parametrize("num_freqs", [264, 3168])
def test_delay_scan_leaves_no_blas_thread_spinning(num_freqs):
    # OpenBLAS splits a large product over worker threads, which then spin
    # for about 0.13 s; the scan's 16 x 16 tiles stay on the calling
    # thread, so the process is idle while it sleeps after a 64-tau scan,
    # at 16 elements and at 64 and 256, where one 16-tau block of all
    # columns would wake a worker
    rng = np.random.default_rng(16)
    freqs = rng.uniform(27e9, 29e9, num_freqs)
    twiddles = _kernels.delay_twiddles(np.arange(64) * 2.5e-9, freqs)
    slopes = rng.uniform(-np.pi, np.pi, num_freqs)
    # lets any worker woken earlier settle; each idle sleep below then
    # settles the next scan
    time.sleep(0.3)
    for num_el in (16, 64, 256):
        _kernels.delay_scan(slopes, twiddles, num_el)
        before = _cpu_s()
        time.sleep(0.3)
        assert _cpu_s() - before < 0.03, num_el


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
    got = _corr(cos_angles, freqs, phases, delays, SLOPE_SCALE)
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
        whole = _corr(ca, freqs, phases, delays, SLOPE_SCALE)
        monkeypatch.setattr(_kernels, "PATTERN_CHUNK_CELLS",
                            chunk * freqs.size)
        chunked = _corr(ca, freqs, phases, delays, SLOPE_SCALE)
        assert np.array_equal(chunked, whole), count


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_pattern_corr_per_angle_coefficient_rows_equal_one_angle_calls(
        monkeypatch, cpus):
    # each angle names one of S weight sets, whose coefficients each chunk
    # gathers: full width from sets with delays, one column wide from sets
    # without any; row a equals angle a's own call with its set's (M, 1, K)
    # table bit for bit, on grids of several chunks, which the threads
    # hand out and whose set indices each chunk slices, of one-cell chunks
    # and of one cell, and at the serving-beam pick's shape, 16 sets of one
    # column over 8 angles, in one chunk and in chunks of 6 cells
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: cpus)
    rng = np.random.default_rng(17)
    for num_sets, num_freqs, num_angles, chunk_rows in (
            (3, 24, 10, 3), (3, 24, 9, 9), (3, 1, 7, 1), (3, 1, 1, 1),
            (3, 264, 8, 124), (16, 1, 8, 8), (16, 1, 8, 6)):
        monkeypatch.setattr(_kernels, "PATTERN_CHUNK_CELLS",
                            chunk_rows * num_freqs)
        freqs = _rb_freqs(num_freqs)
        split = _kernels.phasor_split(SLOPE_SCALE, freqs)
        cos_angles = np.cos(rng.uniform(0.0, np.pi, num_angles))
        phases = rng.uniform(0.0, 2 * np.pi, (num_sets, 16))
        serving = rng.integers(0, num_sets, num_angles)
        for delays in (rng.integers(0, 64, (num_sets, 16)) * 2.5e-9,
                       np.zeros((num_sets, 16))):
            tables = _kernels.pattern_coefficients(freqs, phases, delays)
            assert tables.shape[2] == (num_freqs if delays.any() else 1)
            rows = _kernels.pattern_corr(cos_angles, split, tables, serving)
            assert rows.shape == (num_angles, num_freqs)
            for a, s in enumerate(serving.tolist()):
                own = np.ascontiguousarray(np.broadcast_to(
                    tables[:, s:s + 1], (16, 1, num_freqs)))
                want = _kernels.pattern_corr(cos_angles[a:a + 1], split, own)
                assert np.array_equal(rows[a], want[0]), (num_freqs,
                                                          num_angles, a)


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
    # 2, 3, 7 and 8 chunks, the last one partial, one-row and one-cell
    # chunks, rows that name their weight sets, 264-column chunks of 112 rows
    # (7 whole 16-row tiles), and one chunk, which starts no thread: every
    # cell equals the one-thread run's, with one thread per CPU up to one
    # per chunk, the calling thread included; a short switch interval makes
    # the threads interleave their hand-outs
    rng = np.random.default_rng(13)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for num_sets, num_freqs, num_angles, chunk_rows in (
                (1, 24, 10, 5), (1, 24, 11, 5), (2, 12, 33, 5),
                (1, 24, 7, 1), (3, 1, 9, 1), (1, 1, 5, 1),
                (1, 264, 800, 112), (1, 264, 8, 124)):
            monkeypatch.setattr(_kernels, "PATTERN_CHUNK_CELLS",
                                chunk_rows * num_freqs)
            freqs = _rb_freqs(num_freqs)
            args = _kernel_args(
                np.cos(rng.uniform(0.0, np.pi, num_angles)), freqs,
                rng.uniform(0.0, 2 * np.pi, (num_sets, 16)),
                rng.integers(0, 64, (num_sets, 16)) * 2.5e-9, SLOPE_SCALE,
                rng.integers(0, num_sets, num_angles) if num_sets > 1
                else None)
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
        _corr(np.cos(np.linspace(0.1, 3.0, 20)), _rb_freqs(24),
              np.zeros(16), np.zeros(16), SLOPE_SCALE)
    assert failed.is_set()


def _wide_freqs(num_freqs):
    """``num_freqs`` RB-spaced frequencies about 28 GHz, any count up to
    the 1024-RB cap."""
    return 28e9 + 120e3 * 12.0 * (np.arange(num_freqs) - num_freqs / 2.0)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("num_freqs", [1, 24, 263, 264, 1024])
def test_pattern_corr_tiled_rows_equal_one_angle_calls(monkeypatch, cpus,
                                                       num_freqs):
    # at the kernel's own chunk size a shared (M, 1, K) table of K > 1
    # columns is added from a tile of T rows, T*K just past
    # PATTERN_TILE_RUN, with chunks of whole tiles: every row equals its
    # one-angle call, whose one row is added by broadcast, bit for bit, at
    # angle counts around a tile, a chunk and two chunks with a short last
    # one; one column is added untiled, as a scalar. At 263 columns, which
    # have no divisor from sqrt(K) to 2*sqrt(K), the phasors' last run of
    # fine phasors is short
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: cpus)
    rng = np.random.default_rng(23 + num_freqs)
    freqs = _wide_freqs(num_freqs)
    split = _kernels.phasor_split(SLOPE_SCALE, freqs)
    tile = _kernels._tile_rows(num_freqs)
    chunk = _kernels.PATTERN_CHUNK_CELLS // num_freqs
    if num_freqs > 1:
        assert tile * num_freqs > _kernels.PATTERN_TILE_RUN
        assert tile * num_freqs * 16 < 128 * 1024
        chunk -= chunk % tile
    counts = {1, tile - 1, tile, tile + 1, chunk - 1, chunk, chunk + 1,
              2 * chunk + tile + 1}
    if num_freqs == 1:
        counts = {1, 2, 7, 300}
    for num_el in (1, 2, 16, 64):
        coef = _kernels.pattern_coefficients(
            freqs, rng.uniform(0.0, 2 * np.pi, (1, num_el)),
            rng.integers(0, 64, (1, num_el)) * 2.5e-9)
        assert coef.shape == (num_el, 1, num_freqs)
        for count in sorted(counts):
            cos_angles = np.cos(rng.uniform(0.0, np.pi, count))
            rows = _kernels.pattern_corr(cos_angles, split, coef)
            for a in range(count):
                want = _kernels.pattern_corr(cos_angles[a:a + 1], split, coef)
                assert np.array_equal(rows[a], want[0]), (num_el, count, a)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_table_gain_db_equals_the_whole_map_db(monkeypatch, cpus):
    # the floor, log10, x20 and +peak that each chunk's thread takes in
    # place (pattern_corr's db steps) give the bits of the same steps on
    # the whole correlation map, at several chunks with a short last one,
    # a set per angle, one-column tables, a floored null and a one-cell grid
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: cpus)
    rng = np.random.default_rng(29)
    cfg = ArrayConfig.half_wavelength(16, 28e9, 28.0)
    for num_freqs, num_angles, per_angle, delayed in (
            (264, 300, False, True), (24, 2000, False, True),
            (1024, 61, False, True), (24, 40, True, True),
            (24, 40, True, False), (1, 5000, False, False),
            (1, 1, False, True)):
        freqs = _wide_freqs(num_freqs)
        sets = num_angles if per_angle else 1
        delays = rng.integers(0, 64, (sets, 16)) * 2.5e-9 * delayed
        split = _kernels.phasor_split(SLOPE_SCALE, freqs)
        coef = _kernels.pattern_coefficients(
            freqs, rng.uniform(0.0, 2 * np.pi, (sets, 16)), delays)
        cos_angles = np.cos(rng.uniform(0.0, np.pi, num_angles))
        # a uniform weight set's null at the first column: -80 dB floor
        cos_angles[0] = 2 * np.pi / (16 * (SLOPE_SCALE * freqs[0]))
        rows = np.arange(num_angles) if per_angle else None
        if not per_angle:
            coef[:, 0, :] = 1.0
        want = _kernels.pattern_corr(cos_angles, split, coef, rows)
        if not per_angle:
            assert want[0, 0] < CORRELATION_FLOOR
        np.maximum(want, CORRELATION_FLOOR, out=want)
        want = 20.0 * np.log10(want) + cfg.peak_gain_db
        got = _kernels.pattern_corr(cos_angles, split, coef, rows,
                                    (CORRELATION_FLOOR, cfg.peak_gain_db))
        assert np.array_equal(got, want), (num_freqs, num_angles, per_angle)


def test_pattern_corr_raises_a_worker_thread_db_step_error(monkeypatch):
    # a dB step that fails on another thread fails the call once every
    # thread the call started has ended
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    failed = threading.Event()

    def gain_db(corr, floor, peak_db):
        if threading.current_thread() is not threading.main_thread():
            failed.set()
            raise FloatingPointError("dB step failed")
        failed.wait(5.0)  # the calling thread waits for a worker's chunk

    monkeypatch.setattr(_kernels.threading, "Thread", CountedThread)
    monkeypatch.setattr(_kernels, "_gain_db", gain_db)
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(_kernels, "PATTERN_CHUNK_CELLS", 24 * 4)
    freqs = _rb_freqs(24)
    with pytest.raises(FloatingPointError, match="dB step failed"):
        serving_gain_db(ArrayConfig.half_wavelength(16, 28e9, 28.0),
                        [PhaseTimeWeights(np.ones(16) * 1e-9, np.zeros(16))],
                        np.zeros(20, dtype=int),
                        np.cos(np.linspace(0.1, 3.0, 20)), freqs)
    assert failed.is_set() and len(started) == 1
    assert not started[0].is_alive()


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
        corr = _corr(cos_angles, freqs, phases, delays, SLOPE_SCALE)
        assert corr.max() == pytest.approx(1.0, abs=1e-12)
        assert np.all(corr <= 1.0 + 1e-12)


def test_pattern_corr_single_element_runs_no_horner_step():
    rng = np.random.default_rng(10)
    cos_angles = np.cos(np.linspace(0.1, 3.0, 7))
    freqs = _rb_freqs(24)
    phases = rng.uniform(0.0, 2 * np.pi, 1)
    delays = np.array([157.5e-9])
    got = _corr(cos_angles, freqs, phases, delays, SLOPE_SCALE)
    assert got.shape == (7, 24)
    np.testing.assert_allclose(got, 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        got, pattern_corr_py(cos_angles, freqs, phases, delays, SLOPE_SCALE),
        rtol=0, atol=1e-15)


def test_zero_delay_coefficients_equal_the_per_column_table():
    # an element whose argument is the same at every frequency under its
    # set (a zero delay) gets the same exponential in every column: a PAA
    # beam (no delay), four of them in one pass, a set with some zero
    # delays, and three sets in one pass, where a zero delay under each
    # set's own phase is constant per set; every table equals the per-set,
    # per-column one bit for bit, one column standing for all where no set
    # has a delay
    rng = np.random.default_rng(13)
    freqs = _rb_freqs(264)
    mixed = np.where(rng.random(16) < 0.5, 0,
                     rng.integers(1, 64, 16)) * 2.5e-9
    sets_delays = np.where(rng.random((3, 16)) < 0.5, 0,
                           rng.integers(1, 64, (3, 16))) * 2.5e-9
    sets_delays[:, 3] = 0.0
    for phases, delays in (
            (rng.uniform(0.0, 2 * np.pi, (1, 16)), np.zeros((1, 16))),
            (rng.uniform(0.0, 2 * np.pi, (4, 16)), np.zeros((4, 16))),
            (rng.uniform(0.0, 2 * np.pi, (1, 16)), mixed[None]),
            (rng.uniform(0.0, 2 * np.pi, (3, 16)), sets_delays)):
        args = [p + _kernels.TWO_PI * freqs[:, None] * d
                for p, d in zip(phases, delays)]
        constant = sum(np.sum(np.all(a == a[:1], axis=0)) for a in args)
        assert constant == np.sum(delays == 0) > 0
        got = _kernels.pattern_coefficients(freqs, phases, delays)
        want = np.stack([np.exp(-1j * a).T for a in args], axis=1)
        assert got.flags.c_contiguous
        # sets without any delay take a one-column table
        width = 264 if delays.any() else 1
        assert got.shape == (16, len(phases), width)
        assert want.shape == (16, len(phases), 264)
        assert np.broadcast_to(got, want.shape).tobytes() == want.tobytes()


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


def _rows_where_the_logs_differ(rng, count, rbs, beta):
    """Random descending gain rows (dB, one ring at 0 dB link gain) whose
    full-allocation EESM mean gets a different ``np.log`` from
    ``math.log``, half of them larger and half smaller: on those rows an
    effective SNR decided or reported with ``math.log`` is an ulp off the
    one the rate path computes with ``np.log``."""
    rows = {True: [], False: []}
    while min(len(r) for r in rows.values()) < count // 2:
        block = np.sort(rng.uniform(-10.0, 30.0, (4000, rbs)), axis=1)[:, ::-1]
        values = snr_rows(np.zeros(1), block, 0.0)[:, 0] / rbs
        means = np.mean(np.exp(-(values - values[:, -1:]) / beta), axis=1)
        logs = np.log(means)
        scalar = np.array([math.log(m) for m in means])
        for up in rows:
            rows[up].extend(block[(logs > scalar) if up else (logs < scalar)])
    return rows[True][:count // 2] + rows[False][:count - count // 2]


@pytest.mark.parametrize("rings", [1, 2, 160])
@pytest.mark.parametrize("distinct_betas", [False, True])
def test_rate_scan_batch_meets_exact_thresholds(rings, distinct_betas):
    # The top MCS threshold equals the effective SNR of a pinned user's
    # whole row at one ring, as the rate path computes it with np.log, so
    # that pair's best grant is the whole row at the top MCS, met with
    # equality, and it reports 10 * np.log10 of that very threshold. The
    # rows are picked where np.log and math.log differ, in both directions,
    # so a decision or a report taken with math.log misses the grant or its
    # bits.
    rng = np.random.default_rng(11 + rings + 1000 * distinct_betas)
    rbs = 12
    betas = np.array([0.7, 1.9]) if distinct_betas else np.ones(2)
    se = np.array([1.0, 2.0])
    for pinned in _rows_where_the_logs_differ(rng, 4, rbs, betas[1]):
        link_db, swept = _sweep(rng, rings, rbs)
        r = int(rng.integers(rings))
        link_db[r] = 0.0
        values = snr_rows(np.zeros(1), pinned[None, :], 0.0)[0, 0] / rbs
        top = values[-1] - betas[1] * np.log(
            np.mean(np.exp(-(values - values[-1]) / betas[1])))
        thr_lin = np.array([top * 1e-3, top])
        got = _assert_matches_oracle(link_db, np.vstack((swept, pinned)),
                                     0.0, thr_lin, se, betas)
        assert (got[0][1, r], got[1][1, r], got[2][1, r]) == (
            rbs, 1, 10.0 * np.log10(top))


def test_rate_scan_chunks_match_oracle(monkeypatch):
    # chunks of about one candidate (1 and 7 terms) and of many (40 and
    # 1000 terms); a chunk holds whole candidates, 5 to 18 terms each with
    # its zero slot
    rng = np.random.default_rng(41)
    for chunk in (1, 7, 40, 1000):
        monkeypatch.setattr(_kernels, "EESM_CHUNK_TERMS", chunk)
        for distinct_betas in (False, True):
            thr_lin, se, betas = _rate_inputs(rng, 8, distinct_betas)
            link_db, gain_db = _one_ring_users(
                rng.uniform(-10.0, 50.0, (30, 17)))
            _assert_matches_oracle(link_db, gain_db, 0.0, thr_lin, se, betas)


# RB counts where numpy's pairwise sum changes shape: its 8-way unrolled
# loop starts at 8 terms, past 128 terms it splits the sum in two, and
# past 256 each half splits again
_PAIRWISE_EDGES = [1, 7, 8, 9, 128, 129, 256, 257, 1100]


@st.composite
def _eesm_candidates(draw):
    """``_eesm_stage``'s inputs, 1-3 users with 1100 gains each seen at 1-4
    rings, and the EESM chunk size: runs of 1-4 candidates of equal n, 1 to
    1100 RBs with the pairwise-sum edges, at random users and rings, and
    1-3 distinct betas."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    users, rings = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    runs = draw(st.lists(st.tuples(
        st.one_of(st.sampled_from(_PAIRWISE_EDGES), st.integers(1, 1100)),
        st.integers(1, 4)), min_size=1, max_size=12))
    live_n = np.repeat(*np.array(runs).T)
    betas = np.unique(draw(st.lists(st.floats(0.5, 3.0), min_size=1,
                                    max_size=3)))
    chunk = draw(st.one_of(st.sampled_from([1, 300, 1 << 15]),
                           st.integers(1, 4000)))
    return (chunk, rng.uniform(-30.0, 0.0, rings),
            np.sort(rng.uniform(-10.0, 50.0, (users, 1100)), axis=1)[:, ::-1],
            0.0, rng.integers(0, users, live_n.size),
            rng.integers(0, rings, live_n.size), live_n, betas)


def test_eesm_stage_means_equal_each_candidates_own_reduce(monkeypatch):
    # One reduceat sums every candidate of a chunk. Each mean must keep the
    # bits of the 1-D pairwise np.add.reduce over that candidate's terms
    # alone, divided by n, at every length, beta and chunk cut
    def check(chunk, *args):
        monkeypatch.setattr(_kernels, "EESM_CHUNK_TERMS", chunk)
        got = _kernels._eesm_stage(*args)
        want = eesm_stage_py(*args)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    # every pairwise-sum edge three times over, at three betas, in chunks
    # that cut the runs of 128 RBs and longer
    check(300, np.array([-3.0, -20.0]),
          np.sort(np.random.default_rng(7).uniform(-10.0, 50.0, (2, 1100)),
                  axis=1)[:, ::-1], 0.0,
          np.arange(27) % 2, np.arange(27) % 3 % 2,
          np.repeat(_PAIRWISE_EDGES, 3), np.array([0.7, 1.0, 2.9]))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(problem=_eesm_candidates())
    def check_drawn(problem):
        check(*problem)

    check_drawn()


@st.composite
def _pow10_exponents(draw):
    """Exponents over the +-1300 dB SNR range, ``x = snr_db / 10``: 1-70
    terms, or one chunk of ``pow10``'s base or of the rate scan's EESM, or
    one term either side of it."""
    sizes = [size + step for size in (_kernels._TENS.size,
                                      _kernels.EESM_CHUNK_TERMS)
             for step in (-1, 0, 1)]
    size = draw(st.one_of(st.integers(1, 70), st.sampled_from(sizes)))
    if size > 70:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        return rng.uniform(-130.0, 130.0, size)
    return np.array(draw(st.lists(st.floats(-130.0, 130.0), min_size=size,
                                  max_size=size)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(x=_pow10_exponents(), in_place=st.booleans())
def test_pow10_equals_power_with_a_scalar_base(x, in_place):
    # the full-array base changes numpy's loop, not the bits
    want = np.power(10.0, x)
    got = _kernels.pow10(x, out=x) if in_place else _kernels.pow10(x)
    assert (got is x) == in_place
    assert got.tobytes() == want.tobytes()


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


def test_eesm_snr_db_is_the_last_step_of_the_oracle():
    # the one home of 10*log10(v_min - beta*ln(mean)): a scalar beta, or one
    # per entry, gives each row the oracle's dB value bit for bit
    rng = np.random.default_rng(71)
    rows = rng.uniform(-20.0, 40.0, (30, 9))
    lin = 10.0 ** (rows / 10.0)
    v_min = lin.min(axis=1)
    betas = rng.uniform(0.1, 1e4, rows.shape[0])
    for beta in (0.7, 2.5, betas):
        b = np.broadcast_to(beta, v_min.shape)
        means = np.array([np.mean(np.exp(-(row - v) / bb))
                          for row, v, bb in zip(lin, v_min, b)])
        got = _kernels.eesm_snr_db(v_min, means, beta)
        assert got.tolist() == [eesm_effective_snr_db_py(row, bb)
                                for row, bb in zip(rows, b.tolist())]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_eesm_snr_db_equals_the_python_expression(data):
    # over broadcast shapes, betas up to the cap and shifted means next to
    # 1, where beta * ln(mean) is least: every entry has the bits of the
    # scalar expression 10 * np.log10(v - beta * np.log(m)) of that entry
    # alone, whatever its position in the arrays
    shapes = data.draw(hnp.mutually_broadcastable_shapes(
        num_shapes=3, max_dims=3, max_side=4))
    near_one = st.integers(0, 64).map(lambda k: 1.0 - k * 2.0 ** -53)
    inputs = [data.draw(hnp.arrays(np.float64, shape, elements=elements))
              for shape, elements in zip(shapes.input_shapes, (
                  st.floats(1e-12, 1e12),
                  st.one_of(near_one, st.floats(1e-300, 1.0)),
                  st.floats(1e-3, MAX_EESM_BETA)))]
    got = _kernels.eesm_snr_db(*inputs)
    assert got.shape == shapes.result_shape
    want = [10.0 * np.log10(v - beta * np.log(m)) for v, m, beta
            in zip(*(a.ravel().tolist()
                     for a in np.broadcast_arrays(*inputs)))]
    assert [g.hex() for g in got.ravel().tolist()] == \
        [float(w).hex() for w in want]


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="needs a long double of 63 mantissa bits or more")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_eesm_snr_db_within_its_bound_of_the_long_double_value(data):
    # the bound derived in eesm_snr_db's docstring, plus the long-double
    # oracle's own, holds for linear SNRs from 1e-30 to 1e30, shifted means
    # next to 1, next to the smallest normal float and between, and betas
    # up to the cap
    tiny = np.finfo(np.float64).smallest_normal
    means = st.one_of(
        st.integers(0, 1 << 20).map(lambda k: 1.0 - k * 2.0 ** -53),
        st.floats(tiny, tiny * 2.0 ** 64), st.floats(tiny, 1.0))
    betas = st.one_of(st.floats(1e-3, MAX_EESM_BETA),
                      st.just(MAX_EESM_BETA))
    size = data.draw(st.integers(1, 40))
    v_min, mean, beta = (data.draw(hnp.arrays(np.float64, size, elements=e))
                         for e in (st.floats(1e-30, 1e30), means, betas))
    got = _kernels.eesm_snr_db(v_min, mean, beta)
    want = eesm_snr_db_longdouble(v_min, mean, beta)
    err = np.abs(got.astype(np.longdouble) - want)
    y_db = want.astype(np.float64)
    bound = eesm_snr_db_bound(y_db) + eesm_snr_db_bound(
        y_db, unit=float(np.finfo(np.longdouble).eps) / 2.0)
    assert np.all(err <= bound), (err / bound).max()


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
    rows themselves keep, lists each once, and keeps none that those bounds
    drop once widened to twice their margin. Each candidate's
    upper-bound MCS is at least the MCS its exact EESM meets."""
    counts = np.arange(4, gain_db.shape[1] + 1)
    *live, live_mcs = _kernels._envelope_candidates(
        link_db, gain_db, noise_db, 4, thr_lin, se, betas.max())
    got = list(zip(*(a.tolist() for a in live)))
    assert len(set(got)) == len(got)
    rows = snr_rows(link_db, gain_db, noise_db)
    unique_betas, beta_idx = np.unique(betas, return_inverse=True)
    for (u, r, n), i in zip(got, live_mcs.tolist()):
        assert i >= highest_mcs_py(rows[u, r], n, thr_lin, unique_betas,
                                   beta_idx)[0], (u, r, n)
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


def test_envelope_lists_no_ring_past_every_interval():
    # rings 200 dB below the noise floor lie below every interval's start:
    # nothing is live, and every pair is an outage, as the oracle finds
    rng = np.random.default_rng(52)
    noise_db = -107.4
    link_db = noise_db - 200.0 - np.sort(rng.uniform(0.0, 40.0, 20))
    gain_db = np.sort(rng.uniform(-10.0, 28.0, (3, 24)), axis=1)[:, ::-1]
    thr_lin, se, betas = _rate_inputs(rng, 8, True)
    live = _kernels._envelope_candidates(link_db, gain_db, noise_db, 4,
                                         thr_lin, se, betas.max())
    assert [a.size for a in live] == [0] * 4
    assert _assert_envelope_holds_per_cell(link_db, gain_db, noise_db,
                                           thr_lin, se, betas) == set()
    mcs = _assert_matches_oracle(link_db, gain_db, noise_db, thr_lin, se,
                                 betas)[1]
    assert np.all(mcs == -1)


def test_envelope_ring_on_an_interval_end():
    # Four RBs at unit SNR and one ring at link gain 1 (0 dB), on a
    # two-level ladder whose upper threshold puts MCS 1's meet point, where
    # MCS 0's interval ends and MCS 1's starts, exactly on the ring: the
    # half-open intervals list the ring once, under MCS 1, and its exact
    # decision is the oracle's (MCS 0 on all four RBs)
    noise_db = -100.0
    gain_db = np.full((1, 4), noise_db)
    link_db = np.array([0.0])
    assert np.array_equal(_kernels.snr_unsplit(link_db, gain_db, noise_db),
                          np.ones((1, 4)))
    rel = _kernels._BOUND_REL
    # the envelope's widened upper bound of n = 4, and the threshold whose
    # widened value meets it exactly at link gain 1
    high = 4.0 / 16 * ((1.0 + rel) * (1.0 + _kernels._FACTOR_REL))
    thr = high + rel
    while thr - rel < high:
        thr = np.nextafter(thr, np.inf)
    while thr - rel > high:
        thr = np.nextafter(thr, -np.inf)
    assert thr - rel == high
    thr_lin, se, betas = np.array([0.1, thr]), np.array([1.0, 2.0]), \
        np.ones(2)
    live = _kernels._envelope_candidates(link_db, gain_db, noise_db, 4,
                                         thr_lin, se, 1.0)
    assert [a.tolist() for a in live] == [[0], [0], [4], [1]]
    _assert_envelope_holds_per_cell(link_db, gain_db, noise_db, thr_lin, se,
                                    betas)
    got = _assert_matches_oracle(link_db, gain_db, noise_db, thr_lin, se,
                                 betas)
    assert (got[0].tolist(), got[1].tolist()) == ([[4]], [[0]])


def _stage_sizes(monkeypatch):
    """Candidates the rate scan evaluates, one list entry per stage (two per
    call), recorded from its EESM calls."""
    sizes = []
    eesm_stage = _kernels._eesm_stage

    def spy(link_db, gain_db_desc, noise_db, user, ring, live_n,
            unique_betas):
        sizes.append(live_n.tolist())
        return eesm_stage(link_db, gain_db_desc, noise_db, user, ring, live_n,
                          unique_betas)

    monkeypatch.setattr(_kernels, "_eesm_stage", spy)
    return sizes


def test_two_stage_rate_scan_equals_oracle(monkeypatch):
    # every pair of every drawn problem against the one-row oracle; the
    # draws must reach stage 2, where a pair's other candidates whose bound
    # reaches its stage-1 rate are evaluated
    stages = _stage_sizes(monkeypatch)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(problem=_user_problems())
    def check(problem):
        _assert_matches_oracle(*problem)

    check()
    assert len(stages) % 2 == 0
    assert sum(len(n) for n in stages[1::2]) > 0


def test_rate_scan_tie_found_in_stage_2_wins(monkeypatch):
    # Four equal strong RBs and four weak ones. Four RBs at MCS 1 and eight
    # at MCS 0 both carry se * n = 8 exactly. Eight RBs have the largest
    # bound (16: their mean still meets MCS 1), so stage 1 evaluates them
    # and finds rate 8; the four-RB twin, bound 8, is found only in stage 2
    # and must win the tie by its higher MCS.
    stages = _stage_sizes(monkeypatch)
    gain_db = np.array([[30.0] * 4 + [-10.0] * 4])
    thr_lin, se = np.array([0.5, 50.0]), np.array([1.0, 2.0])
    got = _assert_matches_oracle(np.zeros(1), gain_db, 0.0, thr_lin, se,
                                 np.ones(2))
    assert (got[0][0, 0], got[1][0, 0], got[3][0, 0]) == (4, 1, 8.0)
    assert stages[0] == [8] and 4 in stages[1]
    # eight RBs alone meet MCS 0 only
    row = snr_rows(np.zeros(1), gain_db, 0.0)[0, 0]
    assert rate_scan_py(row, thr_lin, se, np.ones(1),
                        np.zeros(2, dtype=np.int64), 8)[:2] == (8, 0)


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
        eff = values[-1] - beta * np.log(
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
        assert (got[0][0, 1], got[1][0, 1], got[2][0, 1]) == (
            rbs, 1, 10.0 * np.log10(top)), rbs


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
