"""Hot numerical kernels, one numpy implementation each.

Three loops dominate the toolkit's numerical run time:

* the angle x column pattern grid (``pattern_corr``), chunked over angles
  and split over the usable CPUs. On an evenly spaced frequency axis of K
  columns, column k = q*B + r of a coarse and a fine table of about
  sqrt(K) columns each (``phasor_split``) has a phasor and coefficients
  that factor into a coarse and a fine part, so each angle's map is one
  (Q x M) @ (M x B) complex matrix product of coefficient tables
  (``pattern_coefficients``) times phasor powers, all of a chunk's angles
  in one stacked ``np.matmul``; any other axis, and one of fewer than
  four columns, takes the same product with B = 1, one coarse column per
  frequency and a fine table of ones. The coarse coefficient tables and
  the fine delay phases (one pass over any number of weight sets, their
  arguments reduced mod 2*pi in long double, one column wide when no set
  has a delay) serve each row the set it names, and a lone set's table every
  row, so one call serves a one-cell beam gain, a pattern map, the
  serving-beam pick or every UE's gain row toward its own angle from its
  own serving set. Every phasor table is one ``np.cos`` and ``np.sin`` per
  base and its powers by repeated doubling; the fine table is the powers
  of one phasor per angle and element, which carries the fine
  coefficient too. The thread that computes a chunk also takes its
  magnitudes, or for gains its dB step on ``re**2 + im**2``;
* the per-antenna delay-grid scan of the wideband beam designer
  (``delay_scan``), a complex matrix product of a twiddle table
  (``delay_twiddles``), of which the designer keeps the last two it used,
  and a target table of phasor powers, one ``np.cos`` and ``np.sin`` per
  frequency (``phase_ramps``), taken in row blocks that keep it on the
  calling thread;
* the RB-count x MCS rate search with an EESM average inside
  (``rate_scan_batch``), batched over every (user, ring) pair of one share
  width. Exact bounds prune it first: every EESM effective SNR lies between
  the weakest split SNR and the mean split SNR, and across one user's rings
  both bounds scale with the ring's link gain. So each (RB count, MCS) pair
  can win only on one interval of link gain, and one binary search per
  interval lists the live candidates before any exponential is taken, in a
  rate order built once per MCS ladder and share width. The intervals read
  no ring, so they are built once per set of gain rows and kept
  (``_envelope_intervals``): a scan of the same rows at other rings only
  places its rings in them. The interval also
  caps each candidate's rate, so the EESM runs in two stages: each pair's
  candidate of the largest cap first, then only the others whose cap
  reaches that exact rate. The SNR rows are the products G*s of each
  ring's link gain and each user's sorted gain/noise row, both built once
  per scan; an evaluated candidate's EESM terms are ``exp((w - s[k]) *
  (G/(n*beta)))``, ``w = s[n-1]`` its weakest, gathered in the EESM's
  chunk loop, and one ``reduceat`` per chunk, each row led by a zero, sums
  every row with the bits of its own ``np.mean``. A candidate's MCS is
  decided with its linear effective SNR (``_eesm_linear``), and a winner
  reports ``10 * log10`` of that very value; an outage reports the EESM of
  its most concentrated allowed grant from the same stage. On the
  criterion-4 deployment at 160 rings the EESM runs for 0.6-1.0% of the
  (user, ring, RB count) candidates, at 1.3 times the terms of the winners
  alone.

The pattern CSV's text formatter (``format_g6``) lives with its writer in
``jpta.cli``. ``tests/oracles.py`` holds plain-loop references for all three
kernels, which the tests check them against and
``benchmarks/bench_kernels.py`` times them against.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

# complex cells of one angle chunk of the pattern grid, counted over its
# power tables and its product (``_cells_per_angle``): 2 MB a chunk. Three
# 3001 x 264 x 16 swept maps (808 cells per angle, chunks of 162 angles)
# took 31.1 ms best of 25 on two CPUs, against 35.1 at 1 << 16, 50.1 at
# 1 << 15 (smaller chunks, more numpy calls that need the interpreter
# lock) and 39.6 at 1 << 18; 40-45 ms on one CPU at any of them
PATTERN_CHUNK_CELLS = 1 << 17

# complex multiply-adds (Q*B*elements) per BLAS product of the pattern grid,
# more than any; a row of more elements takes its product in element blocks
# that are summed. OpenBLAS (0.3.31) runs every complex product of fewer on
# the calling thread; from 65536 it splits some over its worker threads
# (32 x 64 x 32, a 1024-RB row of 64 elements, but not 12 x 1024 x 22),
# which then spin for about 0.12 s after the call, taking the CPU that the
# other chunk's thread needs: a 61-angle 1024-RB map of 64 elements took
# 1.05 s in one product per row, the first call starting the workers
PATTERN_GEMM_TERMS = 1 << 16


def backend() -> str:
    """Name of the kernel backend: always ``"numpy"``."""
    return "numpy"


# every table the package keeps, in the order they were defined
_KEPT_TABLES = []


def kept_table(maxsize):
    """Decorator: the function's results kept in a ``functools.lru_cache``
    of ``maxsize`` entries, one per value of its arguments, and the table
    listed so that ``clear_kept_tables`` reaches it. Every table keyed this
    way is keyed by the value of each input it reads, and its arrays are
    read-only."""
    def keep(build):
        table = functools.lru_cache(maxsize=maxsize)(build)
        _KEPT_TABLES.append(table)
        return table
    return keep


def clear_kept_tables() -> None:
    """Empty every table the package keeps, so the next call of each
    builds its table again, as the first call in a process does."""
    for table in _KEPT_TABLES:
        table.cache_clear()


# ---------------------------------------------------------------------------
# pattern correlation: |<steering(angle, f), response(f)>| on a grid
# ---------------------------------------------------------------------------

class PhasorSplit(NamedTuple):
    """The K column frequencies of a pattern grid as a coarse and a fine
    table, with the steering slope per Hz ``scale``: column k = q*B + r of
    ``width`` lies at ``coarse[q] + fine[r]``, B being ``fine.size``, so
    both its phasor ``exp(j*cos_a*scale*f_k)`` and its coefficients factor
    into a coarse and a fine part. With one fine offset, 0.0 (B = 1),
    every column is its own coarse frequency."""

    coarse: np.ndarray
    fine: np.ndarray
    width: int
    scale: float


# the largest residual, in ulps of the axis's largest frequency, of an axis
# that ``phasor_split`` splits. An axis whose entries lie within E of an
# exact progression g_k = g_0 + k*d has a step that misses d by (2E + U)/(K
# - 1) plus a rounding of u*|step| (U = np.spacing(max|f|), u = 2**-53),
# so a column's residual |f_qB + r*step - f_k| is at most 2E from the two
# entries plus r times that, under 4E + 2U as r < K - 1; taken in float64,
# r*step rounding by U/2 and its sum with f_qB by up to U, it reads 1.5U
# more. A FrequencyGrid's RB center c - x_k*scs, x_k exact, rounds twice,
# E <= U, so it reads at most 7.5U (at most 1.0U measured over 3000 drawn
# grids of non-integer carriers and SCS)
SPLIT_RESIDUAL_ULPS = 8


def phasor_split(scale, freqs):
    """The K frequencies ``freqs`` and the slope per Hz ``scale`` as a
    ``PhasorSplit``.

    Column k = q*B + r takes the coarse frequency ``f_qB`` (column qB's
    own) and the fine offset ``r*step``, ``step = (f_{K-1} - f_0)/(K -
    1)``: B + ceil(K/B) phasors and coefficients per angle and element
    instead of K. B is the smallest divisor of K from isqrt(K) to
    2*isqrt(K), else isqrt(K) with a short last run, whose product columns
    past K are dropped. The split is taken when the largest residual D =
    ``|f_qB + r*step - f_k|`` is at most ``SPLIT_RESIDUAL_ULPS`` ulps of
    the largest frequency, as it is on every ``FrequencyGrid`` axis: 0 on
    integer-Hz RB centers, about one ulp (3.8e-6 Hz at 28 GHz) on others.
    An axis of fewer than four columns, or one further from a progression,
    takes B = 1: one fine offset, 0.0, every column its own coarse
    frequency."""
    freqs = np.asarray(freqs, dtype=np.float64)
    size = freqs.size
    fine = _root_width(size)
    if fine > 1:
        step = (freqs[-1] - freqs[0]) / (size - 1)
        coarse, offsets = freqs[::fine], step * np.arange(fine)
        residual = np.add.outer(coarse, offsets).ravel()[:size] - freqs
        if np.abs(residual).max() <= SPLIT_RESIDUAL_ULPS * np.spacing(
                np.abs(freqs).max()):
            return PhasorSplit(coarse, offsets, size, scale)
    return PhasorSplit(freqs, np.zeros(1), size, scale)


def _root_width(size):
    """The run width that splits an axis of ``size``: its smallest divisor
    from isqrt(size) to 2*isqrt(size), else isqrt(size), the last run then
    short."""
    root = math.isqrt(size)
    return next((b for b in range(root, 2 * root + 1) if size % b == 0),
                root)


def pattern_coefficients(split, phases, delays):
    """The coarse coefficient table and the fine delay phases of S weight
    sets, ``phases`` and ``delays`` of shape (S, M), on the columns of the
    ``PhasorSplit`` ``split``: ``exp(-j(phi_sm + 2*pi*f_q*tau_sm))`` at the
    Q coarse frequencies f_q, shape (M, S, Q), and the phase
    ``2*pi*step*tau_sm`` of one fine step, shape (M, S), float64. Column
    k = q*B + r's coefficient is the coarse one times ``exp(-j*r*delta)``,
    delta the fine phase, which ``pattern_corr`` takes as a power: Q
    exponentials per element and set instead of K, one ``np.exp`` for all
    sets.

    Each argument is taken in ``np.longdouble`` and less its whole turns
    of 2*pi there before it is rounded to float64 (``_reduced_turns``): a
    type-2 design's phases cancel most of its carrier delay phase, so its
    arguments reach 1.7e3-2.8e4 rad, where a float64 argument alone is off
    by up to half an ulp, 1.8e-12 rad at 2.8e4. A phase in [0, 2*pi), as
    ``PhaseTimeWeights`` keeps it, under a zero delay keeps its bits. Where
    every delay is zero, and on a split of one fine offset, 0.0 (B = 1),
    the fine phases are (M, 1) zeros; where every delay is zero the coarse
    table is (M, S, 1), the phases alone standing for every column."""
    phases = np.asarray(phases, dtype=np.float64).T
    delays = np.asarray(delays, dtype=np.float64).T
    if not delays.any():
        return (_exp_neg_j(_reduced_turns(phases[:, :, None])),
                np.zeros((phases.shape[0], 1)))
    # 2*pi*tau_sm, the float64 2*pi exact in long double
    turn = np.longdouble(TWO_PI) * delays.astype(np.longdouble)
    coarse = _exp_neg_j(_reduced_turns(
        phases.astype(np.longdouble)[:, :, None]
        + turn[:, :, None] * split.coarse.astype(np.longdouble)))
    if split.fine.size == 1:
        return coarse, np.zeros((phases.shape[0], 1))
    return coarse, _reduced_turns(turn * np.longdouble(split.fine[1]))


# 2*pi to the precision of np.longdouble: a 64-bit mantissa where it is the
# x87 type, float64's 53 bits where it is float64
_TWO_PI_LONG = 8 * np.arctan(np.longdouble(1))


def _reduced_turns(arg):
    """``arg`` less its whole turns of 2*pi, counted in float64 and
    subtracted in long double, then rounded to float64. A turn count off by
    one at a turn's edge leaves an argument just outside [0, 2*pi), which
    costs no accuracy; an array in [0, 2*pi) counts no turn and is rounded
    as it is."""
    turns = np.floor(arg.astype(np.float64) / TWO_PI)
    if turns.any():
        arg = arg - turns * _TWO_PI_LONG
    return arg.astype(np.float64)


def _exp_neg_j(arg):
    """``exp(-j*arg)`` of a float64 array, C-ordered."""
    coef = np.multiply(-1j, arg, order="C")
    return np.exp(coef, out=coef)


def pattern_corr(cos_angles, split, coef, sets=None, db=None):
    """Correlation magnitudes on an angle x column grid.

    Entry (a, k) is ``|(1/M) sum_m c[m, s_a, k] exp(j*cos_a*slope_k*m)|``,
    ``slope_k`` being ``scale * f_k`` of column k of the ``PhasorSplit``
    ``split``, ``s_a`` the weight set of row a: ``sets[a]``, indices in
    range, or 0 for every row of a table of one set, and ``c`` the
    coefficient of ``coef`` (``pattern_coefficients``) at the column. With
    the steering slope ``2*pi*spacing*f_k/c`` and the coefficients
    ``exp(-j(phi_m + 2*pi*f_k*tau_m))``, that is the magnitude of the
    conjugated inner product between the unit-norm steering vector and the
    unit-norm phase-time response. With ``db``, a pair ``(floor,
    peak_db)``, each entry is instead the gain ``peak_db + 20 *
    log10(max(corr, floor))``, taken from the squared magnitude of the
    row's sum (``_gain_db``).

    Column k = q*B + r lies at ``f_q + r*step``, so its phasor is the
    coarse ``P_aq = exp(j*cos_a*scale*f_q)`` times ``exp(j*cos_a*scale*
    step)**r``, and its coefficient ``C[m, q] * exp(-j*delta_m)**r``, C the
    coarse table and delta the fine phase ``2*pi*step*tau_m``. Term m's
    fine part is then ``w_am**r``, ``w_am = exp(j*(cos_a*scale*step*m -
    delta_m))``: one phasor per angle and element. So row a's map is one
    matrix product: the (Q x M) table ``C[m, s_a, q] * P_aq**m`` times the
    (M x B) table ``w_am**r``, which gives the (Q, B) grid of its K
    columns, those past K dropped when the last run is short. Each chunk of
    angles builds its Q coarse phasors and M fine ones per angle by ``np.cos``
    and ``np.sin``, their powers by repeated doubling (``_doubling``), 0 to
    M - 1 and 0 to B - 1, the coarse table by one product with the coarse
    coefficients, gathered once per chunk from a table of several sets, as
    the fine phases are, and shared from one of one set, and then the
    products of every row in one stacked ``np.matmul``. A row of more
    elements than keep its product under ``PATTERN_GEMM_TERMS``
    multiply-adds takes it in element blocks that are summed, which
    OpenBLAS keeps on the calling thread. A split of one fine offset, 0.0
    (B = 1: fewer than four columns, or an axis off a progression), is the
    same product with a fine table of ones, and no fine phasor is built. A
    row is computed by the same elementwise operations and the same BLAS
    products whichever chunk and set carry it, so it equals its own
    one-angle call with its set's tables bit for bit.

    Error against the exact correlation of the same float64 inputs (the
    float64 2*pi among them), to first order in u = 2**-53 and v, the unit
    roundoff of ``np.longdouble`` (2**-64 on x87, u where it is float64),
    for cos and sin within one ulp and complex products within
    sqrt(2)*gamma_2 (2.83u): with A the largest coarse argument ``|phi_m| +
    2*pi*|f_q*tau_m|``, s the largest slope ``scale*|f|``, E =
    2*pi*step*tau_max the largest fine phase, s1 = ``scale*step``, and D
    the largest ``|f_q + r*step - f_k|``, 0 for integer-Hz RB centers and
    at most ``SPLIT_RESIDUAL_ULPS`` ulps of the largest frequency on any
    split axis (``phasor_split``),

    * a coarse coefficient's long-double argument rounds by 3v*A and its
      turns by 2v*(A + 2*pi), its float64 argument by 2*pi*u, and cos and
      sin by sqrt(2)*u: 5v*(A + 2*pi) + (2*pi + sqrt(2))*u, and 2*pi*tau*D
      for the column's own frequency;
    * a coarse phasor's phase rounds by 2u*s and is off by scale*D, so power
      m by m*(2u*s + scale*D); its cos and sin and the m - 1 products of its
      tree add about 4.25u*m;
    * a fine phasor's phase ``cos_a*(s1*m) - delta_m`` rounds by 3u*s1*m in
      its product, by 5v*(E + 2*pi) + 2*pi*u in delta and by u*(s1*m +
      2*pi) in the difference, and cos and sin by sqrt(2)*u: e_w = 4u*s1*m
      + 5v*(E + 2*pi) + (4*pi + sqrt(2))*u; power r takes it r times, and
      the r - 1 products of its tree 2.83u each;
    * each term takes two complex products, one per table entry and one
      in the row's product, 5.66u; the row's product sums M terms of
      magnitude about 1 in real arithmetic, 2M real products per part,
      within sqrt(2)*gamma_2M*M; the magnitude and the division by M add
      3u.

    Averaged over m, the terms in m count (M - 1)/2 times, and r is at most
    B - 1: ``|corr - exact| <= 5v*(A + 2*pi) + 2*pi*tau_max*D + (M - 1)*(u*s
    + scale*D/2 + 2.125u) + (B - 1)*(2u*s1*(M - 1) + 5v*(E + 2*pi) + (4*pi
    + 3*sqrt(2))*u) + 2*sqrt(2)*M*u + (2*pi + sqrt(2) + 11.5)*u``
    (``tests/oracles.py::pattern_corr_bound``, tested against
    ``pattern_corr_longdouble`` there). The fine chain's phase error grows
    with r, as the coarse phasor's grows with m. With a float64 argument
    alone the first term would be about 5u*A, 1.5e-11 at the 2.8e4 rad of
    a 157.5 ns delay at 28 GHz. D of one ulp at 28 GHz, 3.8e-6 Hz, adds
    2*pi*tau_max*D = 3.8e-12 at 157.5 ns, which a non-integer carrier or
    SCS pays for its split.

    A grid of several chunks is split over one thread per usable CPU, up to
    one per chunk: numpy's ufuncs and ``np.matmul`` release the interpreter
    lock, each thread takes the next whole chunk when it is free and writes
    only that chunk's rows, their magnitudes or dB step included, so
    the result does not depend on the thread count. The threads are started
    and joined within the call; a one-chunk grid runs on the calling thread
    alone.
    """
    cos_angles = np.asarray(cos_angles, dtype=np.float64)
    out = np.empty((cos_angles.size, split.width), dtype=np.float64)
    elements = coef[0].shape[0]
    chunk = max(1, PATTERN_CHUNK_CELLS // _cells_per_angle(elements, split))
    steps = None
    if db is not None:
        # _gain_db's offset and floored gain
        floor, peak_db = db
        steps = (peak_db - 20.0 * math.log10(elements),
                 peak_db + 20.0 * math.log10(floor))
    starts = range(0, cos_angles.size, chunk)
    workers = max(1, min(_usable_cpus(), len(starts)))
    pending = iter(starts)
    lock = threading.Lock()
    errors = []

    def work(buffers):
        try:
            while True:
                with lock:
                    a0 = next(pending, None)
                if a0 is None:
                    return
                block = out[a0:a0 + chunk]
                _factor_chunk(cos_angles[a0:a0 + chunk], split, coef,
                              None if sets is None else sets[a0:a0 + chunk],
                              block, buffers, steps)
                if steps is None:
                    block /= elements
        except Exception as exc:  # re-raised by the calling thread
            errors.append(exc)

    # every worker's chunk buffers, allocated once on the calling thread, so
    # that no worker thread's own malloc arena grows by them
    buffers = [_chunk_buffers(max(2, min(chunk, cos_angles.size)), split,
                              coef) for _ in range(workers)]
    threads = [threading.Thread(target=work, args=(b,)) for b in buffers[1:]]
    for t in threads:
        t.start()
    work(buffers[0])
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return out


def _cells_per_angle(elements, split):
    """Complex cells that one angle of a chunk takes: its power tables,
    M*(Q + B), and its product, Q*B."""
    runs, step = split.coarse.size, split.fine.size
    return elements * (runs + step) + runs * step


def _chunk_buffers(rows, split, coef):
    """Flat buffers for ``_factor_chunk`` on chunks of up to ``rows``
    angles: per factor its power table and, from tables of several sets,
    the gathered coarse coefficients and fine phases, then the product and
    the phase arguments."""
    coarse, fine = coef
    elements = coarse.shape[0]
    widths = (split.coarse.size, split.fine.size)
    powers = [np.empty(elements * rows * w, dtype=np.complex128)
              for w in widths]
    gathered = ((np.empty(elements * rows * coarse.shape[2],
                          dtype=np.complex128),
                 np.empty(elements * rows)) if coarse.shape[1] > 1
                else (None, None))
    # a second product adds each element block's past the first
    blocks = min(2, -(-elements // _gemm_block(split)))
    product = np.empty((blocks, rows * widths[0] * widths[1]),
                       dtype=np.complex128)
    return (powers, gathered, product,
            np.empty(rows * max(widths[0], elements)))


def _gemm_block(split):
    """Elements per BLAS product of a split's rows: the most that keep a
    (Q x m) @ (m x B) product below ``PATTERN_GEMM_TERMS`` terms."""
    return max(1, (PATTERN_GEMM_TERMS - 1)
               // (split.coarse.size * split.fine.size))


def _gain_db(sums, out, offset, floor_db):
    """``max(offset + 10*log10(|g|**2), floor_db)`` of the complex sums g,
    (rows, K), into ``out``: ``|g|**2 = re**2 + im**2``, squared in place
    in the sums' own buffer, then one IEEE operation per step. With
    ``offset = peak_db - 20*log10(M)`` and ``floor_db = peak_db +
    20*log10(floor)`` that is ``peak_db + 20*log10(max(|g|/M, floor))``
    without a square root and a division by M: a sum of 0, whose log is
    -inf, and every cell that comes out below ``floor_db`` take
    ``floor_db`` itself, the floored gain's bits.

    Error against ``peak_db + 20*log10(max(c*, floor))`` of the exact
    correlation c*, when ``|g|/M`` errs from c* by at most b (the bound of
    ``pattern_corr``), with u = 2**-53 and ``log10`` within one ulp: the
    three roundings of ``|g|**2``, all of non-negative terms, err by
    relative 2u + u**2, which ``log10`` turns into (2u + u**2)/ln(10);
    ``log10`` itself errs by 2u of its value L = ``log10(|g|**2)``, the
    factor 10 by u of 10L, the offset by u*(|peak_db| + 80*log10(M)) and
    the sum by u of the gain. Past the floor, b moves the gain by at most
    ``20/ln(10) * b / max(c* - b, floor)``; below it both gains are
    ``floor_db``. So ``|gain - exact| <= 10/ln(10)*(2u + u**2) + 3u*|10L|
    + u*(|peak_db| + 80*log10(M) + |gain| + |10L|) + 20/ln(10) * b /
    max(c* - b, floor)``, 10L taken at ``max(c*, floor)``
    (``tests/oracles.py::gain_db_bound``)."""
    parts = sums.view(np.float64)
    np.square(parts, out=parts)
    np.add(parts[:, 0::2], parts[:, 1::2], out=out)
    with np.errstate(divide="ignore"):
        np.log10(out, out=out)
    out *= 10.0
    out += offset
    np.maximum(out, floor_db, out=out)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cos_sin(rows, cols, arg, out):
    """``exp(j*rows[a]*cols[k])`` into ``out``: ``np.cos`` and ``np.sin`` of
    the outer products, taken in the flat float buffer ``arg``, into its
    real and imaginary parts: a pattern chunk's coarse phasors, its angles
    by its coarse slopes, and the delay scan's, its slopes by one."""
    arg = arg[:out.size].reshape(out.shape)
    np.multiply(rows[:, None], cols, out=arg)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)


def _factor_powers(cos_chunk, slopes, arg, powers):
    """``powers[m] = exp(j*cos_chunk[a]*slopes[n])**m``, shape (M, rows,
    n), for m from 0 to M - 1: the phasors by ``_cos_sin``, then their
    powers by ``_doubling``."""
    if len(powers) > 1:
        _cos_sin(cos_chunk, slopes, arg, powers[1])
    _doubling(powers)


def _doubling(powers):
    """``powers[m] = powers[1]**m`` for m from 0 to ``len(powers) - 1`` by
    repeated doubling: the powers h + 1 to 2h as the products of the powers
    1 to h with power h, one broadcast product per doubling. Every power m
    is the product of a tree of m copies of power 1, m - 1 products, as a
    running product takes, in about log2(M) numpy calls instead of M - 2."""
    powers[0] = 1.0
    last = len(powers) - 1
    h = 1
    while h < last:
        top = min(2 * h, last)
        np.multiply(powers[1:top - h + 1], powers[h],
                    out=powers[h + 1:top + 1])
        h = top


def _factor_chunk(cos_chunk, split, coef, sets, out, buffers, steps=None):
    """``|sum_m C[m, s_a, q]*P_aq**m * w_am**r|`` of one angle chunk into
    ``out``, (rows, K), column k = q*B + r, ``s_a`` being ``sets[a]`` of
    the chunk's rows, indices in range, or 0 for every row of a table of
    one set, in the ``_chunk_buffers`` ``buffers``. With ``steps``,
    ``(offset, floor_db)``, each entry is instead its gain (``_gain_db``).

    The fine factor ``w_am**r = exp(j*r*(cos_a*scale*step*m -
    delta[m, s_a]))``, delta the fine phase of ``pattern_coefficients``, is
    the fine coefficient times the fine phasor's power m: one phasor per
    (angle, element) by ``np.cos`` and ``np.sin``, its powers 0 to B - 1
    by ``_doubling``, laid out (B, rows, M) so that each row's (M x B)
    table is one BLAS operand. At B = 1 the table is its zeroth power, the
    ones, and no phasor is built.

    numpy multiplies one-element arrays in another loop than longer ones,
    which rounds a complex product differently, so a chunk of one angle and
    one coarse column or one element is evaluated as two copies of its
    angle."""
    rows, width = out.shape
    runs, step = split.coarse.size, split.fine.size
    table, delta = coef
    elements = table.shape[0]
    if rows == 1 and (runs == 1 or elements == 1):
        pair = np.empty((2, width))
        _factor_chunk(np.repeat(cos_chunk, 2), split, coef,
                      None if sets is None else np.repeat(sets, 2), pair,
                      buffers, steps)
        out[:] = pair[:1]
        return
    (coarse_flat, fine_flat), (coarse_spare, fine_spare), product, arg = \
        buffers
    coarse = coarse_flat[:elements * rows * runs].reshape(elements, rows,
                                                          runs)
    _factor_powers(cos_chunk, split.scale * split.coarse, arg, coarse)
    if coarse_spare is not None:
        table = np.take(table, sets, axis=1, mode="clip",  # in range
                        out=coarse_spare[:elements * rows * table.shape[2]]
                        .reshape(elements, rows, table.shape[2]))
    fine = fine_flat[:step * rows * elements].reshape(step, rows, elements)
    if step > 1:
        phase = arg[:rows * elements].reshape(rows, elements)
        np.multiply(cos_chunk[:, None],
                    split.scale * split.fine[1] * np.arange(elements),
                    out=phase)
        if coarse_spare is None:
            phase -= delta[:, 0]
        else:
            phase -= np.take(delta, sets, axis=1, mode="clip",  # in range
                             out=fine_spare[:elements * rows].reshape(
                                 elements, rows)).T
        np.cos(phase, out=fine[1].real)
        np.sin(phase, out=fine[1].imag)
    _doubling(fine)
    coarse *= table
    grid, part = (flat[:rows * runs * step].reshape(rows, runs, step)
                  for flat in (product[0], product[-1]))
    block = _gemm_block(split)
    for m0 in range(0, elements, block):
        np.matmul(coarse[m0:m0 + block].transpose(1, 2, 0),
                  fine[:, :, m0:m0 + block].transpose(1, 2, 0),
                  out=part if m0 else grid)
        if m0:
            grid += part
    _magnitudes(grid.reshape(rows, -1)[:, :width], out, steps)


def _magnitudes(sums, out, steps):
    """``|sums|`` into ``out``, or with ``steps`` their gains
    (``_gain_db``)."""
    if steps is None:
        np.abs(sums, out=out)
    else:
        _gain_db(sums, out, *steps)


# ---------------------------------------------------------------------------
# delay scan: per-antenna correlation of the target phase ramp with each
# candidate delay, summed over the evaluation frequencies
# ---------------------------------------------------------------------------

def delay_twiddles(taus, freqs):
    """Twiddle table ``exp(-j*2*pi*tau_t*f_k)``, shape ``(taus, freqs)``.
    It depends only on the delay grid and the evaluation frequencies, so a
    caller may keep it across scans."""
    taus = np.asarray(taus, dtype=np.float64)
    freqs = np.asarray(freqs, dtype=np.float64)
    twiddles = -1j * TWO_PI * taus[:, None] * freqs[None, :]
    return np.exp(twiddles, out=twiddles)


# rows and columns per tile of the delay scan's product. OpenBLAS (0.3.31)
# runs a tile this small on the calling thread; a whole 64-tau table, or a
# 16-tau block of more than about 24 elements, is split over its worker
# threads, and a worker then spins for about 0.13 s after the call (0.11-0.13
# s of CPU during a 0.3 s sleep after a 64-tau scan at 16 to 256 elements,
# against 0.0001 s in 16 x 16 tiles, at 264 and 3168 frequencies), taking
# the core a threaded pattern grid needs
DELAY_SCAN_TILE = 16


def _tile_edges(size):
    """Edges of the delay scan's tiles along an axis of ``size``: blocks of
    ``DELAY_SCAN_TILE``, a one-wide tail joined to the block before it.
    Tiles so cut give every score the bits of the whole product, which a
    one-wide tile, or blocks merely balanced in width, would not."""
    edges = list(range(0, size, DELAY_SCAN_TILE)) + [size]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return edges


def phase_ramps(slopes, num_elements):
    """Target table ``exp(j*m*slopes[k])``, shape (slopes, num_elements),
    a column-major view: the phasors ``exp(j*slopes[k])`` by ``np.cos`` and
    ``np.sin``, one pair per slope, and their powers m by ``_doubling``
    (``_factor_powers``), element-major, as the pattern kernel takes its
    phasor powers. ``delay_scan`` derives the error this adds."""
    slopes = np.asarray(slopes, dtype=np.float64)
    powers = np.empty((num_elements, slopes.size, 1), dtype=np.complex128)
    _factor_powers(slopes, np.ones(1), np.empty(slopes.size), powers)
    return powers[:, :, 0].T


def delay_scan(slopes, twiddles, num_elements):
    """Complex score ``U[t, m] = sum_k exp(j(m*slopes[k] - 2*pi*f_k*tau_t))``
    from the ``delay_twiddles`` table of the delays tau_t and frequencies
    f_k.

    ``slopes[k]`` is the per-element phase increment of the target steering
    vector at evaluation frequency ``f_k``. The best delay for antenna m
    maximizes ``|U[:, m]|`` and the matching phase is ``angle(U)``.

    Error against the exact scores of the same float64 slopes,
    frequencies and delays (the float64 2*pi among them), with u = 2**-53
    and cos and sin within one ulp, K frequencies:

    * a twiddle's argument ``(2*pi*tau_t)*f_k`` rounds twice, by (2u +
      u**2)*2*pi*tau_t*|f_k|, and its cos and sin by sqrt(2)*u;
    * a target entry, the m-th power of the phasor ``exp(j*slopes[k])``
      (``phase_ramps``), takes the phasor's sqrt(2)*u m times and the m - 1
      products of its doubling tree, sqrt(2)*gamma_2 each: relative
      ``e_m = (1 + sqrt(2)*u)**m * (1 + sqrt(2)*gamma_2)**(m - 1) - 1``,
      whatever the slope's size (a product ``m*slope`` taken in float64
      would round by u*m*|slope|);
    * the product of one row of twiddles by one column of the target is a
      complex dot product in real arithmetic, 2K real products per part, so
      it rounds within sqrt(2)*gamma_2K times the sum of the terms'
      magnitudes, each at most (1 + sqrt(2)*u)*(1 + e_m).

    So ``|U - exact| <= (2u + u**2)*2*pi*tau_t*sum_k |f_k| + K*sqrt(2)*u +
    K*(1 + sqrt(2)*u)*e_m + sqrt(2)*gamma_2K*K*(1 + sqrt(2)*u)*(1 + e_m)``
    (``tests/oracles.py::delay_scan_bound``, tested against
    ``delay_scan_longdouble`` there): about 2*sqrt(2)*K**2*u, 1e-12 of
    the largest score K at 3168 frequencies, past the twiddles' term.
    """
    target = phase_ramps(slopes, num_elements)
    taus = twiddles.shape[0]
    rows = _tile_edges(taus)
    # numpy hands a one-row product to gemv, whose sums depend on the column
    # count, so a one-row table stays one product
    cols = _tile_edges(num_elements) if taus > 1 else [0, num_elements]
    scores = np.empty((taus, num_elements), dtype=np.complex128)
    for r0, r1 in zip(rows[:-1], rows[1:]):
        for c0, c1 in zip(cols[:-1], cols[1:]):
            np.matmul(twiddles[r0:r1], target[:, c0:c1],
                      out=scores[r0:r1, c0:c1])
    return scores


# ---------------------------------------------------------------------------
# rate search: best (RB count, MCS) under an EESM feasibility test, for every
# (user, ring) pair at once
# ---------------------------------------------------------------------------

# slack on both EESM bounds before they are compared with a threshold,
# relative (and, on the upper bound, times the largest beta in absolute
# terms): above the rounding of an effective SNR or of a cumulative sum of
# a few hundred terms (about 1e-13 of either)
_BOUND_REL = 1e-6

# further relative slack on both bounds for evaluating them in link-gain
# space: the envelope's lower bound is ``s[n-1]/n`` times G where the EESM
# stage's ``v_min`` is ``(G/n) * s[n-1]``, and its upper bound
# ``cumsum(s)[n-1]/n**2`` times G where bounds on the rows themselves take
# the cumulative sum of ``G * s``; each order rounds by a few ulps
_FACTOR_REL = 1e-10

# SNR and EESM terms per chunk of the rate scan, in which each candidate
# gathers its own terms: a chunk's temporaries stay near cache size, and
# nothing but the per-candidate results grows with the rings. At 1 << 15
# (256 KB arrays) a warm pass over a sweep's EESM calls faulted about 165
# pages back in each time; at 1 << 14 it faults none and is no slower
EESM_CHUNK_TERMS = 1 << 14


# the base of ``pow10``'s chunks, as numpy runs ``np.power`` in its vector
# loop for an array base only; 32 KB, as a resident 256 KB base cost every
# workload about 0.24 MB of peak RSS and was no faster
_TENS = np.full(1 << 12, 10.0)
_TENS.flags.writeable = False


def pow10(x, out=None):
    """``10 ** x`` elementwise, the bits of ``np.power(10.0, x)`` at about
    half its cost past a few thousand terms: the base is an array of tens,
    in chunks of ``_TENS.size``. ``out``, C-contiguous, may be ``x``."""
    out = np.empty(np.shape(x)) if out is None else out
    flat, dest = np.ravel(x), out.reshape(-1)
    for lo in range(0, flat.size, _TENS.size):
        hi = lo + _TENS.size
        np.power(_TENS[:flat.size - lo], flat[lo:hi], out=dest[lo:hi])
    return out


def _eesm_linear(v_min, means, betas):
    """Linear EESM effective SNR ``v_min - beta * ln(mean)``, broadcast:
    every MCS is decided with it, and every reported one taken from it."""
    return v_min - betas * np.log(means)


def eesm_snr_db(v_min, means, betas):
    """EESM effective SNR in dB, ``10 * log10(v_min - beta * ln(mean))``,
    of each shifted mean, of the broadcast shape: ``np.log10`` of
    ``_eesm_linear``. Neither log depends on an entry's position in its
    array, so each entry has the bits of its own 0-d call.

    Error against the exact value ``y`` of the same float64 inputs, for
    ``v_min, beta > 0`` and ``0 < mean <= 1`` (each shifted EESM mean has a
    term of 1), with u = 2**-53 and numpy's ``log`` and ``log10`` within
    one ulp, relative e = 2u (measured: 0.60 and 0.50 ulp). ``np.log``
    errs by relative e and the beta product by u. As ``-beta * ln(mean) >=
    0``, the difference adds two non-negative terms and cancels nothing,
    even for means next to 1: it carries the product's error at weight at
    most 1 and rounds once, to relative ``eD = (e + u + e*u)*(1 + u) + u``.
    That moves ``log10`` by at most ``lam = eD / (ln(10) * (1 - eD))``, and
    ``np.log10`` and the factor 10 add relative e and u: ``|eesm_snr_db -
    y| <= 10*lam*(1 + e)*(1 + u) + |y|*(e + u + e*u)``, about 1.9e-15 dB
    plus 3.3e-16 of ``|y|`` (``tests/oracles.py::eesm_snr_db_bound``).
    """
    return 10.0 * np.log10(_eesm_linear(v_min, means, betas))


def rate_scan_batch(link_db, gain_db_desc, noise_db, thr_lin, se,
                    unique_betas, beta_idx, min_rbs):
    """Best feasible (RB count, MCS) for every (user, ring) pair.

    Row u of ``gain_db_desc`` (shape ``(users, RBs)``) holds user u's per-RB
    gain in dB sorted descending, and ``link_db`` (shape ``(rings,)``) each
    ring's transmit power plus path gain in dB. Pair (u, r) sees the per-RB
    linear SNR ``G[r] * s[u]`` with the full power on one RB, the ring's
    link gain ``G = 10**(link_db/10)`` times the user's gain over noise ``s
    = 10**((gain_db_desc - noise_db)/10)``, both built once per call;
    splitting power over ``n`` RBs divides it by ``n``. For every ``n`` in
    ``[min_rbs, RBs]`` the EESM effective SNR of the best ``n`` RBs is
    computed per distinct EESM beta, the highest feasible MCS is found, and
    candidates are ranked by throughput ``se * n``, then higher MCS, then
    fewer RBs. ``thr_lin`` and ``se`` must be strictly increasing, as
    ``McsTable`` ensures.

    Candidates that cannot win are pruned before any exponential is taken,
    by the bounds of ``_envelope_candidates``, which also give each live
    candidate an upper-bound MCS ``i``: its exact rate is at most ``se[i] *
    n``. The EESM then runs in two stages. Stage 1 evaluates each pair's
    candidate of the largest bound (of equal bounds the one with more RBs),
    an exact rate ``r1`` for the pair; stage 2 evaluates the pair's other
    candidates whose bound is at least ``r1``. A candidate left out has an
    exact rate below ``r1``, so it can neither win nor tie.

    Every pair is decided exactly as a one-user, one-ring call would decide
    it: each candidate's EESM takes only its own ring's ``G`` and its
    user's row ``s`` (``_eesm_stage``), the EESM means are the same 1-D
    ``np.mean`` reductions, and the winner's effective SNR is ``10 *
    log10`` of the very value its MCS was decided with.

    Returns arrays ``(best_n, best_mcs, best_eff_db, best_se_n)`` of shape
    ``(users, rings)``. Where nothing is feasible, an outage, ``best_mcs``
    is -1, ``best_n`` and ``best_se_n`` are 0, and ``best_eff_db`` is a
    diagnostic: the EESM at MCS 0's beta of the ``min(min_rbs, RBs)`` best
    RBs with the power split over them, by the same stage and arithmetic.
    """
    ues, total = gain_db_desc.shape
    rings = link_db.size
    best_n = np.zeros(ues * rings, dtype=np.int64)
    best_mcs = np.full(ues * rings, -1, dtype=np.int64)
    best_eff = np.zeros(ues * rings)
    best_rate = np.zeros(ues * rings)
    link = pow10(link_db / 10.0)
    row = pow10((gain_db_desc - noise_db) / 10.0)
    if total >= min_rbs and best_n.size:
        live_u, live_r, live_n, live_i = _envelope_candidates(
            link, row, min_rbs, thr_lin, se, unique_betas.max())
        pair = live_u * rings + live_r
        bound = se[live_i] * live_n
        # exact decisions of the evaluated candidates, each MCS with its
        # linear effective SNR; the others stay infeasible, as none of them
        # can win or tie
        mcs = np.full(live_n.size, -1, dtype=np.int64)
        eff = np.empty(live_n.size)

        def evaluate(c):
            mcs[c], eff[c] = _highest_feasible_mcs(
                *_eesm_stage(link, row, live_u[c], live_r[c], live_n[c],
                             unique_betas),
                thr_lin, unique_betas, beta_idx)

        # stage 1, each pair's largest bound, and stage 2, the rest whose
        # bound reaches the pair's stage-1 rate (>= keeps a tie)
        top = _leaders(pair, ues * rings, bound, live_n)
        evaluate(top)
        r1 = np.full(ues * rings, -np.inf)
        fit = top[mcs[top] >= 0]
        r1[pair[fit]] = se[mcs[fit]] * live_n[fit]
        stage2 = bound >= r1[pair]
        stage2[top] = False
        evaluate(np.flatnonzero(stage2))

        # best n per pair by (rate, MCS, -n): as se strictly increases, of
        # equal rates the one with fewer RBs has the higher MCS
        fit = np.flatnonzero(mcs >= 0)
        rate = se[mcs[fit]] * live_n[fit]
        won = _leaders(pair[fit], ues * rings, rate, -live_n[fit])
        c = fit[won]
        cell = pair[c]
        best_n[cell] = live_n[c]
        best_mcs[cell] = mcs[c]
        best_rate[cell] = rate[won]
        best_eff[cell] = 10.0 * np.log10(eff[c])
    out = np.flatnonzero(best_mcs < 0)
    beta0 = unique_betas[beta_idx[:1]]
    v_min, means = _eesm_stage(link, row, out // rings, out % rings,
                               np.full(out.size, min(min_rbs, total)), beta0)
    best_eff[out] = eesm_snr_db(v_min, means[0], beta0)
    shape = (ues, rings)
    return (best_n.reshape(shape), best_mcs.reshape(shape),
            best_eff.reshape(shape), best_rate.reshape(shape))


def _envelope_candidates(link, row, min_rbs, thr_lin, se, max_beta):
    """Candidates ``(user, ring, n)`` that may still win or tie, with each
    one's upper-bound MCS ``i``, as four index arrays ordered by user, MCS
    and n; n runs over ``[min_rbs, RBs]``.

    The link stage of the envelope: ``_envelope_intervals`` keeps, per
    (user, MCS i, n), the interval ``[meet, end)`` of link gain G on which
    the candidate may win, and the rings whose G, in ``link``, falls in each
    interval are found by one binary search over the sorted rings. The
    intervals read only ``row``, the ladder, the minimum grant and the
    largest beta, so a scan of the same rows at other rings builds none of
    them, and a scan of new rows builds them and goes on exactly as if they
    had been built in place.
    """
    meet, end = _envelope_intervals(
        np.asarray(row, dtype=np.float64).tobytes(), row.shape, min_rbs,
        np.asarray(thr_lin, dtype=np.float64).tobytes(),
        np.asarray(se, dtype=np.float64).tobytes(), float(max_beta))
    ring_order = np.argsort(link)
    link_sorted = link[ring_order]
    # an interval that is empty, starts past the last ring or ends at or
    # before the first holds none; the binary searches place the others
    live = np.flatnonzero((end > meet) & (meet <= link_sorted[-1])
                          & (end > link_sorted[0]))
    user, n_idx = np.divmod(live, end[0].size)
    mcs, n_idx = np.divmod(n_idx, end.shape[2])
    lo = np.searchsorted(link_sorted, meet[user, mcs, n_idx], side="left")
    size = np.searchsorted(link_sorted, end[user, mcs, n_idx], side="left")
    size -= lo
    # the rings of each (user, i, n) interval, end to end
    where = np.repeat(lo - (np.cumsum(size) - size), size)
    where += np.arange(where.size)
    return (np.repeat(user, size), ring_order[where],
            np.repeat(n_idx + min_rbs, size), np.repeat(mcs, size))


# keyed by the value of every input the intervals read: the bytes and shape
# of the users' gain/noise rows, of the thresholds and of the spectral
# efficiencies, the minimum grant and the largest beta. A sweep needs one
# entry per scheme and share width. Each entry holds both bounds of every
# (user, MCS, n), 16 bytes each: 0.56 MB for both schemes of 8 users over
# 264 RBs and 15.7 MB for 64 users over 1024
@kept_table(maxsize=4)
def _envelope_intervals(row_bytes, shape, min_rbs, thr_bytes, se_bytes,
                        max_beta):
    """The ring-free stage of ``_envelope_candidates``: read-only arrays
    ``(meet, end)`` of shape (users, MCS, n), the interval ``[meet, end)``
    of link gain G on which candidate n at upper-bound MCS i may win or
    tie, empty where ``end <= meet``.

    For the split SNRs ``g`` of the best n RBs, every beta's effective SNR
    lies between ``min(g)`` (each shifted EESM term is at most 1) and
    ``mean(g)`` (Jensen's inequality). For one user the SNR rows are ``G *
    s``, each ring's link gain G times row u of the rows, user u's sorted
    per-RB gain/noise s, as ``rate_scan_batch`` builds them. So both bounds
    scale with G, ``G * a_n`` with ``a_n = s[n-1]/n`` and ``G * b_n`` with
    ``b_n = cumsum(s)[n-1]/n**2``, and per (n, MCS i) they meet the
    threshold from one G on: ``reach`` for the lower bound, ``meet`` for the
    upper one.

    A ring surely reaches the rate of every (n, i) whose ``reach`` it
    passes, so its sure rate is a step function of G; it first exceeds
    ``se_i * n`` at ``exceed``, the smallest ``reach`` of a higher rate: a
    running minimum in the rate order of ``_rate_order``, which is built
    once per ladder and share width. Candidate n is live at G when the rate
    of its highest upper-bound MCS i, G in ``[meet_i, meet_i+1)``, is no
    lower than the sure rate, G below ``exceed``: one interval of G per
    (n, i), disjoint over i. All users go through one pass over (user, MCS,
    n) arrays. Ties stay live, so the first-n tie rule sees every candidate
    it needs. Below ``meet_i+1`` the upper bound misses every higher
    threshold, so the candidate's exact MCS is at most i.

    Both bounds are widened by ``_BOUND_REL`` relative, and the upper one
    also by ``_BOUND_REL`` times the largest beta. That covers the rounding
    of the cumulative sum and of the effective SNR, whose error near equal
    SNRs is absolute in beta (the rounding of ``beta * log(mean)`` with
    ``mean`` near 1). They are widened by ``_FACTOR_REL`` more for the order
    of the products, so the live set holds every candidate that bounds on
    the SNR rows ``G * s`` themselves keep. Cost: O(users * RBs * MCS),
    whatever the number of rings.
    """
    row = np.frombuffer(row_bytes).reshape(shape)
    thr_lin = np.frombuffer(thr_bytes)
    ues, total = shape
    levels = thr_lin.size
    counts = np.arange(min_rbs, total + 1)
    low = row[:, counts - 1] / counts
    low *= (1.0 - _BOUND_REL) * (1.0 - _FACTOR_REL)
    high = np.cumsum(row, axis=1)[:, counts - 1]
    high /= counts * counts
    high *= (1.0 + _BOUND_REL) * (1.0 + _FACTOR_REL)
    need = thr_lin - _BOUND_REL * max_beta
    n_rev, i_rev, above = _rate_order(se_bytes, min_rbs, total)
    # lowest[u, c]: user u's smallest reach point thr / low over the c
    # highest rates, inf over none
    lowest = np.empty((ues, n_rev.size + 1))
    lowest[:, 0] = np.inf
    reach = lowest[:, 1:]
    np.take(low, n_rev, axis=1, out=reach, mode="clip")  # indices in range
    np.divide(thr_lin[i_rev], reach, out=reach)
    np.fmin.accumulate(reach, axis=1, out=reach)
    # per (u, i, n), the G at which the sure rate first exceeds se_i * n,
    # lowest over the rates above it, capped by meet[u, i + 1, n], where
    # MCS i's interval ends; a threshold below the upper bound's absolute
    # slack gives a meet point at or below 0, met at every ring
    end = np.take(lowest, above, axis=1).reshape(ues, levels, counts.size)
    meet = reach.reshape(end.shape)  # in the running minimum's place
    np.divide(need[:, None], high[:, None, :], out=meet)
    np.minimum(end[:, :-1], meet[:, 1:], out=end[:, :-1])
    meet.flags.writeable = False
    end.flags.writeable = False
    return meet, end


# keyed by the bytes of the ladder's spectral efficiencies, the minimum
# grant and the share width: a sweep's schemes need two, and the order of
# a 264-RB share takes 94 KB
@kept_table(maxsize=8)
def _rate_order(se_bytes, min_rbs, total):
    """The rates ``se_i * n`` of every (MCS i, n), n in ``[min_rbs,
    total]``, from the highest down: read-only arrays of each one's n index
    and MCS, and, for each (i, n) in (i, n) order, how many rates are
    strictly higher."""
    se = np.frombuffer(se_bytes)
    counts = np.arange(min_rbs, total + 1)
    rate = (se[:, None] * counts).ravel()
    by_rate = np.argsort(rate)
    above = np.empty_like(by_rate)
    above[by_rate] = rate.size - np.searchsorted(rate[by_rate],
                                                 rate[by_rate], side="right")
    i_rev, n_rev = np.divmod(by_rate[::-1], counts.size)
    for table in (n_rev, i_rev, above):
        table.flags.writeable = False
    return n_rev, i_rev, above


def _leaders(group, groups, key, tie):
    """Ascending indices of the entries that lead their group, ``group`` in
    ``[0, groups)``: the highest float ``key``, then of those the highest
    integer ``tie``, which must be distinct within a group of equal keys."""
    top = np.full(groups, -np.inf)
    np.maximum.at(top, group, key)
    lead = np.flatnonzero(key == top[group])
    best = np.full(groups, np.iinfo(np.int64).min)
    np.maximum.at(best, group[lead], tie[lead])
    return lead[tie[lead] == best[group[lead]]]


def _chunks(sizes):
    """``(lo, hi)`` bounds that cut items of ``sizes`` terms, laid end to
    end, into chunks of about ``EESM_CHUNK_TERMS`` terms, the only loop of
    ``_eesm_stage``: a chunk's arrays stay near cache size."""
    chunk = (np.cumsum(sizes) - 1) // EESM_CHUNK_TERMS
    cuts = (np.flatnonzero(chunk[1:] != chunk[:-1]) + 1).tolist()
    return zip([0] + cuts, cuts + [sizes.size]) if sizes.size else ()


def _eesm_stage(link, row, user, ring, live_n, unique_betas):
    """Weakest split SNR ``v_min`` of each candidate ``(user, ring, n)``,
    shape ``(candidates,)``, and its shifted EESM mean ``mean(exp((v_min -
    v) / beta))`` over its best n RBs ``v`` split over n, for every beta,
    shape ``(betas, candidates)``, in any candidate order. ``link`` holds
    each ring's link gain G and ``row`` each user's sorted gain/noise s, as
    ``rate_scan_batch`` builds them once per scan.

    The split SNRs are ``scale * s[k]`` with ``scale = G/n``, so with the
    weakest ``w = s[n-1]`` a candidate's ``v_min`` is ``scale * w`` and its
    terms are ``exp((w - s[k]) * (scale/beta))``: per term one gather of s,
    one subtract, one product and one ``exp``, inside the chunk loop of
    ``_chunks``, with nothing per term that depends on another candidate.
    Each candidate's terms lie end to end, and one ``np.add.reduceat`` per
    chunk sums them. ``reduceat`` returns a segment's first entry plus the
    pairwise sum of the rest, where ``np.mean`` takes the pairwise sum of
    the whole row. So each row is led by one slot that holds an exact 0.0
    when the sum is taken: every EESM term lies in [0, 1], ``0.0 +
    pairwise(row)`` is the pairwise sum itself, and divided by n it is the
    bits of ``np.mean`` of that row.

    Error against the exact values of the same float64 ``link_db``, ``gain_db``
    and ``noise_db`` (``G* = 10**(link_db/10)``, ``s*``, ``v* = G* s*[n-1]/n``
    and the mean of ``t*_k = exp(a*_k)``, ``a*_k = (s*[n-1] - s*[k]) G*/(n
    beta) <= 0``), with u = 2**-53, ``pow10`` (the bits of ``np.power``) within
    ``p`` ulp and ``np.exp`` within ``e`` ulp (relative 2p*u and 2e*u; measured
    0.70 and 0.73 ulp). The exponent ``link_db/10`` rounds once and ``(gain_db
    - noise_db)/10`` twice, and ``10**x`` turns an error ``dx`` into the
    relative ``exp(ln(10)*|dx|) - 1``: G errs by relative ``eG <=
    exp(ln(10)*|x_G|*u)*(1 + 2p*u) - 1``, and s[k] by ``es_k <=
    exp(ln(10)*|x_k|*(2u + u*u))*(1 + 2p*u) - 1``. ``scale`` and ``v_min``
    round once each, so ``|v_min - v*| <= v* * ((1 + eG)*(1 + es_w)*(1 + u)**2
    - 1)``.

    A term's exponent: ``w - s[k]`` carries the errors of both values,
    ``es_w*w* + es_k*s*_k``, and rounds once; its factor ``scale/beta`` takes
    G's error and two roundings, ``G/n`` and ``/beta``, and the product one
    more. So ``|a_k - a*_k| <= da_k = (|a*_k| + c*(es_w*w* + es_k*s*_k))*(1 +
    eG)*(1 + u)**4 - |a*_k|``, ``c = G*/(n beta)``: the part in ``es`` is
    absolute in the exponent and grows with the SNR over beta, while the rest,
    relative to ``a*_k``, is large only where ``t*_k = exp(a*_k)`` is small. As
    ``exp`` is increasing and convex, ``|t_k - t*_k| <= dt_k = exp(a*_k +
    da_k)*(1 + 2e*u) - t*_k``. The weakest RB's term is ``exp(0) = 1`` exactly,
    so the sum ``S* = sum t*_k`` is at least 1. numpy's pairwise sum of the
    computed terms, all non-negative, rounds ``D`` times along its deepest path
    (``D`` from n: 8 interleaved partial sums up to 128 terms, then halving),
    the zero slot adds nothing and the division by n rounds once: ``|mean -
    S*/n| <= ((E + ((1 + u)**D - 1)*(S* + E))*(1 + u) + u*S*)/n`` with ``E =
    sum dt_k`` (``tests/oracles.py::eesm_stage_bound``).
    """
    split = live_n.astype(np.float64)
    scale = link[ring] / split
    weakest = row[user, live_n - 1]
    v_min = scale * weakest
    factor = scale / unique_betas[:, None]
    means = np.empty((unique_betas.size, live_n.size))
    for lo, hi in _chunks(live_n + 1):
        n = live_n[lo:hi]
        seg = n + 1
        head = np.cumsum(seg) - seg
        # indices of each candidate's slot and best n RBs in the rows, end
        # to end; the slot reads the strongest RB, so its term is finite
        where = np.repeat(user[lo:hi] * row.shape[1] - head - 1, seg)
        where += np.arange(where.size)
        where[head] += 1
        terms = np.take(row, where, mode="clip")  # in range
        del where
        # the shifted EESM terms, exp of at most 0, stable for large SNR
        np.subtract(np.repeat(weakest[lo:hi], seg), terms, out=terms)
        terms = terms * np.repeat(factor[:, lo:hi], seg, axis=1)
        np.exp(terms, out=terms)
        terms[:, head] = 0.0
        np.add.reduceat(terms, head, axis=1, out=means[:, lo:hi])
    means /= split
    return v_min, means


def _highest_feasible_mcs(v_min, means, thr_lin, unique_betas, beta_idx):
    """Highest MCS whose threshold the linear effective SNR
    (``_eesm_linear``) meets, per candidate, -1 where none is met, and the
    effective SNR at that MCS's beta: the value a grant reports, so a
    threshold met with equality is met by it. A candidate that meets none
    gets its value at the last MCS's beta, which decides nothing."""
    effs = _eesm_linear(v_min, means, unique_betas[:, None])
    mcs = np.full(v_min.size, -1, dtype=np.int64)
    for b in range(unique_betas.size):
        levels = np.flatnonzero(beta_idx == b)
        met = np.searchsorted(thr_lin[levels], effs[b], side="right")
        np.maximum(mcs, np.concatenate(([-1], levels))[met], out=mcs)
    return mcs, effs[beta_idx[mcs], np.arange(mcs.size)]
