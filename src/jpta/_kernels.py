"""Hot numerical kernels, one numpy implementation each.

Three loops dominate the toolkit's numerical run time:

* the angle x column pattern grid (``pattern_corr``), a Horner evaluation
  of one element polynomial per cell, chunked over angles and split over
  the usable CPUs. A column is a steering slope; on an evenly spaced
  frequency axis of K columns each chunk builds its phasors from a coarse
  and a fine table of about sqrt(K) columns each (``phasor_split``), one
  complex product per cell, and on any other axis from ``np.cos`` and
  ``np.sin`` of every cell's phase. The coefficient tables
  (``pattern_coefficients``, one pass over any number of weight sets, one
  column wide when no set has a delay) serve each row the set it names,
  and a lone set's table every row, so one call serves a one-cell beam
  gain, a pattern map, the serving-beam pick or every UE's gain row toward
  its own angle from its own serving set. A
  row shared by every angle is added from a tile of its copies, in
  contiguous runs that numpy adds in its fast loop, and the thread that
  computes a chunk also divides it by M and, for gains, takes its dB
  steps;
* the per-antenna delay-grid scan of the wideband beam designer
  (``delay_scan``), a complex matrix product of a twiddle table
  (``delay_twiddles``), of which the designer keeps the last two it used,
  and a target table built from ``np.cos`` and ``np.sin``
  (``phase_ramps``), taken in row blocks that keep it on the calling
  thread;
* the RB-count x MCS rate search with an EESM average inside
  (``rate_scan_batch``), batched over every (user, ring) pair of one share
  width. Exact bounds prune it first: every EESM effective SNR lies between
  the weakest split SNR and the mean split SNR, and across one user's rings
  both bounds scale with the ring's link gain. So each (RB count, MCS) pair
  can win only on one interval of link gain, and one binary search per
  interval lists the live candidates before any exponential is taken, in a
  rate order built once per MCS ladder and share width. The interval also
  caps each candidate's rate, so the EESM runs in two stages: each pair's
  candidate of the largest cap first, then only the others whose cap
  reaches that exact rate. Each evaluated candidate builds its own SNR row
  in the EESM's chunk loop, read there in place, and one ``reduceat`` per
  chunk, each row led by a zero, sums every row with the bits of its own
  ``np.mean``. A candidate's MCS is decided with its linear effective SNR
  (``_eesm_linear``), and a winner reports ``10 * log10`` of that very
  value; an outage reports the EESM of its most concentrated allowed grant
  from the same stage. On the
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

# complex cells of one angle chunk of the pattern grid, rounded down to
# whole tiles (``PATTERN_TILE_RUN``): the two live arrays of the Horner loop
# take 512 KiB each and stay in cache (measured ~20% faster on a 3001 x 264
# grid than one 16 MB chunk)
PATTERN_CHUNK_CELLS = 1 << 15

# cells that one contiguous run of the tiled coefficient add must exceed.
# numpy 2.4 adds a shared (1, K) row to a chunk in a loop of K cells per
# row, and rows of T*K cells from a T-row tile of its copies as slowly
# while T*K <= 4096, past that in 0.5-0.8 of the time: 0.67 ns a cell
# broadcast at 264 columns, 0.67 in 15-row tiles, 0.37 in 16-row tiles;
# 1.15 ns at 1024 columns, 1.29 in 4-row tiles, 0.92 in 5-row tiles; 0.94
# ns at 24 columns, 0.77 in 170-row tiles, 0.47 in 171-row tiles. A tile
# holds at most 4096 + K cells: 66 KB at 264 columns, 80 KB at 1024
PATTERN_TILE_RUN = 4096


def backend() -> str:
    """Name of the kernel backend: always ``"numpy"``."""
    return "numpy"


# ---------------------------------------------------------------------------
# pattern correlation: |<steering(angle, f), response(f)>| on a grid
# ---------------------------------------------------------------------------

class PhasorSplit(NamedTuple):
    """The pattern kernel's column phasors ``exp(j*cos_a*slope_k)`` as the
    products of two tables per angle: column k of ``width`` takes the
    coarse slope ``coarse[k // B]`` plus the fine slope ``fine[k % B]``, B
    being ``fine.size``. A single fine slope, 0.0, is the one-factor form:
    every column has its own coarse slope."""

    coarse: np.ndarray
    fine: np.ndarray
    width: int


def phasor_split(scale, freqs):
    """The column slopes ``scale * f_k`` of the K frequencies ``freqs`` as
    a ``PhasorSplit``.

    When the frequencies form an exact arithmetic progression ``f_k = f_0 +
    k*step``, as the RB centers of an integer-Hz carrier and subcarrier
    spacing do, column k = q*B + r takes the coarse slope ``scale * f_qB``
    (column qB's own slope) and the fine slope ``scale * (r*step)``: B +
    ceil(K/B) phasors per angle instead of K. B is the smallest divisor of
    K from isqrt(K) to 2*isqrt(K), else isqrt(K) with a short last run:
    each run of B columns is one broadcast product, and whole runs fill a
    chunk faster (22 x 12 at 264 RBs in about 0.8 of the time of 16 x 17).
    Any other axis, and one of fewer than four columns, takes the
    one-factor form, whose phasors have the bits of each column's own
    slope."""
    freqs = np.asarray(freqs, dtype=np.float64)
    size = freqs.size
    root = math.isqrt(size)
    fine = next((b for b in range(root, 2 * root + 1) if size % b == 0),
                root)
    if fine > 1:
        step = freqs[1] - freqs[0]
        if np.array_equal(freqs[0] + step * np.arange(size), freqs):
            return PhasorSplit(scale * freqs[::fine],
                               scale * (step * np.arange(fine)), size)
    return PhasorSplit(scale * freqs, np.zeros(1), size)


def pattern_corr(cos_angles, split, coef, sets=None, db=None):
    """Correlation magnitudes on an angle x column grid.

    Entry (a, k) is ``|(1/M) sum_m coef[m, s_a, k] exp(j*cos_a*slope_k*m)|``,
    ``slope_k`` being column k's slope in the ``PhasorSplit`` ``split`` and
    ``s_a`` the weight set of row a: ``sets[a]``, indices in range, or 0
    for every row when ``coef`` holds one set. With the steering slope
    ``slope_k = 2*pi*spacing*f_k/c`` of a column's frequency
    (``phasor_split``) and the coefficients ``exp(-j(phi_m +
    2*pi*f_k*tau_m))`` of S weight sets (``pattern_coefficients``), that is
    the magnitude of the conjugated inner product between the unit-norm
    steering vector and the unit-norm phase-time response. With ``db``, a
    pair ``(floor, peak_db)``, each entry is instead the gain ``peak_db +
    20 * log10(max(corr, floor))``, those steps taken in that order in
    place.

    ``coef`` holds the tables of the S sets, shape (elements, S, K), or (M,
    S, 1) when one value per element stands for every column, as a
    zero-delay set's does. The path follows S alone: one set's table is
    shared by every row, as a pattern map's rows share it, and ``sets`` is
    not read; of several, each chunk gathers its rows' coefficients one
    element at a time, so no table grows with the rows. A row is computed
    by the same elementwise operations whichever set and form carries its
    coefficients, so it equals its own one-angle call with its set's (M, 1,
    K) table bit for bit.

    The sum is a polynomial in ``z[a, k] = exp(j*cos_a*slope_k)``,
    evaluated by Horner's rule over m. Each chunk builds its phasors from
    the split's coarse and fine tables (``_fill_phasors``): about 2*sqrt(K)
    cos/sin pairs per angle and one complex product per cell, where
    ``np.exp`` of every term would take A*K*M exponentials. Then come M -
    1 in-place multiply-adds on an (angle chunk x K) array, each adding one
    coefficient row per angle; a row shared by every angle is added from a
    tile of its copies (``_tile_rows``). Every cell is computed by the same
    elementwise operations whatever the chunking, so no row depends on the
    rest of the call.

    A grid of several chunks is split over one thread per usable CPU, up to
    one per chunk: numpy's ufuncs release the interpreter lock, each thread
    takes the next whole chunk when it is free and writes only that chunk's
    rows, the division by M and the dB steps included, so the result does
    not depend on the thread count. The threads are started and joined
    within the call; a one-chunk grid runs on the calling thread alone.
    """
    cos_angles = np.asarray(cos_angles, dtype=np.float64)
    cols = split.width
    out = np.empty((cos_angles.size, cols), dtype=np.float64)
    chunk = max(1, PATTERN_CHUNK_CELLS // max(1, cols))
    if coef.shape[1] > 1:
        # the buffer that each element's coefficients of a chunk's rows are
        # gathered into
        spare = (min(chunk, cos_angles.size), coef.shape[2])
    else:
        sets = None
        # a row of several columns shared by every angle is added from a
        # tile, when a chunk holds one; a one-column row is added as a
        # scalar, which numpy's broadcast loop does faster
        tile_rows = _tile_rows(cols) if coef.shape[2] > 1 else 0
        if 1 < tile_rows <= min(chunk, cos_angles.size):
            chunk -= chunk % tile_rows
            spare = (tile_rows, cols)
        else:
            spare = None
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
                _horner_chunk(cos_angles[a0:a0 + chunk], split, coef,
                              None if sets is None else sets[a0:a0 + chunk],
                              block, *buffers)
                if db is not None:
                    _gain_db(block, *db)
        except Exception as exc:  # re-raised by the calling thread
            errors.append(exc)

    # every worker's chunk buffers, allocated once on the calling thread, so
    # that no worker thread's own malloc arena grows by them
    buffers = [_chunk_buffers(min(chunk, cos_angles.size), cols, spare)
               for _ in range(workers)]
    threads = [threading.Thread(target=work, args=(b,)) for b in buffers[1:]]
    for t in threads:
        t.start()
    work(buffers[0])
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return out


def _chunk_buffers(rows, cols, spare):
    """``_horner_chunk``'s buffers for chunks of up to ``rows`` x ``cols``
    cells: phasors, sums, a spare cell, and a coefficient buffer of the
    shape ``spare`` (None for none)."""
    return (np.empty((rows, cols), dtype=np.complex128),
            np.empty((rows, cols), dtype=np.complex128),
            np.empty((1, 1), dtype=np.complex128),
            None if spare is None else np.empty(spare, dtype=np.complex128))


def _gain_db(corr, floor, peak_db):
    """``peak_db + 20*log10(max(corr, floor))`` in place on ``corr``, one
    IEEE operation per step."""
    np.maximum(corr, floor, out=corr)
    np.log10(corr, out=corr)
    corr *= 20.0
    corr += peak_db


def pattern_coefficients(freqs, phases, delays):
    """Horner coefficients ``exp(-j(phi_sm + 2*pi*f_k*tau_sm))`` of S weight
    sets, ``phases`` and ``delays`` of shape (S, M), at K frequencies: shape
    (M, S, K), or (M, S, 1) when every delay is zero, every argument then
    being its phase at each frequency. All sets take one ``np.exp``."""
    arg = np.asarray(phases, dtype=np.float64).T[:, :, None]
    delays = np.asarray(delays, dtype=np.float64).T
    if delays.any():
        arg = arg + TWO_PI * np.asarray(freqs, dtype=np.float64) \
            * delays[:, :, None]
    coef = np.multiply(-1j, arg, order="C")
    return np.exp(coef, out=coef)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _tile_rows(cols):
    """Rows of the tile from which a shared coefficient row is added to a
    chunk of ``cols`` columns: the fewest whose cells exceed
    ``PATTERN_TILE_RUN``. One row where the row alone does."""
    return PATTERN_TILE_RUN // cols + 1


def _cos_sin(rows, cols, arg, out):
    """``exp(j*rows[a]*cols[k])`` into ``out``: ``np.cos`` and ``np.sin`` of
    the outer products, taken in the flat float buffer ``arg``, into its
    real and imaginary parts. Every phasor table is built this way: a
    pattern chunk's angles by its slopes, the delay scan's slopes by the
    element indices."""
    arg = arg[:out.size].reshape(out.shape)
    np.multiply(rows[:, None], cols, out=arg)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)


def _fill_phasors(cos_chunk, split, z, acc):
    """The phasors of a chunk's angles and the columns of ``split`` into
    ``z``: the coarse and the fine table of each angle, then one complex
    product per cell, each run of B columns one broadcast product of a
    coarse phasor and the fine row; in the one-factor form, the coarse
    phasors written into ``z`` as they are.

    The tables, and the one-factor form's phases, take the memory of the
    sums ``acc``, which the Horner loop overwrites once the phasors are
    made; B + ceil(K/B) <= K from four columns up, so the tables fit. The
    split's phases take the memory of ``z``, spent before the product
    fills it."""
    rows, width = cos_chunk.size, split.width
    spare = acc.reshape(-1)
    if split.fine.size == 1:
        _cos_sin(cos_chunk, split.coarse, spare.view(np.float64), z)
        return
    runs, step = split.coarse.size, split.fine.size
    coarse = spare[:rows * runs].reshape(rows, runs)
    fine = spare[rows * runs:rows * (runs + step)].reshape(rows, step)
    phases = z.reshape(-1).view(np.float64)
    _cos_sin(cos_chunk, split.coarse, phases, coarse)
    _cos_sin(cos_chunk, split.fine, phases, fine)
    whole = width - width % step
    np.multiply(coarse[:, :whole // step, None], fine[:, None, :],
                out=z[:, :whole].reshape(rows, -1, step))
    if whole < width:
        np.multiply(coarse[:, whole // step:], fine[:, :width - whole],
                    out=z[:, whole:])


def _horner_chunk(cos_chunk, split, coef, sets, out, z, acc, one_cell,
                  spare):
    """``|sum_m coef[m, s_a] * z**m| / M`` of one angle chunk into ``out``,
    ``s_a`` being ``sets[a]`` of the chunk's rows, indices in range, or 0
    for every row when ``sets`` is None, using the first ``cos_chunk.size``
    rows of the buffers ``z`` and ``acc``, and ``one_cell`` for a chunk of
    one cell.

    With ``sets``, each element's coefficients of the rows' sets are
    gathered into ``spare`` as its step comes. Without, a ``spare`` tile of
    T rows takes copies of the shared row of each element, and the chunk
    is added to as rows of T*K cells, whole tiles first, then any short
    rest: the same IEEE additions as the broadcast add, which numpy runs in
    a loop of K cells per row."""
    rows = cos_chunk.size
    z, acc = z[:rows], acc[:rows]
    _fill_phasors(cos_chunk, split, z, acc)
    if sets is None:
        tile = spare

        def term(m):
            return coef[m, 0]
    else:
        tile, gathered = None, spare[:rows]

        def term(m):
            return np.take(coef[m], sets, axis=0, out=gathered, mode="clip")
    acc[:] = term(-1)
    # numpy rounds a one-cell in-place product unlike its vector loop
    prod = acc if acc.size > 1 else one_cell
    if tile is not None:
        whole = rows - rows % len(tile)
        prod_tiles = prod[:whole].reshape(-1, tile.size)
        acc_tiles = acc[:whole].reshape(-1, tile.size)
        tile_row = tile.reshape(1, -1)
        rest = tile[:rows - whole]
    for m in range(coef.shape[0] - 2, -1, -1):
        np.multiply(acc, z, out=prod)
        if tile is None:
            np.add(prod, term(m), out=acc)
        else:
            tile[:] = term(m)
            np.add(prod_tiles, tile_row, out=acc_tiles)
            if rest.size:
                np.add(prod[whole:], rest, out=acc[whole:])
    np.abs(acc, out=out)
    out /= coef.shape[0]


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
    built as the pattern phasors are (``_cos_sin``). Those are the bits of
    ``np.exp(1j * slopes[:, None] * m)`` for every slope but -0.0 (whose
    imaginary parts come out -0.0 instead of +0.0), without its complex
    temporary of the products."""
    slopes = np.asarray(slopes, dtype=np.float64)
    target = np.empty((slopes.size, num_elements), dtype=np.complex128)
    _cos_sin(slopes, np.arange(num_elements, dtype=np.float64),
             np.empty(target.size), target)
    return target


def delay_scan(slopes, twiddles, num_elements):
    """Complex score ``U[t, m] = sum_k exp(j(m*slopes[k] - 2*pi*f_k*tau_t))``
    from the ``delay_twiddles`` table of the delays tau_t and frequencies
    f_k.

    ``slopes[k]`` is the per-element phase increment of the target steering
    vector at evaluation frequency ``f_k``. The best delay for antenna m
    maximizes ``|U[:, m]|`` and the matching phase is ``angle(U)``.
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

# further relative slack on both bounds for evaluating them as a ring's link
# gain times a per-user row and comparing them in link-gain space: that
# factorisation rounds by about 1e-14 relative
_FACTOR_REL = 1e-10

# SNR and EESM terms per chunk of the rate scan, in which each candidate
# builds its own SNR row: a chunk's temporaries stay near cache size, and
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


def snr_unsplit(link_db, gain_db, noise_db, out=None):
    """Per-RB linear SNR with the whole transmit power on one RB,
    ``10 ** (((link_db + gain_db) - noise_db) / 10)`` elementwise in that
    order of operations: every SNR term of the rate search is computed this
    way, so a term does not depend on which candidates are evaluated.
    ``out`` may be either input array, to compute in place."""
    snr = np.add(link_db, gain_db, out=out)
    snr -= noise_db
    snr /= 10.0
    return pow10(snr, out=snr)


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
    linear SNR ``snr_unsplit(link_db[r], gain_db_desc[u], noise_db)`` with
    the full power on one RB; splitting power over ``n`` RBs divides it by
    ``n``. For every ``n`` in ``[min_rbs, RBs]`` the EESM effective SNR of
    the best ``n`` RBs is computed per distinct EESM beta, the highest
    feasible MCS is found, and candidates are ranked by throughput
    ``se * n``, then higher MCS, then fewer RBs. ``thr_lin`` and ``se`` must
    be strictly increasing, as ``McsTable`` ensures.

    Candidates that cannot win are pruned before any exponential is taken,
    by the bounds of ``_envelope_candidates``, which also give each live
    candidate an upper-bound MCS ``i``: its exact rate is at most ``se[i] *
    n``. The EESM then runs in two stages. Stage 1 evaluates each pair's
    candidate of the largest bound (of equal bounds the one with more RBs),
    an exact rate ``r1`` for the pair; stage 2 evaluates the pair's other
    candidates whose bound is at least ``r1``. A candidate left out has an
    exact rate below ``r1``, so it can neither win nor tie.

    Every pair is decided exactly as a one-user, one-ring call would decide
    it: each SNR term comes from ``snr_unsplit`` of the same values, the
    EESM means are the same 1-D ``np.mean`` reductions, and the winner's
    effective SNR is ``10 * log10`` of the very value its MCS was decided
    with.

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
    if total >= min_rbs and best_n.size:
        live_u, live_r, live_n, live_i = _envelope_candidates(
            link_db, gain_db_desc, noise_db, min_rbs, thr_lin, se,
            unique_betas.max())
        pair = live_u * rings + live_r
        bound = se[live_i] * live_n
        # exact decisions of the evaluated candidates, each MCS with its
        # linear effective SNR; the others stay infeasible, as none of them
        # can win or tie
        mcs = np.full(live_n.size, -1, dtype=np.int64)
        eff = np.empty(live_n.size)

        def evaluate(c):
            mcs[c], eff[c] = _highest_feasible_mcs(
                *_eesm_stage(link_db, gain_db_desc, noise_db, live_u[c],
                             live_r[c], live_n[c], unique_betas),
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
    v_min, means = _eesm_stage(link_db, gain_db_desc, noise_db, out // rings,
                               out % rings,
                               np.full(out.size, min(min_rbs, total)), beta0)
    best_eff[out] = eesm_snr_db(v_min, means[0], beta0)
    shape = (ues, rings)
    return (best_n.reshape(shape), best_mcs.reshape(shape),
            best_eff.reshape(shape), best_rate.reshape(shape))


def _envelope_candidates(link_db, gain_db_desc, noise_db, min_rbs, thr_lin,
                         se, max_beta):
    """Candidates ``(user, ring, n)`` that may still win or tie, with each
    one's upper-bound MCS ``i``, as four index arrays ordered by user, MCS
    and n; n runs over ``[min_rbs, RBs]``.

    For the split SNRs ``g`` of the best n RBs, every beta's effective SNR
    lies between ``min(g)`` (each shifted EESM term is at most 1) and
    ``mean(g)`` (Jensen's inequality). For one user the SNR rows factor, up
    to rounding, as ``G * s``: ``G = 10**(link_db/10)`` is the ring's link
    gain and ``s`` the user's sorted per-RB gain/noise row. So both bounds
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
    (n, i), disjoint over i, found among the rings by one binary search.
    All users go through one pass over (user, MCS, n) arrays. Ties stay
    live, so the first-n tie rule sees every candidate it needs. Below
    ``meet_i+1`` the upper bound misses every higher threshold, so the
    candidate's exact MCS is at most i.

    Both bounds are widened by ``_BOUND_REL`` relative, and the upper one
    also by ``_BOUND_REL`` times the largest beta. That covers the rounding
    of the cumulative sum and of the effective SNR, whose error near equal
    SNRs is absolute in beta (the rounding of ``beta * log(mean)`` with
    ``mean`` near 1). They are widened by ``_FACTOR_REL`` more for the
    factorisation, so the live set holds every candidate that bounds on the
    SNR rows themselves keep. Cost: O(users * RBs * MCS) plus the live
    count, whatever the number of rings.
    """
    ues, total = gain_db_desc.shape
    levels = thr_lin.size
    counts = np.arange(min_rbs, total + 1)
    link = pow10(link_db / 10.0)
    ring_order = np.argsort(link)
    link_sorted = link[ring_order]
    row = snr_unsplit(0.0, gain_db_desc, noise_db)
    low = row[:, counts - 1] / counts
    low *= (1.0 - _BOUND_REL) * (1.0 - _FACTOR_REL)
    high = np.cumsum(row, axis=1)[:, counts - 1]
    high /= counts * counts
    high *= (1.0 + _BOUND_REL) * (1.0 + _FACTOR_REL)
    need = thr_lin - _BOUND_REL * max_beta
    n_rev, i_rev, above = _rate_order(
        np.asarray(se, dtype=np.float64).tobytes(), min_rbs, total)
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
    # an interval that is empty, starts past the last ring or ends at or
    # before the first holds none; the binary searches place the others
    live = np.flatnonzero((end > meet) & (meet <= link_sorted[-1])
                          & (end > link_sorted[0]))
    user, n_idx = np.divmod(live, levels * counts.size)
    mcs, n_idx = np.divmod(n_idx, counts.size)
    lo = np.searchsorted(link_sorted, meet[user, mcs, n_idx], side="left")
    size = np.searchsorted(link_sorted, end[user, mcs, n_idx], side="left")
    size -= lo
    # the rings of each (user, i, n) interval, end to end
    where = np.repeat(lo - (np.cumsum(size) - size), size)
    where += np.arange(where.size)
    return (np.repeat(user, size), ring_order[where],
            np.repeat(counts[n_idx], size), np.repeat(mcs, size))


# keyed by the bytes of the ladder's spectral efficiencies, the minimum
# grant and the share width: a sweep's schemes need two, and the order of
# a 264-RB share takes 94 KB
@functools.lru_cache(maxsize=8)
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


def _eesm_stage(link_db, gain_db_desc, noise_db, user, ring, live_n,
                unique_betas):
    """Weakest split SNR ``v_min`` of each candidate ``(user, ring, n)``,
    shape ``(candidates,)``, and its shifted EESM mean ``mean(exp((v_min -
    v) / beta))`` over its best n RBs ``v`` split over n, for every beta,
    shape ``(betas, candidates)``, in any candidate order.

    Each candidate builds its own SNR row, its user's best n gains by
    ``snr_unsplit`` at its ring, inside the chunk loop of ``_chunks``: the
    rows lie end to end, and the EESM reads them in place. One
    ``np.add.reduceat`` per chunk sums every row. ``reduceat`` returns a
    segment's first entry plus the pairwise sum of the rest, where
    ``np.mean`` takes the pairwise sum of the whole row. So each row is led
    by one slot that holds an exact 0.0 when the sum is taken: every EESM
    term lies in [0, 1], ``0.0 + pairwise(row)`` is the pairwise sum
    itself, and divided by n it is the bits of ``np.mean`` of that row.
    """
    split = live_n.astype(np.float64)
    v_min = np.empty(live_n.size)
    means = np.empty((unique_betas.size, live_n.size))
    for lo, hi in _chunks(live_n + 1):
        n = live_n[lo:hi]
        seg = n + 1
        head = np.cumsum(seg) - seg
        # indices of each candidate's slot and best n RBs in the gain rows,
        # end to end; the slot reads the strongest RB, so its term is finite
        where = np.repeat(user[lo:hi] * gain_db_desc.shape[1] - head - 1, seg)
        where += np.arange(where.size)
        where[head] += 1
        terms = np.take(gain_db_desc, where, mode="clip")  # in range
        del where
        snr_unsplit(np.repeat(link_db[ring[lo:hi]], seg), terms, noise_db,
                    out=terms)
        # the weakest of the best n RBs after the split, then the shifted
        # EESM terms, stable for large SNR
        np.divide(terms[head + n], split[lo:hi], out=v_min[lo:hi])
        terms /= np.repeat(split[lo:hi], seg)
        np.subtract(np.repeat(v_min[lo:hi], seg), terms, out=terms)
        terms = terms / unique_betas[:, None]
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
