"""Hot numerical kernels, one numpy implementation each.

Three loops dominate the toolkit's numerical run time:

* the angle x frequency pattern grid (``pattern_corr``), a Horner
  evaluation of one element polynomial per frequency, chunked over angles
  and split over the usable CPUs;
* the per-antenna delay-grid scan of the wideband beam designer
  (``delay_scan``), a complex matrix product with a twiddle table
  (``delay_twiddles``), of which the designer keeps the last two it used,
  taken in row blocks that keep it on the calling thread;
* the RB-count x MCS rate search with an EESM average inside
  (``rate_scan_batch``), batched over every (user, ring) pair of one share
  width. Exact bounds prune it first: every EESM effective SNR lies between
  the weakest split SNR and the mean split SNR, and across one user's rings
  both bounds scale with the ring's link gain. So each (RB count, MCS) pair
  can win only on one interval of link gain, and one binary search per
  interval lists the live candidates before any exponential is taken, at a
  cost that does not grow with the rings. On the criterion-4 deployment at
  160 rings the EESM runs for 1.6% of the (user, ring, RB count)
  candidates.

The pattern CSV's text formatter (``format_g6``) lives with its writer in
``jpta.cli``. ``tests/oracles.py`` holds plain-loop references for all three
kernels, which the tests check them against and
``benchmarks/bench_kernels.py`` times them against.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

TWO_PI = 2.0 * math.pi

# complex cells of one angle chunk of the pattern grid: the two live arrays
# of the Horner loop take 512 KiB each and stay in cache (measured ~20%
# faster on a 3001 x 264 grid than one 16 MB chunk)
PATTERN_CHUNK_CELLS = 1 << 15


def backend() -> str:
    """Name of the kernel backend: always ``"numpy"``."""
    return "numpy"


# ---------------------------------------------------------------------------
# pattern correlation: |<steering(angle, f), response(f)>| on a grid
# ---------------------------------------------------------------------------

def pattern_corr(cos_angles, freqs, phases, delays, slope_scale):
    """Correlation magnitudes on an angle x frequency grid.

    Entry (a, k) is ``|(1/M) sum_m exp(j(slope_scale*f_k*cos_a*m - phi_m
    - 2*pi*f_k*tau_m))|`` where ``slope_scale = 2*pi*spacing/c``. This is the
    magnitude of the conjugated inner product between the unit-norm steering
    vector and the unit-norm phase-time response. ``phases`` and ``delays``
    hold one weight set, shape (M,), or one per column, shape (K, M).

    The sum is a polynomial in ``z[a, k] = exp(j*slope_scale*f_k*cos_a)``
    with per-column coefficients ``c[k, m] = exp(-j(phi_m +
    2*pi*f_k*tau_m))``, evaluated by Horner's rule over m: A*K + K*M complex
    exponentials instead of A*K*M, and M - 1 in-place multiply-adds on an
    (angle chunk x K) array, each adding one contiguous coefficient row
    ``c[:, m]``. Every cell is computed by the same elementwise
    operations whatever the chunking or the other columns, so neither a row
    nor a block of columns depends on the rest of the call.

    A grid of several chunks is split over one thread per usable CPU, up to
    one per chunk: numpy's ufuncs release the interpreter lock, each thread
    takes the next whole chunk when it is free and writes only that chunk's
    rows, so the result does not depend on the thread count. The threads are
    started and joined within the call; a one-chunk grid runs on the calling
    thread alone.
    """
    cos_angles = np.asarray(cos_angles, dtype=np.float64)
    freqs = np.asarray(freqs, dtype=np.float64)
    # one contiguous row of K coefficients per element, for the Horner steps
    coef = np.ascontiguousarray(np.exp(
        -1j * (phases + TWO_PI * freqs[:, None] * delays)).T)
    out = np.empty((cos_angles.size, freqs.size), dtype=np.float64)
    slope = slope_scale * freqs
    chunk = max(1, PATTERN_CHUNK_CELLS // max(1, freqs.size))
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
                _horner_chunk(cos_angles[a0:a0 + chunk], slope, coef,
                              out[a0:a0 + chunk], *buffers)
        except Exception as exc:  # re-raised by the calling thread
            errors.append(exc)

    # every worker's chunk buffers, allocated once on the calling thread, so
    # that no worker thread's own malloc arena grows by them
    rows = min(chunk, cos_angles.size)
    buffers = [(np.empty((rows, freqs.size)),
                np.empty((rows, freqs.size), dtype=np.complex128),
                np.empty((rows, freqs.size), dtype=np.complex128),
                np.empty((1, 1), dtype=np.complex128))
               for _ in range(workers)]
    threads = [threading.Thread(target=work, args=(b,)) for b in buffers[1:]]
    for t in threads:
        t.start()
    work(buffers[0])
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    out /= phases.shape[-1]
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _horner_chunk(cos_chunk, slope, coef, out, arg, z, acc, one_cell):
    """``|sum_m coef[m] * z**m|`` of one angle chunk into ``out``, using the
    first ``cos_chunk.size`` rows of the buffers ``arg``, ``z`` and ``acc``,
    and ``one_cell`` for a chunk of one cell."""
    rows = cos_chunk.size
    arg, z, acc = arg[:rows], z[:rows], acc[:rows]
    np.multiply(cos_chunk[:, None], slope, out=arg)
    np.cos(arg, out=z.real)
    np.sin(arg, out=z.imag)
    acc[:] = coef[-1]
    # numpy rounds a one-cell in-place product unlike its vector loop
    prod = acc if acc.size > 1 else one_cell
    for m in range(coef.shape[0] - 2, -1, -1):
        np.multiply(acc, z, out=prod)
        np.add(prod, coef[m], out=acc)
    np.abs(acc, out=out)


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


# taus per row block of the delay scan's product. OpenBLAS (0.3.31) runs a
# product this small on the calling thread; a whole 64-tau table is split
# over its worker threads, and a worker then spins for about 0.13 s after
# the call (0.11-0.13 s of CPU during a 0.3 s sleep after a 64 x 264 x 16
# complex product, against 0.0001 s after the same product in 16-tau
# blocks, also at 3168 frequencies), taking the core a threaded pattern grid
# needs. Blocks give every score the same bits as the whole product; a
# one-row block would not, as numpy hands a one-row product to gemv
DELAY_SCAN_BLOCK_TAUS = 16


def delay_scan(slopes, twiddles, num_elements):
    """Complex score ``U[t, m] = sum_k exp(j(m*slopes[k] - 2*pi*f_k*tau_t))``
    from the ``delay_twiddles`` table of the delays tau_t and frequencies
    f_k.

    ``slopes[k]`` is the per-element phase increment of the target steering
    vector at evaluation frequency ``f_k``. The best delay for antenna m
    maximizes ``|U[:, m]|`` and the matching phase is ``angle(U)``.
    """
    slopes = np.asarray(slopes, dtype=np.float64)
    elem = np.arange(num_elements, dtype=np.float64)
    target = np.exp(1j * slopes[:, None] * elem[None, :])
    taus = twiddles.shape[0]
    blocks = max(1, -(-taus // DELAY_SCAN_BLOCK_TAUS))
    # balanced blocks: none has one row unless the table has
    edges = [taus * b // blocks for b in range(blocks + 1)]
    scores = np.empty((taus, num_elements), dtype=np.complex128)
    for lo, hi in zip(edges[:-1], edges[1:]):
        np.matmul(twiddles[lo:hi], target, out=scores[lo:hi])
    return scores


# ---------------------------------------------------------------------------
# rate search: best (RB count, MCS) under an EESM feasibility test, for every
# (user, ring) pair at once
# ---------------------------------------------------------------------------

# np.log may differ from math.log by an ulp; a feasibility margin this small,
# relative to the threshold, is decided again with math.log
_NEAR_THRESHOLD_REL = 1e-9

# slack on both EESM bounds before they are compared with a threshold,
# relative (and, on the upper bound, times the largest beta in absolute
# terms): far above the near-threshold re-check and above the rounding of
# an effective SNR or of a cumulative sum of a few hundred terms (about
# 1e-13 of either)
_BOUND_REL = 1e-6

# further relative slack on both bounds for evaluating them as a ring's link
# gain times a per-user row and comparing them in link-gain space: that
# factorisation rounds by about 1e-14 relative
_FACTOR_REL = 1e-10

# EESM terms per chunk of live candidates: a chunk's arrays stay near cache
# size, and memory does not grow with the ring count
EESM_CHUNK_TERMS = 1 << 15


def snr_unsplit(link_db, gain_db, noise_db, out=None):
    """Per-RB linear SNR with the whole transmit power on one RB,
    ``10 ** (((link_db + gain_db) - noise_db) / 10)`` elementwise in that
    order of operations: every SNR term of the rate search is computed this
    way, so a term does not depend on which candidates are evaluated.
    ``out`` may be either input array, to compute in place."""
    snr = np.add(link_db, gain_db, out=out)
    snr -= noise_db
    snr /= 10.0
    return np.power(10.0, snr, out=snr)


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
    by the bounds of ``_envelope_candidates``; the EESM runs only on the
    live ones, a few per pair.

    Every pair is decided exactly as a one-user, one-ring call would decide
    it: each SNR term comes from ``snr_unsplit`` of the same values, the
    EESM means are the same 1-D ``np.mean`` reductions, and feasibility near
    a threshold and the winner's effective SNR use ``math.log``.

    Returns arrays ``(best_n, best_mcs, best_eff_lin, best_se_n)`` of shape
    ``(users, rings)``, with ``best_mcs = -1`` (and zeros elsewhere) where
    nothing is feasible.
    """
    ues, total = gain_db_desc.shape
    rings = link_db.size
    best_n = np.zeros(ues * rings, dtype=np.int64)
    best_mcs = np.full(ues * rings, -1, dtype=np.int64)
    best_eff = np.zeros(ues * rings)
    best_rate = np.zeros(ues * rings)
    if total >= min_rbs and best_n.size:
        counts = np.arange(min_rbs, total + 1)
        live_u, live_r, live_n = _envelope_candidates(
            link_db, gain_db_desc, noise_db, counts, thr_lin, se,
            unique_betas.max())
        pair = live_u * rings + live_r
        rows, first = _live_rows(link_db, gain_db_desc, noise_db, pair,
                                 live_n)
        # the weakest of the best n RBs after the split
        v_min = rows[first + live_n - 1] / live_n
        means = _eesm_means(rows, first, live_n, v_min, unique_betas)
        mcs = _highest_feasible_mcs(v_min, means, thr_lin, unique_betas,
                                    beta_idx)

        # best n per pair by (rate, MCS, -n): as se strictly increases, of
        # equal rates the one with fewer RBs has the higher MCS, so sort the
        # feasible candidates by pair, falling rate and rising n, and take
        # each pair's first
        fit = np.flatnonzero(mcs >= 0)
        rate = se[mcs[fit]] * live_n[fit]
        order = np.lexsort((live_n[fit], -rate, pair[fit]))
        won = order[np.flatnonzero(np.diff(pair[fit[order]], prepend=-1))]
        c = fit[won]
        cell = pair[c]
        i = mcs[c]
        b = beta_idx[i]
        best_n[cell] = live_n[c]
        best_mcs[cell] = i
        best_rate[cell] = rate[won]
        best_eff[cell] = v_min[c] - unique_betas[b] * [
            math.log(m) for m in means[b, c].tolist()]
    shape = (ues, rings)
    return (best_n.reshape(shape), best_mcs.reshape(shape),
            best_eff.reshape(shape), best_rate.reshape(shape))


def _envelope_candidates(link_db, gain_db_desc, noise_db, counts, thr_lin,
                         se, max_beta):
    """Candidates ``(user, ring, n)`` that may still win or tie, as three
    index arrays ordered by n.

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
    ``se_i * n`` at ``exceed``, the smallest ``reach`` of a higher rate (one
    sort of the rates and a running minimum). Candidate n is live at G when
    the rate of its highest upper-bound MCS i, G in ``[meet_i, meet_i+1)``,
    is no lower than the sure rate, G below ``exceed``: one interval of G
    per (n, i), disjoint over i, found among the rings by one binary search.
    All users go through one pass over (user, n, MCS) arrays. Ties stay
    live, so the first-n tie rule sees every candidate it needs.

    Both bounds are widened by ``_BOUND_REL`` relative, and the upper one
    also by ``_BOUND_REL`` times the largest beta. That covers the rounding
    of the cumulative sum and of the effective SNR, whose error near equal
    SNRs is absolute in beta (the rounding of ``beta * log(mean)`` with
    ``mean`` near 1). They are widened by ``_FACTOR_REL`` more for the
    factorisation, so the live set holds every candidate that bounds on the
    SNR rows themselves keep. Cost: O(users * RBs * MCS) plus the live
    count, whatever the number of rings.
    """
    levels = thr_lin.size
    link = np.power(10.0, link_db / 10.0)
    ring_order = np.argsort(link)
    link_sorted = link[ring_order]
    row = snr_unsplit(0.0, gain_db_desc, noise_db)
    low = row[:, counts - 1] / counts
    low *= (1.0 - _BOUND_REL) * (1.0 - _FACTOR_REL)
    high = np.cumsum(row, axis=1)[:, counts - 1]
    high /= counts * counts
    high *= (1.0 + _BOUND_REL) * (1.0 + _FACTOR_REL)
    need = thr_lin - _BOUND_REL * max_beta
    # for each (n, i), the first position of a higher rate in rate order
    # (sorted keys keep the binary search short)
    rate = (se * counts[:, None]).ravel()
    by_rate = np.argsort(rate)
    above = np.empty_like(by_rate)
    above[by_rate] = np.searchsorted(rate[by_rate], rate[by_rate],
                                     side="right")
    ues = gain_db_desc.shape[0]
    reach = thr_lin / low[:, :, None]
    # meet[u, :, i + 1] closes MCS i's interval, the last column the top
    # MCS's; a threshold below the upper bound's absolute slack gives a meet
    # point at or below 0, met at every ring
    meet = np.full((ues, counts.size, levels + 1), np.inf)
    np.divide(need, high[:, :, None], out=meet[:, :, :-1])
    # lowest[u, j]: user u's smallest reach point from rate position j up
    lowest = np.full((ues, rate.size + 1), np.inf)
    np.minimum.accumulate(reach.reshape(ues, -1)[:, by_rate[::-1]], axis=1,
                          out=lowest[:, -2::-1])
    # per (u, n, i), the G at which the sure rate first exceeds se_i * n:
    # the smallest reach point of a higher rate, inf if none
    exceed = lowest[:, above].reshape(reach.shape)
    end = np.minimum(exceed, meet[:, :, 1:])
    lo = np.searchsorted(link_sorted, meet[:, :, :-1], side="left").ravel()
    size = np.searchsorted(link_sorted, end, side="left").ravel()
    size -= lo
    live = np.flatnonzero(size > 0)
    # ordered by n, then by user and MCS
    live = live[np.argsort(live // levels % counts.size, kind="stable")]
    user, n_idx = np.divmod(live // levels, counts.size)
    lo, size = lo[live], size[live]
    # the rings of each (n, user, i) interval, end to end
    where = np.repeat(lo - (np.cumsum(size) - size), size)
    where += np.arange(where.size)
    return (np.repeat(user, size), ring_order[where],
            np.repeat(counts[n_idx], size))


def _live_rows(link_db, gain_db_desc, noise_db, pair, live_n):
    """SNRs of the best RBs of each live (user, ring) pair, ``pair = user *
    rings + ring``, up to its largest live n, end to end, by
    ``snr_unsplit``; candidate c's best n RBs are ``rows[first[c]:][:n]``.
    Pairs hold a few candidates each, so this takes a fraction of the terms
    the EESM then reads."""
    pairs, inverse = np.unique(pair, return_inverse=True)
    length = np.zeros(pairs.size, dtype=np.int64)
    np.maximum.at(length, inverse, live_n)
    start = np.cumsum(length) - length
    pair_u, pair_r = np.divmod(pairs, link_db.size)
    where = np.repeat(pair_u * gain_db_desc.shape[1] - start, length)
    where += np.arange(where.size)
    gains = gain_db_desc.ravel()[where]
    del where
    return snr_unsplit(np.repeat(link_db[pair_r], length), gains, noise_db,
                       out=gains), start[inverse]


def _eesm_means(rows, first, live_n, v_min, unique_betas):
    """Shifted EESM mean ``mean(exp((v_min - v) / beta))`` over the best n
    RBs ``v`` of each live candidate, ``rows[first:first + n]`` split over
    n, for every beta; shape ``(betas, candidates)``.

    The candidates' RBs are laid end to end in chunks of about
    ``EESM_CHUNK_TERMS`` terms. Candidates come ordered by n, so each run of
    equal n in a chunk is a C-contiguous (candidates x n) block per beta,
    summed row by row with the same 1-D pairwise reduction and divided by n
    as ``np.mean`` does for one row alone.
    """
    means = np.empty((unique_betas.size, live_n.size))
    if live_n.size == 0:
        return means
    ends = np.cumsum(live_n)
    starts = ends - live_n
    cuts = (np.flatnonzero(np.diff((ends - 1) // EESM_CHUNK_TERMS))
            + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [live_n.size]):
        n = live_n[lo:hi]
        offset = starts[lo:hi] - starts[lo]
        # indices of each candidate's best n RBs in rows, end to end
        where = np.repeat(first[lo:hi] - offset, n)
        where += np.arange(where.size)
        # shifted EESM terms, stable for large SNR
        terms = rows[where]
        del where
        terms /= np.repeat(n, n)
        np.subtract(np.repeat(v_min[lo:hi], n), terms, out=terms)
        terms = terms / unique_betas[:, None]
        np.exp(terms, out=terms)
        runs = [0] + (np.flatnonzero(np.diff(n)) + 1).tolist() + [n.size]
        for a, z in zip(runs[:-1], runs[1:]):
            size = int(n[a])
            block = terms[:, offset[a]:offset[a] + (z - a) * size]
            means[:, lo + a:lo + z] = np.add.reduce(
                block.reshape(-1, z - a, size), axis=2)
    means /= live_n
    return means


def _highest_feasible_mcs(v_min, means, thr_lin, unique_betas, beta_idx):
    """Highest MCS whose threshold the effective SNR ``v_min - beta *
    log(mean)`` meets, per live candidate, -1 where none is met."""
    effs = np.log(means)
    effs *= unique_betas[:, None]
    np.subtract(v_min, effs, out=effs)
    mcs = np.full(v_min.size, -1, dtype=np.int64)
    for b, beta in enumerate(unique_betas):
        levels = np.flatnonzero(beta_idx == b)
        thr = thr_lin[levels]
        tol = _NEAR_THRESHOLD_REL * thr
        eff = effs[b]
        # thresholds met; only the nearest one below or above can flip when
        # np.log is replaced by math.log
        met = np.searchsorted(thr, eff, side="right")
        near = ((eff <= np.concatenate(([-np.inf], thr + tol))[met])
                | (eff >= np.concatenate((thr - tol, [np.inf]))[met]))
        for c in np.flatnonzero(near).tolist():
            met[c] = np.searchsorted(
                thr, v_min[c] - beta * math.log(means[b, c]), side="right")
        np.maximum(mcs, np.concatenate(([-1], levels))[met], out=mcs)
    return mcs
