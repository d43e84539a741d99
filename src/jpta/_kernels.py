"""Hot numerical kernels, one numpy implementation each.

Three loops dominate the toolkit's run time:

* the angle x frequency pattern grid (``pattern_corr``), a Horner
  evaluation of one element polynomial per frequency, chunked over angles;
* the per-antenna delay-grid scan of the wideband beam designer
  (``delay_scan``), one complex matrix product;
* the RB-count x MCS rate search with an EESM average inside
  (``rate_scan_batch``), batched over the rings of one user. Exact bounds
  prune it first: every EESM effective SNR lies between the weakest split
  SNR and the mean split SNR, so a (ring, RB count) candidate whose
  upper-bound rate falls below the rate its ring surely reaches is dropped
  before any exponential is taken. On the criterion-4 deployment at 160
  rings the EESM runs for 1.6% of the candidates, 1% of the terms.

``tests/oracles.py`` holds plain-loop references for all three, which the
tests check these kernels against and ``benchmarks/bench_kernels.py`` times
them against.
"""

from __future__ import annotations

import math

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
    vector and the unit-norm phase-time response.

    The sum is a polynomial in ``z[a, k] = exp(j*slope_scale*f_k*cos_a)``
    with per-frequency coefficients ``c[k, m] = exp(-j(phi_m +
    2*pi*f_k*tau_m))``, evaluated by Horner's rule over m: A*K + K*M complex
    exponentials instead of A*K*M, and M - 1 in-place multiply-adds on an
    (angle chunk x K) array, each adding one contiguous coefficient row
    ``c[:, m]``. Every cell is computed by the same elementwise
    operations whatever the chunking, so a row does not depend on the other
    angles of the call.
    """
    cos_angles = np.asarray(cos_angles, dtype=np.float64)
    freqs = np.asarray(freqs, dtype=np.float64)
    num_el = phases.shape[0]
    # one contiguous row of K coefficients per element, for the Horner steps
    coef = np.ascontiguousarray(np.exp(
        -1j * (phases[None, :] + TWO_PI * freqs[:, None] * delays[None, :])).T)
    out = np.empty((cos_angles.size, freqs.size), dtype=np.float64)
    slope = slope_scale * freqs
    chunk = max(1, PATTERN_CHUNK_CELLS // max(1, freqs.size))
    for a0 in range(0, cos_angles.size, chunk):
        arg = cos_angles[a0:a0 + chunk, None] * slope
        z = np.empty(arg.shape, dtype=np.complex128)
        np.cos(arg, out=z.real)
        np.sin(arg, out=z.imag)
        acc = np.empty_like(z)
        acc[:] = coef[-1]
        for m in range(num_el - 2, -1, -1):
            acc *= z
            acc += coef[m]
        np.abs(acc, out=out[a0:a0 + chunk])
    out /= num_el
    return out


# ---------------------------------------------------------------------------
# delay scan: per-antenna correlation of the target phase ramp with each
# candidate delay, summed over the evaluation frequencies
# ---------------------------------------------------------------------------

def delay_scan(slopes, freqs, taus, num_elements):
    """Complex score ``U[t, m] = sum_k exp(j(m*slopes[k] - 2*pi*f_k*tau_t))``.

    ``slopes[k]`` is the per-element phase increment of the target steering
    vector at evaluation frequency ``freqs[k]``. The best delay for antenna m
    maximizes ``|U[:, m]|`` and the matching phase is ``angle(U)``.
    """
    slopes = np.asarray(slopes, dtype=np.float64)
    freqs = np.asarray(freqs, dtype=np.float64)
    taus = np.asarray(taus, dtype=np.float64)
    elem = np.arange(num_elements, dtype=np.float64)
    target = np.exp(1j * slopes[:, None] * elem[None, :])
    twiddle = np.exp(-1j * TWO_PI * taus[:, None] * freqs[None, :])
    return twiddle @ target


# ---------------------------------------------------------------------------
# rate search: best (RB count, MCS) under an EESM feasibility test, for many
# rings at once
# ---------------------------------------------------------------------------

# np.log may differ from math.log by an ulp; a feasibility margin this small,
# relative to the threshold, is decided again with math.log
_NEAR_THRESHOLD_REL = 1e-9

# slack on both EESM bounds before they are mapped to an MCS, relative (and,
# on the upper bound, times the largest beta in absolute terms): far above
# the near-threshold re-check and above the rounding of an effective SNR or
# of a cumulative sum of a few hundred terms (about 1e-13 of either)
_BOUND_REL = 1e-6

# EESM terms per chunk of live candidates: a chunk's arrays stay near cache
# size, and memory does not grow with the ring count
EESM_CHUNK_TERMS = 1 << 16


def rate_scan_batch(snr_unsplit_desc, thr_lin, se, unique_betas, beta_idx,
                    min_rbs):
    """Best feasible (RB count, MCS) for every row of an SNR matrix.

    Row r of ``snr_unsplit_desc`` (shape ``(rings, RBs)``) holds per-RB
    linear SNR with the full transmit power on a single RB, sorted
    descending; splitting power over ``n`` RBs divides each entry by ``n``.
    For every ``n`` in ``[min_rbs, RBs]`` the EESM effective SNR of the best
    ``n`` RBs is computed per distinct EESM beta, the highest feasible MCS is
    found, and candidates are ranked by throughput ``se * n``, then higher
    MCS, then fewer RBs. ``thr_lin`` and ``se`` must be strictly
    increasing, as ``McsTable`` ensures.

    Candidates that cannot win are pruned before any exponential is taken.
    For the split SNRs ``g`` of the best n RBs, every beta's effective SNR
    lies between ``min(g)`` (each shifted EESM term is at most 1) and
    ``mean(g)`` (Jensen's inequality). Mapped to an MCS, the lower bound
    gives a rate the ring surely reaches and the upper bound a rate the
    candidate cannot beat. A candidate whose upper bound meets no threshold,
    or whose upper-bound rate is below the best lower-bound rate of its
    ring, can neither win nor tie, so its EESM is never evaluated. Before
    the threshold lookup both bounds are widened by ``_BOUND_REL`` relative,
    and the upper one also by ``_BOUND_REL`` times the largest beta. That
    covers the rounding of the cumulative sum behind ``mean(g)`` and of the
    effective SNR, whose error near equal SNRs is absolute in beta (the
    rounding of ``beta * log(mean)`` with ``mean`` near 1), so the prune
    drops no candidate the full scan could pick.

    Every row is decided exactly as a one-row call would decide it: the
    EESM means are the same 1-D ``np.mean`` reductions, and feasibility near
    a threshold and the winner's effective SNR use ``math.log``.

    Returns arrays ``(best_n, best_mcs, best_eff_lin, best_se_n)``, one entry
    per row, with ``best_mcs = -1`` (and zeros elsewhere) where nothing is
    feasible.
    """
    rings, total = snr_unsplit_desc.shape
    best_n = np.zeros(rings, dtype=np.int64)
    best_mcs = np.full(rings, -1, dtype=np.int64)
    best_eff = np.zeros(rings)
    best_rate = np.zeros(rings)
    if total < min_rbs:
        return best_n, best_mcs, best_eff, best_rate
    counts = np.arange(min_rbs, total + 1)
    # the weakest of the best n RBs after the split, per (ring, n)
    v_min = snr_unsplit_desc[:, counts - 1] / counts
    live_k, live_r = _live_candidates(snr_unsplit_desc, counts, v_min,
                                      thr_lin, se, unique_betas.max())
    # from here on, one entry per live candidate
    live_n = counts[live_k]
    v_min = v_min[live_r, live_k]
    means = _eesm_means(snr_unsplit_desc, live_n, live_r, v_min,
                        unique_betas)
    mcs = _highest_feasible_mcs(v_min, means, thr_lin, unique_betas,
                                beta_idx)

    # best n per ring by (rate, MCS, -n): as se strictly increases, of equal
    # rates the one with fewer RBs has the higher MCS, so sort the feasible
    # candidates by ring, falling rate and rising n, and take each ring's
    # first
    fit = np.flatnonzero(mcs >= 0)
    rate = se[mcs[fit]] * live_n[fit]
    order = np.lexsort((live_n[fit], -rate, live_r[fit]))
    won = order[np.flatnonzero(np.diff(live_r[fit[order]], prepend=-1))]
    c = fit[won]
    r = live_r[c]
    i = mcs[c]
    b = beta_idx[i]
    best_n[r] = live_n[c]
    best_mcs[r] = i
    best_rate[r] = rate[won]
    best_eff[r] = v_min[c] - unique_betas[b] * [
        math.log(m) for m in means[b, c].tolist()]
    return best_n, best_mcs, best_eff, best_rate


def _live_candidates(snr_unsplit_desc, counts, v_min, thr_lin, se,
                     max_beta):
    """Candidates that may still win, by the bounds ``v_min <= eff <=
    mean`` on every beta's effective SNR: ``(n index, ring)`` index arrays,
    ordered by n, then ring."""
    mean = np.cumsum(snr_unsplit_desc, axis=1)[:, counts - 1]
    mean /= counts * counts
    # rate of the highest MCS each bound meets, 0 where it meets none
    se0 = np.concatenate(([0.0], se))
    lb = np.searchsorted(thr_lin, v_min * (1.0 - _BOUND_REL), side="right")
    lb_best = (se0[lb] * counts).max(axis=1, keepdims=True)
    ub = np.searchsorted(thr_lin, mean * (1.0 + _BOUND_REL)
                         + _BOUND_REL * max_beta, side="right")
    # ties stay live, so the first-n tie rule sees every candidate it needs
    live = (ub > 0) & (se0[ub] * counts >= lb_best)
    return np.nonzero(live.T)


def _eesm_means(snr_unsplit_desc, live_n, live_r, v_min, unique_betas):
    """Shifted EESM mean ``mean(exp((v_min - v) / beta))`` over the best n
    RBs ``v`` of each live candidate ``(ring, n)``, split over n, for every
    beta; shape ``(betas, candidates)``.

    The candidates' RBs are laid end to end in chunks of about
    ``EESM_CHUNK_TERMS`` terms. Candidates come ordered by n, so each run of
    equal n in a chunk is a C-contiguous (candidates x n) block per beta,
    summed row by row with the same 1-D pairwise reduction and divided by n
    as ``np.mean`` does for one row alone.
    """
    means = np.empty((unique_betas.size, live_n.size))
    if live_n.size == 0:
        return means
    width = snr_unsplit_desc.shape[1]
    flat = snr_unsplit_desc.ravel()
    ends = np.cumsum(live_n)
    starts = ends - live_n
    cuts = (np.flatnonzero(np.diff((ends - 1) // EESM_CHUNK_TERMS))
            + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [live_n.size]):
        n = live_n[lo:hi]
        offset = starts[lo:hi] - starts[lo]
        # flat indices of each candidate's best n RBs, end to end
        where = np.repeat(live_r[lo:hi] * width - offset, n)
        where += np.arange(where.size)
        # shifted EESM terms, stable for large SNR
        terms = flat[where]
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
