"""Hot numerical kernels, one numpy implementation each.

Three loops dominate the toolkit's run time:

* the angle x frequency pattern grid (``pattern_corr``), a Horner
  evaluation of one element polynomial per frequency, chunked over angles;
* the per-antenna delay-grid scan of the wideband beam designer
  (``delay_scan``), one complex matrix product;
* the RB-count x MCS rate search with an EESM average inside
  (``rate_scan_batch``), batched over the rings of one user.

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
    (angle chunk x K) array. Every cell is computed by the same elementwise
    operations whatever the chunking, so a row does not depend on the other
    angles of the call.
    """
    cos_angles = np.asarray(cos_angles, dtype=np.float64)
    freqs = np.asarray(freqs, dtype=np.float64)
    num_el = phases.shape[0]
    coef = np.exp(-1j * (phases[None, :] + TWO_PI * freqs[:, None]
                         * delays[None, :]))
    out = np.empty((cos_angles.size, freqs.size), dtype=np.float64)
    slope = slope_scale * freqs
    chunk = max(1, PATTERN_CHUNK_CELLS // max(1, freqs.size))
    for a0 in range(0, cos_angles.size, chunk):
        arg = cos_angles[a0:a0 + chunk, None] * slope
        z = np.empty(arg.shape, dtype=np.complex128)
        np.cos(arg, out=z.real)
        np.sin(arg, out=z.imag)
        acc = np.empty_like(z)
        acc[:] = coef[:, -1]
        for m in range(num_el - 2, -1, -1):
            acc *= z
            acc += coef[:, m]
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


def rate_scan_batch(snr_unsplit_desc, thr_lin, se, unique_betas, beta_idx,
                    min_rbs):
    """Best feasible (RB count, MCS) for every row of an SNR matrix.

    Row r of ``snr_unsplit_desc`` (shape ``(rings, RBs)``) holds per-RB
    linear SNR with the full transmit power on a single RB, sorted
    descending; splitting power over ``n`` RBs divides each entry by ``n``.
    For every ``n`` in ``[min_rbs, RBs]`` the EESM effective SNR of the best
    ``n`` RBs is computed per distinct EESM beta, the highest feasible MCS is
    found, and candidates are ranked by throughput ``se * n``, then higher
    MCS, then fewer RBs. ``se`` must be strictly increasing, as ``McsTable``
    ensures.

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
    means = _eesm_means(snr_unsplit_desc, counts, unique_betas)
    mcs = _highest_feasible_mcs(snr_unsplit_desc, counts, means, thr_lin,
                                unique_betas, beta_idx)

    # best n per ring by (rate, MCS, -n): as se strictly increases, of equal
    # rates the one with fewer RBs has the higher MCS, so take the first
    rate = se[mcs]
    rate *= counts
    rate[mcs < 0] = -1.0
    top = rate == rate.max(axis=1, keepdims=True)
    for r, k in enumerate(np.argmax(top, axis=1)):
        i = mcs[r, k]
        if i < 0:
            continue
        b = beta_idx[i]
        best_n[r] = counts[k]
        best_mcs[r] = i
        best_eff[r] = _exact_eff(snr_unsplit_desc[r], counts[k],
                                 means[r, k, b], unique_betas[b])
        best_rate[r] = rate[r, k]
    return best_n, best_mcs, best_eff, best_rate


def _eesm_means(snr_unsplit_desc, counts, unique_betas):
    """Shifted EESM mean ``mean(exp((v_min - v) / beta))`` over the best n
    RBs ``v`` of every row, split over n, for every n in ``counts`` and
    every beta; shape ``(rings, counts, betas)``. Each entry is the row sum
    and division ``np.mean`` makes of that row alone."""
    means = np.empty((snr_unsplit_desc.shape[0], counts.size,
                      unique_betas.size))
    for b, beta in enumerate(unique_betas):
        for k, n in enumerate(counts):
            # shifted EESM terms, stable for large SNR, in place; the last
            # column is the weakest RB, v_min
            terms = snr_unsplit_desc[:, :n] / n
            np.subtract(terms[:, -1:].copy(), terms, out=terms)
            terms /= beta
            means[:, k, b] = np.add.reduce(np.exp(terms, out=terms), axis=1)
    means /= counts[:, None]
    return means


def _exact_eff(snr_row, n, mean, beta):
    """Effective SNR ``v_min - beta * log(mean)`` of the best n RBs of one
    row, with ``math.log``."""
    return snr_row[n - 1] / n - beta * math.log(mean)


def _highest_feasible_mcs(snr_unsplit_desc, counts, means, thr_lin,
                          unique_betas, beta_idx):
    """Highest MCS whose threshold the effective SNR meets, per (ring, n),
    -1 where none is met."""
    # v_min - beta * log(mean), in place, v_min the weakest of the best n
    # RBs after the split
    effs = np.log(means)
    effs *= unique_betas
    np.subtract((snr_unsplit_desc[:, counts[0] - 1:] / counts)[:, :, None],
                effs, out=effs)
    mcs = np.full(effs.shape[:2], -1, dtype=np.int64)
    for i, b in enumerate(beta_idx):
        eff = effs[:, :, b]
        thr = thr_lin[i]
        feasible = eff >= thr
        tol = _NEAR_THRESHOLD_REL * thr
        near = (eff >= thr - tol) & (eff <= thr + tol)
        # flat indices: 2-D np.nonzero costs ~40x more on this shape
        for r, k in zip(*np.unravel_index(np.flatnonzero(near), near.shape)):
            feasible[r, k] = _exact_eff(snr_unsplit_desc[r], counts[k],
                                        means[r, k, b],
                                        unique_betas[b]) >= thr
        np.maximum(mcs, i, out=mcs, where=feasible)
    return mcs
