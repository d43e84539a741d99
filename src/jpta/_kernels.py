"""Hot numerical kernels.

Three loops dominate the toolkit's run time: the angle x frequency pattern
grid, the per-antenna delay-grid scan used by the wideband beam designer, and
the RB-count x MCS rate search with an EESM average inside.

The rate search exists once, as a numpy routine batched over rings. The
pattern grid and the delay scan exist twice, as a numba ``@njit`` routine and
as a vectorized numpy routine. Their active backend is chosen at import time:

* ``JPTA_NUMBA=0`` (also ``false``/``no``/``off``) forces the numpy path.
* Otherwise numba is used when importable, with a silent numpy fallback.

``backend()`` reports which path is live. Both implementations are exported
(``*_numpy`` / ``*_jit``) so tests and the benchmark can compare them.
"""

from __future__ import annotations

import math
import os

import numpy as np

TWO_PI = 2.0 * math.pi


def _numba_wanted() -> bool:
    flag = os.environ.get("JPTA_NUMBA", "").strip().lower()
    return flag not in ("0", "false", "no", "off")


try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is an install dependency
    njit = None
    _HAVE_NUMBA = False

NUMBA_ENABLED = _HAVE_NUMBA and _numba_wanted()


def backend() -> str:
    """Name of the active kernel backend, ``"numba"`` or ``"numpy"``."""
    return "numba" if NUMBA_ENABLED else "numpy"


# ---------------------------------------------------------------------------
# pattern correlation: |<steering(angle, f), response(f)>| on a grid
# ---------------------------------------------------------------------------

def pattern_corr_numpy(cos_angles, freqs, phases, delays, slope_scale):
    """Correlation magnitudes on an angle x frequency grid.

    Entry (a, k) is ``|(1/M) sum_m exp(j(slope_scale*f_k*cos_a*m - phi_m
    - 2*pi*f_k*tau_m))|`` where ``slope_scale = 2*pi*spacing/c``. This is the
    magnitude of the conjugated inner product between the unit-norm steering
    vector and the unit-norm phase-time response.
    """
    cos_angles = np.asarray(cos_angles, dtype=np.float64)
    freqs = np.asarray(freqs, dtype=np.float64)
    num_el = phases.shape[0]
    elem = np.arange(num_el, dtype=np.float64)
    resp = phases[None, :] + TWO_PI * freqs[:, None] * delays[None, :]
    out = np.empty((cos_angles.size, freqs.size), dtype=np.float64)
    # chunk the angle axis to bound the (a, k, m) temporary
    chunk = max(1, 4_000_000 // max(1, freqs.size * num_el))
    for a0 in range(0, cos_angles.size, chunk):
        cos_blk = cos_angles[a0:a0 + chunk]
        slope = slope_scale * cos_blk[:, None] * freqs[None, :]
        phase = slope[:, :, None] * elem[None, None, :] - resp[None, :, :]
        out[a0:a0 + chunk] = np.abs(np.exp(1j * phase).sum(axis=2)) / num_el
    return out


def _pattern_corr_py(cos_angles, freqs, phases, delays, slope_scale):
    num_angles = cos_angles.shape[0]
    num_freqs = freqs.shape[0]
    num_el = phases.shape[0]
    out = np.empty((num_angles, num_freqs), dtype=np.float64)
    for a in range(num_angles):
        for k in range(num_freqs):
            slope = slope_scale * freqs[k] * cos_angles[a]
            re = 0.0
            im = 0.0
            for m in range(num_el):
                ph = slope * m - phases[m] - TWO_PI * freqs[k] * delays[m]
                re += math.cos(ph)
                im += math.sin(ph)
            out[a, k] = math.sqrt(re * re + im * im) / num_el
    return out


# ---------------------------------------------------------------------------
# delay scan: per-antenna correlation of the target phase ramp with each
# candidate delay, summed over the evaluation frequencies
# ---------------------------------------------------------------------------

def delay_scan_numpy(slopes, freqs, taus, num_elements):
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


def _delay_scan_py(slopes, freqs, taus, num_elements):
    num_taus = taus.shape[0]
    num_freqs = freqs.shape[0]
    out = np.empty((num_taus, num_elements), dtype=np.complex128)
    for t in range(num_taus):
        for m in range(num_elements):
            re = 0.0
            im = 0.0
            for k in range(num_freqs):
                ph = slopes[k] * m - TWO_PI * freqs[k] * taus[t]
                re += math.cos(ph)
                im += math.sin(ph)
            out[t, m] = complex(re, im)
    return out


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


if _HAVE_NUMBA:
    pattern_corr_jit = njit(cache=True)(_pattern_corr_py)
    delay_scan_jit = njit(cache=True)(_delay_scan_py)
else:  # pragma: no cover
    pattern_corr_jit = None
    delay_scan_jit = None

if NUMBA_ENABLED:
    pattern_corr = pattern_corr_jit
    delay_scan = delay_scan_jit
else:
    pattern_corr = pattern_corr_numpy
    delay_scan = delay_scan_numpy
