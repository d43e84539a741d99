"""Brute-force references for the vectorized kernels in ``jpta._kernels``.

Plain scalar loops, one cell or one ring at a time: slow, but simple enough
to read as the definition the fast kernels are checked against.
``benchmarks/`` imports them too, to time the kernels against the loops they
replace.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def pattern_corr_py(cos_angles, freqs, phases, delays, slope_scale):
    """Correlation magnitude of every (angle, frequency) cell, one element
    term at a time: ``|(1/M) sum_m exp(j(slope_scale*f_k*cos_a*m - phi_m
    - 2*pi*f_k*tau_m))|``."""
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


def delay_scan_py(slopes, freqs, taus, num_elements):
    """Complex delay score ``U[t, m] = sum_k exp(j(m*slopes[k]
    - 2*pi*f_k*tau_t))``, one term at a time."""
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


def eesm_effective_snr_db_py(snr_db_values, beta):
    """EESM of one RB set in dB: ``-beta * ln(mean(exp(-snr/beta)))`` in
    the linear domain, shifted by the minimum, with a 1-D ``np.mean`` and
    ``math.log`` on top. The outage diagnostic of ``select_rates`` prints
    this value, so the batched form must equal it bit for bit."""
    lin = np.power(10.0, np.asarray(snr_db_values, dtype=np.float64) / 10.0)
    v_min = lin.min()
    eff = v_min - beta * math.log(np.mean(np.exp(-(lin - v_min) / beta)))
    return 10.0 * math.log10(eff)


def rate_scan_py(snr_unsplit_desc, thr_lin, se, unique_betas, beta_idx,
                 min_rbs):
    """Best feasible (RB count, MCS) of one ring by exhaustive scan.

    ``snr_unsplit_desc`` is one ring's per-RB linear SNR with the whole
    transmit power on one RB, sorted descending. Every allocation size n
    from ``min_rbs`` up and every MCS level is tried; the highest feasible
    MCS per n is kept and candidates are ranked by ``se * n``, then higher
    MCS, then fewer RBs.

    The EESM mean is a 1-D ``np.mean`` of ``np.exp`` with ``math.log`` on
    top, the arithmetic ``select_rate`` is defined by. A sequential
    ``math.exp`` sum rounds differently and could flip a decision whose
    threshold is met with equality.

    Returns ``(best_n, best_mcs, best_eff_lin, best_se_n)``, and
    ``(0, -1, 0.0, 0.0)`` when nothing is feasible.
    """
    best = (0, -1, 0.0, 0.0)
    best_rate = -1.0
    for n in range(min_rbs, snr_unsplit_desc.shape[0] + 1):
        values = snr_unsplit_desc[:n] / n
        v_min = values[-1]
        effs = [v_min - beta * math.log(np.mean(np.exp(-(values - v_min)
                                                       / beta)))
                for beta in unique_betas]
        for i in range(se.shape[0] - 1, -1, -1):
            eff = effs[beta_idx[i]]
            if eff >= thr_lin[i]:
                rate = se[i] * n
                if rate > best_rate or (rate == best_rate and i > best[1]):
                    best_rate = rate
                    best = (n, i, eff, rate)
                break
    return best
