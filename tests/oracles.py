"""Brute-force references for the vectorized kernels in ``jpta._kernels``,
for the link budget's per-RB SNR and for the pattern CSV writer of
``jpta.cli``.

Plain scalar loops, one cell, one ring or one CSV row at a time: slow, but
simple enough to read as the definition the fast code is checked against.
``benchmarks/`` imports them too, to time the fast code against the loops it
replaces.
"""

import math

import numpy as np

from jpta.link import noise_power_dbm_per_rb, path_gain_db

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
    """EESM of one RB set in dB, of per-RB SNRs in dB: their linear values
    ``np.power(10, snr/10)`` through ``eesm_linear_db_py``."""
    return eesm_linear_db_py(
        np.power(10.0, np.asarray(snr_db_values, dtype=np.float64) / 10.0),
        beta)


def eesm_linear_db_py(snr_lin, beta):
    """EESM of one RB set in dB, of linear per-RB SNRs:
    ``-beta * ln(mean(exp(-snr/beta)))``, shifted by the minimum, with a
    1-D ``np.mean`` and ``np.log`` and ``np.log10`` on top. An outage's
    diagnostic effective SNR in ``select_rate_grid`` is this of its split
    SNRs, bit for bit, since results.csv prints it."""
    v_min = snr_lin.min()
    eff = v_min - beta * np.log(np.mean(np.exp(-(snr_lin - v_min) / beta)))
    return 10.0 * np.log10(eff)


def eesm_snr_db_longdouble(v_min, means, betas):
    """``10 * log10(v_min - beta * ln(mean))`` of the same float64 inputs
    as ``_kernels.eesm_snr_db``, every step taken in ``np.longdouble``:
    on a 63-bit mantissa its own error is about 2**-11 of the float64
    kernel's, so it stands for the exact value."""
    v_min, means, betas = (np.asarray(a, dtype=np.float64).astype(
        np.longdouble) for a in (v_min, means, betas))
    return 10 * np.log10(v_min - betas * np.log(means))


def eesm_snr_db_bound(y_db, unit=2.0 ** -53, log_ulps=1.0):
    """Largest error ``_kernels.eesm_snr_db`` may make against the exact
    effective SNR ``y_db``, derived in its docstring, in a float type of
    unit roundoff ``unit`` whose ``log`` and ``log10`` err by at most
    ``log_ulps`` ulp."""
    e_log = 2.0 * log_ulps * unit
    e_arg = (e_log + unit + e_log * unit) * (1.0 + unit) + unit
    lam = e_arg / (math.log(10.0) * (1.0 - e_arg))
    return (10.0 * lam * (1.0 + e_log) * (1.0 + unit)
            + np.abs(y_db) * (e_log + unit + e_log * unit))


def snr_per_rb_db(lm, distance_m, beam_gain_db_per_rb, allocated_rbs,
                  scs_hz):
    """Per-RB SNR in dB of one UE at one distance, in allocation order,
    with the transmit power split evenly over ``allocated_rbs``, ids into
    ``beam_gain_db_per_rb``: the link budget term by term in dB."""
    gains = np.asarray(beam_gain_db_per_rb, dtype=np.float64)
    alloc = np.asarray(allocated_rbs, dtype=np.int64)
    if alloc.size == 0:
        raise ValueError("allocated_rbs must be non-empty")
    tx = lm.ue_tx_power_dbm - 10.0 * math.log10(alloc.size)
    return (tx + lm.ue_beam_gain_db + path_gain_db(lm, distance_m)
            + gains[alloc] - noise_power_dbm_per_rb(lm, scs_hz))


def rate_scan_py(snr_unsplit_desc, thr_lin, se, unique_betas, beta_idx,
                 min_rbs):
    """Best feasible (RB count, MCS) of one ring by exhaustive scan.

    ``snr_unsplit_desc`` is one ring's per-RB linear SNR with the whole
    transmit power on one RB, sorted descending. Every allocation size n
    from ``min_rbs`` up is tried, with its highest feasible MCS
    (``highest_mcs_py``), and candidates are ranked by ``se * n``, then
    higher MCS, then fewer RBs.

    Returns ``(best_n, best_mcs, best_eff_db, best_se_n)``, the effective
    SNR ``10 * log10`` of the linear one by ``np.log10``, and
    ``(0, -1, 0.0, 0.0)`` when nothing is feasible.
    """
    best = (0, -1, 0.0, 0.0)
    best_rate = -1.0
    for n in range(min_rbs, snr_unsplit_desc.shape[0] + 1):
        i, eff = highest_mcs_py(snr_unsplit_desc, n, thr_lin, unique_betas,
                                beta_idx)
        if i >= 0:
            rate = se[i] * n
            if rate > best_rate or (rate == best_rate and i > best[1]):
                best_rate = rate
                best = (n, i, 10.0 * np.log10(eff), rate)
    return best


def highest_mcs_py(snr_unsplit_desc, n, thr_lin, unique_betas, beta_idx):
    """Highest MCS whose threshold the EESM effective SNR of the best ``n``
    RBs of one ring meets, with that effective SNR (linear): ``(-1, None)``
    when none is met.

    The EESM mean is a 1-D ``np.mean`` of ``np.exp`` with ``np.log`` on
    top, the arithmetic ``select_rate`` is defined by. A sequential
    ``math.exp`` sum rounds differently and could flip a decision whose
    threshold is met with equality.
    """
    values = snr_unsplit_desc[:n] / n
    v_min = values[-1]
    effs = [v_min - beta * np.log(np.mean(np.exp(-(values - v_min)
                                                 / beta)))
            for beta in unique_betas]
    for i in range(thr_lin.shape[0] - 1, -1, -1):
        if effs[beta_idx[i]] >= thr_lin[i]:
            return i, effs[beta_idx[i]]
    return -1, None


def snr_rows(link_db, gain_db_desc, noise_db):
    """Per-RB linear SNR of every (user, ring) pair with the whole transmit
    power on one RB, shape ``(users, rings, RBs)``:
    ``10 ** (((link_db + gain_db) - noise_db) / 10)``, the values the rate
    kernel's SNR terms take."""
    snr = (np.asarray(link_db, dtype=np.float64)[None, :, None]
           + gain_db_desc[:, None, :]) - noise_db
    return np.power(10.0, snr / 10.0)


def eesm_stage_py(link_db, gain_db_desc, noise_db, user, ring, live_n,
                  unique_betas):
    """``_kernels._eesm_stage`` one candidate ``(user, ring, n)`` at a time:
    the weakest of its best n split SNRs ``v``, and per beta the shifted
    EESM mean ``mean(exp((v_min - v) / beta))``, one 1-D ``np.mean`` (the
    pairwise ``np.add.reduce`` divided by n) of its own terms."""
    rows = snr_rows(link_db, gain_db_desc, noise_db)
    v_min = np.empty(live_n.size)
    means = np.empty((unique_betas.size, live_n.size))
    for c, (u, r, n) in enumerate(zip(user.tolist(), ring.tolist(),
                                      live_n.tolist())):
        values = rows[u, r, :n] / float(n)
        v_min[c] = values[-1]
        for b, beta in enumerate(unique_betas.tolist()):
            means[b, c] = np.mean(np.exp((values[-1] - values) / beta))
    return v_min, means


def live_candidates_py(snr_unsplit_desc, counts, thr_lin, se, max_beta, rel):
    """Candidates of one user that EESM bounds taken on its SNR rows keep:
    ``(n index, ring)`` index arrays, ordered by n, then ring.

    Per (ring, n) cell, ``v_min = snr[n-1]/n <= eff <= mean`` with the mean
    from one cumulative sum. Each bound, widened by ``rel`` (and the upper
    one by ``rel`` times the largest beta), is mapped to the highest MCS it
    meets; a candidate stays live when its upper bound meets a threshold and
    its upper-bound rate is at least the best lower-bound rate of its ring.
    The rate kernel's per-user envelope must keep every candidate this
    keeps.
    """
    v_min = snr_unsplit_desc[:, counts - 1] / counts
    mean = np.cumsum(snr_unsplit_desc, axis=1)[:, counts - 1]
    mean /= counts * counts
    # rate of the highest MCS each bound meets, 0 where it meets none
    se0 = np.concatenate(([0.0], se))
    lb = np.searchsorted(thr_lin, v_min * (1.0 - rel), side="right")
    lb_best = (se0[lb] * counts).max(axis=1, keepdims=True)
    ub = np.searchsorted(thr_lin, mean * (1.0 + rel) + rel * max_beta,
                         side="right")
    live = (ub > 0) & (se0[ub] * counts >= lb_best)
    return np.nonzero(live.T)


def write_pattern_rows_py(fh, bore_deg, gains):
    """The pattern CSV rows ``angle,rb,gain`` one angle at a time: a row
    template of ``"%.6g"`` fields for the RBs, filled per angle by one
    %-format of the row's gains as Python floats, encoded and written to the
    binary file ``fh``."""
    template = "".join("\0,%d,%%.6g\r\n" % r for r in range(gains.shape[1]))
    for deg, row in zip(bore_deg, np.asarray(gains).tolist()):
        fh.write((template.replace("\0", "%.6g" % deg)
                  % tuple(row)).encode())
