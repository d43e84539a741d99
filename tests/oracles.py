"""Brute-force references for the vectorized kernels in ``jpta._kernels``,
for the beam gain and its two vectors, for the link budget's per-RB SNR
and for the pattern CSV writer of ``jpta.cli``, and the closed-form
uniform-array factor.

Plain scalar loops, one cell, one ring or one CSV row at a time: slow, but
simple enough to read as the definition the fast code is checked against.
``benchmarks/`` imports them too, to time the fast code against the loops it
replaces. The long-double references (``*_longdouble``) take the same
arithmetic at higher precision, and the ``*_bound`` helpers state the
error the kernels may make against them, as derived in the kernels'
docstrings.
"""

import math

import numpy as np

from jpta.antenna import CORRELATION_FLOOR, SPEED_OF_LIGHT_M_S
from jpta.link import noise_power_dbm_per_rb, path_gain_db

TWO_PI = 2.0 * math.pi


def steering_vector(cfg, angle_rad, freq_hz):
    """Unit-norm array response of a plane wave from the axis angle
    ``angle_rad``: entry m is ``exp(j*2*pi*m*spacing*freq*cos(angle)/c) /
    sqrt(M)``."""
    m = np.arange(cfg.num_elements, dtype=np.float64)
    slope = 2.0 * math.pi * cfg.spacing_m * freq_hz * math.cos(angle_rad) \
        / SPEED_OF_LIGHT_M_S
    return np.exp(1j * slope * m) / math.sqrt(cfg.num_elements)


def jpta_response(cfg, weights, freq_hz):
    """Weight vector that phase-time weights realize at one frequency:
    entry m is ``exp(j*(phi_m + 2*pi*freq*tau_m)) / sqrt(M)``, the phase
    shifter flat in frequency, the true-time delay linear in it."""
    phase = weights.phases_rad + 2.0 * math.pi * freq_hz * weights.delays_s
    return np.exp(1j * phase) / math.sqrt(cfg.num_elements)


def beam_gain_db_py(cfg, weights, angle_rad, freq_hz):
    """Gain in dB toward an axis angle at one frequency, from the two
    vectors: ``peak_gain_db + 20*log10`` of ``|<steering, response>|``
    floored at ``CORRELATION_FLOOR``, by ``np.vdot``."""
    corr = abs(np.vdot(steering_vector(cfg, angle_rad, freq_hz),
                       jpta_response(cfg, weights, freq_hz)))
    return cfg.peak_gain_db + 20.0 * math.log10(max(corr, CORRELATION_FLOOR))


def array_factor(num_elements, psi):
    """Uniform-array factor ``|sin(M*psi/2) / (M*sin(psi/2))|``, 1 where
    ``psi`` is 0 mod 2*pi: the correlation of weights whose element phases
    step by the same ``psi`` across the array. ``psi`` is first reduced to
    [-pi, pi], where the quotient of the two sines is well conditioned."""
    psi = np.asarray(psi, dtype=np.float64)
    psi = psi - TWO_PI * np.round(psi / TWO_PI)
    den = num_elements * np.sin(psi / 2.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        factor = np.abs(np.sin(num_elements * psi / 2.0) / den)
    return np.where(den == 0.0, 1.0, factor)


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


def pattern_corr_longdouble(cos_angles, freqs, phases, delays,
                            slope_scale):
    """``pattern_corr_py`` of the same float64 inputs, the float64 2*pi
    among them, every step taken in ``np.longdouble``, one element term at
    a time over the whole grid: on a 63-bit mantissa its own error is
    about 2**-11 of the float64 kernel's, so it stands for the exact
    correlation."""
    long = np.longdouble
    freqs = np.asarray(freqs, dtype=np.float64).astype(long)
    slope = long(slope_scale) * freqs * np.asarray(
        cos_angles, dtype=np.float64).astype(long)[:, None]
    re = np.zeros(slope.shape, dtype=long)
    im = np.zeros(slope.shape, dtype=long)
    for m, (phase, delay) in enumerate(zip(phases, delays)):
        arg = slope * m - (long(phase) + long(TWO_PI) * freqs * long(delay))
        re += np.cos(arg)
        im += np.sin(arg)
    return np.sqrt(re * re + im * im) / len(phases)


def pattern_corr_bound(num_elements, coef_arg, slope, fine_width=1,
                       fine_arg=0.0, fine_slope=0.0, coef_residual=0.0,
                       slope_residual=0.0, unit=2.0 ** -53,
                       arg_unit=float(np.finfo(np.longdouble).eps) / 2.0):
    """Largest error ``_kernels.pattern_corr`` may make against the exact
    correlation, derived in its docstring: M elements, ``coef_arg`` the
    largest coarse coefficient argument ``|phi_m| + 2*pi*|f_q*tau_m|`` and
    ``slope`` the largest steering slope ``scale*|f|`` over the split's
    frequencies, a fine power chain of ``fine_width`` B powers, whose step
    has the largest delay phase ``fine_arg`` = 2*pi*step*tau_max and the
    slope ``fine_slope`` = scale*step, ``coef_residual`` = 2*pi*tau_max*D
    and ``slope_residual`` = scale*D for the split's largest residual D =
    ``|f_q + r*step - f_k|`` (0 for integer-Hz RB centers, at most
    ``_kernels.SPLIT_RESIDUAL_ULPS`` ulps of the largest frequency on a
    split axis), in float64 of unit roundoff ``unit`` with the arguments of
    the coarse coefficients and the fine delay phases taken at
    ``arg_unit``. A split of one fine offset (B = 1) takes ``fine_width``
    1 and D = 0."""
    root2 = math.sqrt(2.0)
    return (5.0 * arg_unit * (coef_arg + TWO_PI) + coef_residual
            + (num_elements - 1) * (unit * slope + slope_residual / 2.0
                                    + 2.125 * unit)
            + (fine_width - 1) * (
                2.0 * unit * fine_slope * (num_elements - 1)
                + 5.0 * arg_unit * (fine_arg + TWO_PI)
                + (2.0 * TWO_PI + 3.0 * root2) * unit)
            + 2.0 * root2 * num_elements * unit
            + (TWO_PI + root2 + 11.5) * unit)


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


def gain_db_bound(corr, corr_bound, peak_db, num_elements,
                  floor=CORRELATION_FLOOR, unit=2.0 ** -53):
    """Largest error of a gain of ``_kernels.pattern_corr`` with its dB
    step against ``peak_db + 20*log10(max(corr, floor))`` of the exact
    correlation ``corr``, when the kernel's correlation errs by at most
    ``corr_bound``, derived in ``_kernels._gain_db``'s docstring: the
    correlation's error through the floored log, and the rounding of
    ``|g|**2``, of ``log10`` within one ulp, of the factor 10, of the
    offset ``peak_db - 20*log10(M)`` and of its sum."""
    ln10 = math.log(10.0)
    kept = np.maximum(np.asarray(corr, dtype=np.float64), floor)
    level = np.abs(20.0 * np.log10(num_elements * kept))
    gain = np.abs(peak_db + 20.0 * np.log10(kept))
    offset = abs(peak_db) + 80.0 * math.log10(num_elements)
    step = (10.0 / ln10 * (2.0 + unit) * unit * (1.0 + 2.0 * unit)
            + 3.0 * unit * level + unit * (offset + gain + level))
    return step + 20.0 / ln10 * corr_bound / np.maximum(kept - corr_bound,
                                                        floor)


def db_step_bound(corr, peak_db, num_elements, unit=2.0 ** -53):
    """How far a gain of ``_kernels.pattern_corr``'s dB step, taken on
    ``|g|**2``, and ``peak_db + 20*log10(max(corr, floor))`` of the same
    sum's correlation ``corr = |g|/M`` may lie apart: each lies within
    ``gain_db_bound`` of the floored dB of ``|g|/M`` itself, the
    correlation's magnitude and division by M rounding by 2u of it, and
    the correlation's own ``log10`` within one ulp, its factor 20 and its
    sum with the peak add 3u of ``20*log10(corr)`` and u of the gain."""
    kept = np.maximum(corr, CORRELATION_FLOOR)
    return (2.0 * gain_db_bound(corr, 2.1 * unit * kept, peak_db,
                                num_elements, unit=unit)
            + unit * (3.0 * np.abs(20.0 * np.log10(kept))
                      + np.abs(peak_db + 20.0 * np.log10(kept))))


def phase_ramps_longdouble(slopes, num_elements):
    """``exp(j*m*slopes[k])``, shape (slopes, num_elements), in
    ``np.longdouble``: m*slopes[k] is exact on a 63-bit mantissa, so only
    the long-double cos and sin round."""
    ld = np.longdouble
    arg = np.asarray(slopes, dtype=np.float64).astype(ld)[:, None] \
        * np.arange(num_elements).astype(ld)
    return np.cos(arg) + 1j * np.sin(arg)


def phase_ramps_bound(num_elements, unit=2.0 ** -53):
    """Largest error of each column m of ``_kernels.phase_ramps`` against
    the exact ``exp(j*m*slope)``, shape (num_elements,), derived in
    ``_kernels.delay_scan``'s docstring: the phasor's cos and sin within one
    ulp, sqrt(2)*u, taken m times, and the m - 1 complex products of the
    doubling tree, sqrt(2)*gamma_2 each."""
    m = np.arange(num_elements, dtype=np.float64)
    phasor = math.log1p(math.sqrt(2.0) * unit)
    product = math.log1p(math.sqrt(2.0) * 2.0 * unit / (1.0 - 2.0 * unit))
    return np.expm1(m * phasor + np.maximum(m - 1.0, 0.0) * product)


def delay_scan_longdouble(slopes, freqs, taus, cells):
    """``U[t, m]`` of ``delay_scan_py`` at each ``(t, m)`` of ``cells``,
    every step taken in ``np.longdouble`` on the same float64 inputs, the
    float64 2*pi among them: ``exp(j*m*slope_k)`` of an exact argument
    times ``exp(-j*2*pi*tau_t*f_k)``, summed over k. On a 63-bit mantissa
    its own error is about 2**-11 of the float64 kernel's, so it stands
    for the exact scores."""
    ld = np.longdouble
    slopes = np.asarray(slopes, dtype=np.float64).astype(ld)
    freqs = np.asarray(freqs, dtype=np.float64).astype(ld)
    out = np.empty(len(cells), dtype=np.clongdouble)
    for c, (t, m) in enumerate(cells):
        ramp = slopes * m
        delay = ld(TWO_PI) * ld(taus[t]) * freqs
        re = np.cos(ramp) * np.cos(delay) + np.sin(ramp) * np.sin(delay)
        im = np.sin(ramp) * np.cos(delay) - np.cos(ramp) * np.sin(delay)
        out[c] = np.sum(re) + 1j * np.sum(im)
    return out


def delay_scan_bound(freqs, taus, num_elements, unit=2.0 ** -53):
    """Largest error of ``_kernels.delay_scan`` against the exact scores of
    the same float64 slopes, ``freqs`` and ``taus``, shape (taus,
    num_elements), derived in its docstring: each twiddle's argument
    rounds twice and its cos and sin within one ulp, each target entry errs
    by ``phase_ramps_bound``, and the K-term complex dot product in real
    arithmetic rounds within sqrt(2)*gamma_2K of the sum of the terms'
    magnitudes."""
    freqs = np.abs(np.asarray(freqs, dtype=np.float64))
    taus = np.asarray(taus, dtype=np.float64)
    terms = freqs.size
    root2 = math.sqrt(2.0)
    # (1 + u)**2 - 1 of the argument's two roundings
    twiddles = (2.0 + unit) * unit * TWO_PI * taus * freqs.sum() \
        + terms * root2 * unit
    ramps = phase_ramps_bound(num_elements, unit)
    gamma = 2 * terms * unit / (1.0 - 2 * terms * unit)
    return (twiddles[:, None] + terms * (1.0 + root2 * unit) * ramps
            + root2 * gamma * terms * (1.0 + root2 * unit) * (1.0 + ramps))


def eesm_effective_snr_db_py(snr_db_values, beta):
    """EESM of one RB set in dB, of per-RB SNRs in dB:
    ``-beta * ln(mean(exp(-snr/beta)))`` of their linear values
    ``np.power(10, snr/10)``, shifted by the minimum, with a 1-D
    ``np.mean`` and ``np.log`` and ``np.log10`` on top."""
    snr_lin = np.power(10.0, np.asarray(snr_db_values, dtype=np.float64)
                       / 10.0)
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


def snr_factors(link_db, gain_db_desc, noise_db):
    """The rate kernel's two SNR factors: each ring's link gain ``G =
    10**(link_db/10)``, shape ``(rings,)``, and each user's per-RB gain
    over noise ``s = 10**((gain_db - noise_db)/10)``, the shape of
    ``gain_db_desc``. Pair (u, r) sees the per-RB linear SNR ``G[r] *
    s[u]`` with the whole transmit power on one RB."""
    link = np.power(10.0, np.asarray(link_db, dtype=np.float64) / 10.0)
    return link, np.power(10.0, (gain_db_desc - noise_db) / 10.0)


def snr_rows(link_db, gain_db_desc, noise_db):
    """Per-RB linear SNR of every (user, ring) pair with the whole transmit
    power on one RB, shape ``(users, rings, RBs)``: the products ``G * s``
    of ``snr_factors``."""
    link, row = snr_factors(link_db, gain_db_desc, noise_db)
    return link[None, :, None] * row[:, None, :]


def split_eesm_py(link, row, n, beta):
    """Weakest split SNR ``v_min`` and shifted EESM mean of the best ``n``
    RBs of one ring, link gain ``link`` and sorted gain/noise ``row``, with
    the power split over them, in the rate kernel's arithmetic: ``scale =
    link/n``, ``w = row[n-1]``, ``v_min = scale * w`` and the 1-D
    ``np.mean`` of ``exp((w - row[:n]) * (scale/beta))``."""
    scale = link / n
    w = row[n - 1]
    return scale * w, np.mean(np.exp((w - row[:n]) * (scale / beta)))


def split_eesm_db_py(link, row, n, beta):
    """EESM in dB of the best ``n`` RBs of one ring with the power split
    over them: ``10 * log10(v_min - beta * ln(mean))`` of
    ``split_eesm_py``, with ``np.log`` and ``np.log10``. An outage's
    diagnostic effective SNR in ``select_rate_grid`` is this, bit for bit,
    since results.csv prints it."""
    v_min, mean = split_eesm_py(link, row, n, beta)
    return 10.0 * np.log10(v_min - beta * np.log(mean))


def rate_scan_py(link, row, thr_lin, se, unique_betas, beta_idx, min_rbs):
    """Best feasible (RB count, MCS) of one ring by exhaustive scan.

    ``link`` is the ring's link gain and ``row`` the user's per-RB gain
    over noise sorted descending (``snr_factors``). Every allocation size n
    from ``min_rbs`` up is tried, with its highest feasible MCS
    (``highest_mcs_py``), and candidates are ranked by ``se * n``, then
    higher MCS, then fewer RBs.

    Returns ``(best_n, best_mcs, best_eff_db, best_se_n)``, the effective
    SNR ``10 * log10`` of the linear one by ``np.log10``. When nothing is
    feasible it is ``(0, -1, eff, 0.0)``, ``eff`` the outage diagnostic:
    ``split_eesm_db_py`` at MCS 0's beta of the ``min(min_rbs, RBs)`` best
    RBs.
    """
    n = min(min_rbs, row.shape[0])
    best = (0, -1, split_eesm_db_py(link, row, n, unique_betas[beta_idx[0]]),
            0.0)
    best_rate = -1.0
    for n in range(min_rbs, row.shape[0] + 1):
        i, eff = highest_mcs_py(link, row, n, thr_lin, unique_betas, beta_idx)
        if i >= 0:
            rate = se[i] * n
            if rate > best_rate or (rate == best_rate and i > best[1]):
                best_rate = rate
                best = (n, i, 10.0 * np.log10(eff), rate)
    return best


def highest_mcs_py(link, row, n, thr_lin, unique_betas, beta_idx):
    """Highest MCS whose threshold the EESM effective SNR of the best ``n``
    RBs of one ring meets, with that effective SNR (linear): ``(-1, None)``
    when none is met.

    The EESM mean is a 1-D ``np.mean`` of ``np.exp`` (``split_eesm_py``)
    with ``np.log`` on top, the arithmetic ``select_rate`` is defined by. A
    sequential ``math.exp`` sum rounds differently and could flip a
    decision whose threshold is met with equality.
    """
    effs = []
    for beta in unique_betas:
        v_min, mean = split_eesm_py(link, row, n, beta)
        effs.append(v_min - beta * np.log(mean))
    for i in range(thr_lin.shape[0] - 1, -1, -1):
        if effs[beta_idx[i]] >= thr_lin[i]:
            return i, effs[beta_idx[i]]
    return -1, None


def eesm_stage_py(link, row, user, ring, live_n, unique_betas):
    """``_kernels._eesm_stage`` one candidate ``(user, ring, n)`` at a time:
    ``split_eesm_py`` of its ring's link gain and its user's row, one 1-D
    ``np.mean`` (the pairwise ``np.add.reduce`` divided by n) per beta."""
    v_min = np.empty(live_n.size)
    means = np.empty((unique_betas.size, live_n.size))
    for c, (u, r, n) in enumerate(zip(user.tolist(), ring.tolist(),
                                      live_n.tolist())):
        for b, beta in enumerate(unique_betas.tolist()):
            v_min[c], means[b, c] = split_eesm_py(link[r], row[u], n, beta)
    return v_min, means


def _snr_factors_longdouble(link_db, gain_db_desc, noise_db):
    """``snr_factors`` of the same float64 inputs in ``np.longdouble``."""
    ld = np.longdouble
    link = np.power(ld(10), np.asarray(link_db, dtype=np.float64).astype(ld)
                    / 10)
    gains = np.asarray(gain_db_desc, dtype=np.float64).astype(ld)
    return link, np.power(ld(10), (gains - ld(noise_db)) / 10)


def eesm_stage_longdouble(link_db, gain_db_desc, noise_db, user, ring,
                          live_n, unique_betas):
    """``_kernels._eesm_stage`` of the link gains and rows of the same
    float64 ``link_db``, ``gain_db_desc`` and ``noise_db``, every step taken
    in ``np.longdouble``, one candidate at a time: ``v_min = G*w/n`` and
    per beta the 1-D ``np.mean`` of ``exp((w - s[:n]) * (G/(n*beta)))``.
    On a 63-bit mantissa its own error is about 2**-11 of the float64
    kernel's, so it stands for the exact values."""
    ld = np.longdouble
    link, row = _snr_factors_longdouble(link_db, gain_db_desc, noise_db)
    v_min = np.empty(live_n.size, dtype=ld)
    means = np.empty((unique_betas.size, live_n.size), dtype=ld)
    for c, (u, r, n) in enumerate(zip(user.tolist(), ring.tolist(),
                                      live_n.tolist())):
        s = row[u, :n]
        v_min[c] = link[r] * s[-1] / n
        for b, beta in enumerate(unique_betas.tolist()):
            means[b, c] = np.mean(np.exp((s[-1] - s)
                                         * (link[r] / (n * ld(beta)))))
    return v_min, means


def _pairwise_roundings(n):
    """Most roundings a term takes in numpy's pairwise sum of ``n`` terms:
    below 8 terms one running sum, up to 128 eight interleaved running sums
    joined in a tree of three levels and then the rest one by one, past 128
    two halves, cut at a multiple of 8, and their sum."""
    if n < 8:
        return n
    if n <= 128:
        return n // 8 + 2 + n % 8
    half = n // 2 - n // 2 % 8
    return 1 + max(_pairwise_roundings(half), _pairwise_roundings(n - half))


def eesm_stage_bound(link_db, gain_db_desc, noise_db, user, ring, live_n,
                     unique_betas, unit=2.0 ** -53):
    """Largest errors ``_kernels._eesm_stage`` may make against the exact
    ``v_min`` and means of the same float64 ``link_db``, ``gain_db_desc``
    and ``noise_db``, derived in its docstring, in a float type of unit
    roundoff ``unit`` whose power and ``exp`` err by at most one ulp
    (numpy's float64 ones: 0.70 and 0.73 ulp measured): arrays of the
    shapes of ``v_min`` and ``means``. The long-double values of
    ``eesm_stage_longdouble`` stand in for the exact ones. The sum rounds
    at most once more than its deepest path of n or n - 1 terms, whichever
    way the reduction starts."""
    ld = np.longdouble
    link, row = _snr_factors_longdouble(link_db, gain_db_desc, noise_db)
    step = math.log1p(unit)
    # one ulp, relative 2 * unit, of np.power and of np.exp
    one_ulp = math.log1p(2.0 * unit)
    ln10 = math.log(10.0)
    # relative errors of G and of each s: the rounded exponent, then power
    e_link = np.expm1(ln10 * np.abs(np.asarray(link_db, dtype=np.float64))
                      / 10.0 * unit + one_ulp)
    x_row = np.abs(np.asarray(gain_db_desc, dtype=np.float64).astype(ld)
                   - ld(noise_db)) / 10
    e_row = np.expm1(ln10 * x_row.astype(np.float64) * (2.0 * unit
                                                        + unit * unit)
                     + one_ulp)
    v_bound = np.empty(live_n.size)
    m_bound = np.empty((unique_betas.size, live_n.size))
    for c, (u, r, n) in enumerate(zip(user.tolist(), ring.tolist(),
                                      live_n.tolist())):
        s, es = row[u, :n], e_row[u, :n]
        grow = math.log1p(e_link[r]) + 4.0 * step
        v_bound[c] = float(link[r] * s[-1] / n) * math.expm1(
            math.log1p(e_link[r]) + math.log1p(es[-1]) + 2.0 * step)
        # the exponent's error absolute in it, before the factor c
        carried = es[-1] * float(s[-1]) + es * s.astype(np.float64)
        depth = 1 + max(_pairwise_roundings(n), _pairwise_roundings(n - 1))
        for b, beta in enumerate(unique_betas.tolist()):
            factor = link[r] / (n * ld(beta))
            a = ((s[-1] - s) * factor).astype(np.float64)
            da = -a * math.expm1(grow) + float(factor) * carried * math.exp(
                grow)
            t = np.exp(a)
            dt = np.where(da < 1.0, t * np.expm1(da + one_ulp),
                          np.exp(a + da + one_ulp))
            total, err = t.sum(), dt.sum()
            m_bound[b, c] = ((err + math.expm1(depth * step) * (total + err))
                             * (1.0 + unit) + unit * total) / n
    return v_bound, m_bound


def live_candidates_py(snr_rows_u, counts, thr_lin, se, max_beta, rel):
    """Candidates of one user that EESM bounds taken on its SNR rows
    ``snr_rows_u`` (shape ``(rings, RBs)``, the products ``G * s`` of
    ``snr_rows``) keep: ``(n index, ring)`` index arrays, ordered by n,
    then ring.

    Per (ring, n) cell, ``v_min = snr[n-1]/n <= eff <= mean`` with the mean
    from one cumulative sum. Each bound, widened by ``rel`` (and the upper
    one by ``rel`` times the largest beta), is mapped to the highest MCS it
    meets; a candidate stays live when its upper bound meets a threshold and
    its upper-bound rate is at least the best lower-bound rate of its ring.
    The rate kernel's per-user envelope must keep every candidate this
    keeps.
    """
    v_min = snr_rows_u[:, counts - 1] / counts
    mean = np.cumsum(snr_rows_u, axis=1)[:, counts - 1]
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
