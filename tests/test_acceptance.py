"""Acceptance suite: one test per toolkit-level acceptance criterion.

Each test records a one-line [PASS]/[FAIL] summary (printed by the terminal
hook in conftest.py) and then asserts the criterion. Only criterion 2 is
expected to fail: its 3 dB in-band ripple bound holds for the two-direction
design but not for the four-direction one (5.72 dB), and no weights found
on this 16-element array reach it. The test is kept as written, with the
measured numbers on its report, until a four-user bound is settled.

Criterion 5 judges the 16-user throughput-ratio trend at the resolution of
the MCS ladder. Each scheme's mean throughput is a non-increasing staircase,
so their ratio dips wherever the two schemes step on different rings; rings
closer than one MCS step of path gain are not compared.
"""

import math

import numpy as np
from conftest import record_criterion

from jpta.antenna import (
    SPEED_OF_LIGHT_M_S,
    ArrayConfig,
    FrequencyGrid,
    PhaseTimeWeights,
    axis_from_boresight_deg,
    pattern_map,
)
from jpta.codebook import (
    DelayConstraint,
    RainbowSpec,
    Type1Target,
    design_type1,
    design_type2,
)
from jpta.link import LinkModel, McsTable, eesm_effective_snr_db
from jpta.sysim import (
    SCHEME_JPTA,
    SCHEME_PAA,
    Deployment,
    coverage_distance,
    jpta_share_target,
    log_ring_grid,
    throughput_sweep,
)
from oracles import jpta_response, steering_vector

ARRAY = ArrayConfig.half_wavelength(16, 28e9, 28.0)
GRID = FrequencyGrid(28e9, 400e6, 120e3, 264)
DELAY = DelayConstraint()  # 2.5 ns steps up to 157.5 ns
LM3 = LinkModel(carrier_hz=28e9)  # exponent-3 default link
MCS = McsTable.default()
SECTOR = (axis_from_boresight_deg(60.0), axis_from_boresight_deg(-60.0))

PLACEMENTS = {
    2: (-30.0, 30.0),
    4: (-30.0, -10.0, 10.0, 30.0),
    8: tuple(np.linspace(-55.0, 55.0, 8)),
    16: tuple(np.linspace(-55.0, 55.0, 16)),
}


def _design_for(num_ues):
    target, _ = jpta_share_target(np.radians(PLACEMENTS[num_ues]),
                                  GRID.num_rbs)
    weights, objective = design_type1(ARRAY, target, GRID, DELAY)
    return target, weights, objective


def test_criterion_1_max_delay_progression():
    expected_ns = {2: 2.5, 4: 7.5, 8: 17.5, 16: 35.0}
    measured_ns = {}
    ok = True
    for n in sorted(PLACEMENTS):
        _, weights, _ = _design_for(n)
        measured_ns[n] = float(weights.delays_s.max()) * 1e9
        if abs(measured_ns[n] - expected_ns[n]) > 2.5 + 1e-9:
            ok = False
    detail = "max delay " + ", ".join(
        "%d UEs %.1f ns (target %.1f +- 2.5)" % (n, measured_ns[n],
                                                 expected_ns[n])
        for n in sorted(measured_ns))
    record_criterion(1, ok, detail)
    assert ok, detail


def _worst_inband_dip(num_ues):
    target, weights, _ = _design_for(num_ues)
    worst = 0.0
    for angle, (start, stop) in target.entries:
        gains = pattern_map(ARRAY, weights, np.array([angle]), GRID)[0]
        worst = max(worst, ARRAY.peak_gain_db - float(gains[start:stop].min()))
    return worst


def test_criterion_2_subband_gain_ripple():
    dip2 = _worst_inband_dip(2)
    dip4 = _worst_inband_dip(4)
    ok = dip2 <= 3.0 and dip4 <= 3.0
    detail = ("worst in-band dip: 2 UEs %.4f dB, 4 UEs %.4f dB "
              "(bound 3 dB below the 28 dB peak)" % (dip2, dip4))
    record_criterion(2, ok, detail)
    assert ok, detail


def test_criterion_3_near_and_floor_regime_parity():
    dep = Deployment(ue_angles_rad=np.radians(PLACEMENTS[4]),
                     ring_distances_m=log_ring_grid(30.0, 3000.0, 160))
    res = throughput_sweep(dep, ARRAY, GRID, LM3, MCS, DELAY, 16, SECTOR)
    paa, jpta = res.rates[SCHEME_PAA], res.rates[SCHEME_JPTA]
    paa_bps = paa.throughput_bps.tolist()
    jpta_bps = jpta.throughput_bps.tolist()
    # rings where a scheme grants the minimal allocation: MCS 0 on 4 RBs
    paa_min, jpta_min = ((g.mcs_index == 0) & (g.num_rbs == 4)
                         for g in (paa, jpta))
    ok = True
    floor_ues = 0
    near_parts = []
    floor_parts = []
    for u in range(dep.num_ues):
        near = jpta_bps[0][u] / paa_bps[0][u]
        near_parts.append("%.4f" % near)
        if abs(near - 1.0) > 0.01:
            ok = False
        common = np.flatnonzero(paa_min[:, u] & jpta_min[:, u]).tolist()
        if common:
            floor_ues += 1
            i = common[-1]
            ratio = jpta_bps[i][u] / paa_bps[i][u]
            floor_parts.append("UE%d %.6f at %.0f m" %
                               (u, ratio, dep.ring_distances_m[i]))
            if abs(ratio - 4.0) > 1e-9:
                ok = False
    if floor_ues == 0:
        ok = False
        floor_parts.append("no UE has a common minimal-grant ring")
    detail = ("near-ring ratios [%s] (need 1 +- 1%%); minimal-grant floor: %s"
              % (", ".join(near_parts), "; ".join(floor_parts)))
    record_criterion(3, ok, detail)
    assert ok, detail


def test_criterion_4_coverage_ratio_and_exponent_law():
    ring_spans = {2.0: (8000.0, 120000.0), 3.0: (300.0, 3000.0),
                  4.0: (60.0, 500.0)}
    angles = np.radians(PLACEMENTS[8])
    ratios = {}
    for exponent, (lo, hi) in ring_spans.items():
        dep = Deployment(ue_angles_rad=angles,
                         ring_distances_m=log_ring_grid(lo, hi, 320))
        lm = LinkModel(carrier_hz=28e9, path_loss_exponent=exponent)
        res = throughput_sweep(dep, ARRAY, GRID, lm, MCS, DELAY, 16, SECTOR)
        cov = {}
        for scheme in (SCHEME_PAA, SCHEME_JPTA):
            c = coverage_distance(dep.ring_distances_m,
                                  res.mean_throughput_bps(scheme), 1e6)
            assert c.distance_m is not None and not c.censored, \
                "ring span must bracket the crossing for %s" % scheme
            cov[scheme] = c.distance_m
        ratios[exponent] = cov[SCHEME_JPTA] / cov[SCHEME_PAA]
    in_window = 1.7 <= ratios[3.0] <= 2.3
    c_values = {b: b * math.log(r) for b, r in ratios.items()}
    c_mean = sum(c_values.values()) / len(c_values)
    spread = max(abs(v / c_mean - 1.0) for v in c_values.values())
    ok = in_window and spread <= 0.05
    detail = ("coverage ratio at exponent 3: %.4f (need 2.0 +- 15%%); "
              "ratios {2: %.4f, 3: %.4f, 4: %.4f} follow an exp(c/beta) law "
              "with c spread %.2f%% (need <= 5%%)"
              % (ratios[3.0], ratios[2.0], ratios[3.0], ratios[4.0],
                 100.0 * spread))
    record_criterion(4, ok, detail)
    assert ok, detail


def _mcs_step_distance_factor(mcs, lm):
    """Widest MCS threshold gap (dB) and the distance factor it spans.

    Path gain falls by 10 * exponent * log10 of the distance factor, so two
    rings at least this factor apart differ by a full MCS step of SNR at any
    point on the ladder.
    """
    gap_db = float(np.diff(mcs.thresholds_db()).max())
    return gap_db, 10.0 ** (gap_db / (10.0 * lm.path_loss_exponent))


def _ratio_trend_violations(distances_m, ratios, min_factor):
    """Ring pairs at least min_factor apart in distance whose ratio falls.

    Returns (i, j, ratios[i], ratios[j]) for every i < j with
    distances_m[j] >= distances_m[i] * min_factor and ratios[j] < ratios[i].
    """
    return [(i, j, float(ratios[i]), float(ratios[j]))
            for i in range(len(ratios)) for j in range(i + 1, len(ratios))
            if distances_m[j] >= distances_m[i] * min_factor
            and ratios[j] < ratios[i] - 1e-9]


def test_ratio_trend_check_flags_falls_and_passes_single_ring_dips():
    rings = log_ring_grid(30.0, 1500.0, 40)
    _, factor = _mcs_step_distance_factor(MCS, LM3)
    rising = np.geomspace(1.0, 8.0, rings.size)
    sag = rising.copy()
    sag[20:31] = rising[20] * np.linspace(1.0, 0.8, 11)
    sag[31:] = sag[30] * rising[31:] / rising[30]
    dip = rising.copy()
    dip[20] = 0.97 * dip[19]
    assert _ratio_trend_violations(rings, np.geomspace(8.0, 2.0, rings.size),
                                   factor)
    assert _ratio_trend_violations(rings, sag, factor)
    assert not _ratio_trend_violations(rings, rising, factor)
    assert not _ratio_trend_violations(rings, dip, factor)


def test_criterion_5_sixteen_user_ratio_curve():
    dep = Deployment(ue_angles_rad=np.radians(PLACEMENTS[16]),
                     ring_distances_m=log_ring_grid(30.0, 1500.0, 40))
    res = throughput_sweep(dep, ARRAY, GRID, LM3, MCS, DELAY, 16, SECTOR)
    mean_paa = res.mean_throughput_bps(SCHEME_PAA)
    mean_jpta = res.mean_throughput_bps(SCHEME_JPTA)
    alive = np.nonzero(mean_paa > 0.0)[0]
    ratio = mean_jpta[alive] / mean_paa[alive]
    far_ok = bool(ratio[-1] > 5.0)
    dips = [(int(alive[i]), float(ratio[i]), float(ratio[i + 1]))
            for i in range(ratio.size - 1)
            if ratio[i + 1] < ratio[i] - 1e-9]
    # A UE pushed below the minimum grant drops to zero throughput in one
    # step that no distance window covers, so rings with any outage are left
    # to the far-ring clause.
    outages = {scheme: res.rates[scheme].outage.sum(axis=1)
               for scheme in (SCHEME_PAA, SCHEME_JPTA)}
    quiet = (outages[SCHEME_PAA][alive] == 0) & \
        (outages[SCHEME_JPTA][alive] == 0)
    rings = alive[quiet]
    gap_db, factor = _mcs_step_distance_factor(MCS, LM3)
    falls = [(int(rings[i]), int(rings[j]), a, b)
             for i, j, a, b in _ratio_trend_violations(
                 dep.ring_distances_m[rings], ratio[quiet], factor)]
    ok = far_ok and not falls
    detail = ("ratio %.4f at the farthest ring with live PAA (%.0f m, "
              "need > 5); " % (ratio[-1], dep.ring_distances_m[alive[-1]]))
    detail += "adjacent-ring dips: %s; " % (", ".join(
        "ring %d (%.4f -> %.4f)" % d for d in dips) or "none")
    detail += ("ratio falls between rings >= %.4fx apart in distance (widest "
               "MCS threshold gap %.4f dB at exponent %g): %s; "
               % (factor, gap_db, LM3.path_loss_exponent, ", ".join(
                   "%d -> %d (%.4f -> %.4f)" % f for f in falls) or "none"))
    detail += "left out for outage: %s" % (", ".join(
        "ring %d (PAA %d, JPTA %d UEs)" % (i, outages[SCHEME_PAA][i],
                                          outages[SCHEME_JPTA][i])
        for i in alive[~quiet]) or "none")
    record_criterion(5, ok, detail)
    assert ok, detail


def test_criterion_6_designer_per_antenna_certificate():
    rng = np.random.default_rng(61)
    taus = DELAY.grid()
    freqs = GRID.rb_center_freqs()
    checked = 0
    violations = 0
    for _ in range(20):
        k = int(rng.integers(2, 7))
        bores = np.sort(rng.uniform(-55.0, 55.0, k))[::-1]
        cuts = np.sort(rng.choice(np.arange(1, GRID.num_rbs), size=k - 1,
                                  replace=False))
        bounds = [0] + [int(c) for c in cuts] + [GRID.num_rbs]
        target = Type1Target(entries=tuple(
            (axis_from_boresight_deg(float(b)), (bounds[i], bounds[i + 1]))
            for i, b in enumerate(bores)))
        weights, objective = design_type1(ARRAY, target, GRID, DELAY)
        rb_axis = target.rb_angles(GRID.num_rbs)
        slopes = (2.0 * math.pi * ARRAY.spacing_m * freqs * np.cos(rb_axis)
                  / SPEED_OF_LIGHT_M_S)
        total = 0.0
        for m in range(ARRAY.num_elements):
            steer = np.exp(1j * slopes * m)

            def cost(tau, phi):
                resp = np.exp(1j * (phi + 2.0 * math.pi * freqs * tau))
                return float(np.sum(np.abs(resp - steer) ** 2)) / 16.0

            chosen = cost(weights.delays_s[m], weights.phases_rad[m])
            total += chosen
            # exhaustive scan: each grid delay with its own best phase
            best = math.inf
            for tau in taus:
                s = np.sum(np.exp(1j * (slopes * m
                                        - 2.0 * math.pi * freqs * tau)))
                best = min(best, cost(tau, float(np.angle(s))))
            checked += 1
            if chosen > best + 1e-9:
                violations += 1
            # first-order check: nudging the chosen phase cannot help
            for eps in (-0.01, 0.01):
                if cost(weights.delays_s[m],
                        weights.phases_rad[m] + eps) < chosen - 1e-12:
                    violations += 1
        if abs(total - objective) > 1e-9 * max(1.0, objective):
            violations += 1
    ok = violations == 0
    detail = ("%d per-antenna optima certified by exhaustive delay-grid "
              "scan, %d violations" % (checked, violations))
    record_criterion(6, ok, detail)
    assert ok, detail


def test_criterion_7_swept_beam_properties():
    # the predicted span: design_type2 sweeps sin(spread/2) of boresight
    # over the whole bandwidth, of which the RB centers cover rho, so the
    # pointing's sine spans rho * sin(spread/2) on each side
    axis_grid = np.linspace(0.02, math.pi - 0.02, 3001)
    freqs = GRID.rb_center_freqs()
    rho = (freqs[-1] - freqs[0]) / GRID.bandwidth_hz
    ok = True
    parts = []
    for spread_deg in (30.0, 60.0, 110.0):
        spec = RainbowSpec(center_rad=math.pi / 2.0,
                           spread_rad=math.radians(spread_deg))
        weights = design_type2(ARRAY, spec, GRID)
        gains = pattern_map(ARRAY, weights, axis_grid, GRID)
        arg = axis_grid[np.argmax(gains, axis=0)]
        diffs = np.diff(arg)
        monotone = bool(np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12))
        span_frac = float(arg.max() - arg.min()) / spec.spread_rad
        predicted = 2.0 * math.asin(rho * math.sin(spec.spread_rad / 2.0)) \
            / spec.spread_rad
        peaks = gains.max(axis=0)
        peak_var = float(peaks.max() - peaks.min())
        if not (monotone and span_frac >= 0.9 and peak_var < 1.0):
            ok = False
        parts.append("%g deg: span %.1f%% (predicted %.1f%%), peak var "
                     "%.3f dB, %s" %
                     (spread_deg, 100.0 * span_frac, 100.0 * predicted,
                      peak_var, "monotone" if monotone else "NOT monotone"))
    detail = ("pointing vs frequency (need monotone, span >= 90%%, "
              "peak var < 1 dB; predicted span 2*asin(rho*sin(spread/2))"
              "/spread, rho = %.4f the RB centers' share of the band): "
              % rho) + "; ".join(parts)
    record_criterion(7, ok, detail)
    assert ok, detail


def test_criterion_8_numerical_hygiene():
    rng = np.random.default_rng(88)
    vector_fails = 0
    for _ in range(1000):
        m_count = int(rng.integers(1, 65))
        cfg = ArrayConfig(m_count, float(rng.uniform(0.001, 0.008)), 28e9,
                          28.0)
        angle = float(rng.uniform(0.0, math.pi))
        freq = float(rng.uniform(24e9, 30e9))
        v = steering_vector(cfg, angle, freq)
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            vector_fails += 1
        if np.max(np.abs(np.abs(v) - 1.0 / math.sqrt(m_count))) > 1e-12:
            vector_fails += 1
        flat = PhaseTimeWeights(delays_s=np.zeros(m_count),
                                phases_rad=rng.uniform(0.0, 2.0 * math.pi,
                                                       m_count))
        r1 = jpta_response(cfg, flat, freq)
        r2 = jpta_response(cfg, flat, float(rng.uniform(24e9, 30e9)))
        if not np.array_equal(r1, r2):  # zero delay: exactly frequency flat
            vector_fails += 1
        if abs(np.linalg.norm(r1) - 1.0) > 1e-12:
            vector_fails += 1
    eesm_fails = 0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        beta = float(rng.uniform(0.2, 4.0))
        level = float(rng.uniform(-30.0, 40.0))
        if abs(eesm_effective_snr_db(np.full(n, level), beta) - level) > 1e-9:
            eesm_fails += 1
        snrs = rng.uniform(-30.0, 40.0, n)
        eff = eesm_effective_snr_db(snrs, beta)
        if not snrs.min() - 1e-9 <= eff <= snrs.max() + 1e-9:
            eesm_fails += 1
    ok = vector_fails == 0 and eesm_fails == 0
    detail = ("1000 steering/response cases (%d failures); 1000 "
              "effective-SNR cases (%d failures)"
              % (vector_fails, eesm_fails))
    record_criterion(8, ok, detail)
    assert ok, detail
