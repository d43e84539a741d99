"""System simulation: share layout, scheme parity, coverage, CSV writers."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpta import _kernels, antenna, codebook, sysim
from jpta.antenna import (
    ArrayConfig,
    FrequencyGrid,
    axis_from_boresight_deg,
    beam_gain_db,
    pattern_map,
)
from jpta.codebook import (
    DelayConstraint,
    RainbowSpec,
    design_type2,
    paa_codebook,
)
from jpta.link import LinkModel, McsTable, RateGrid
from jpta.sysim import (
    RESULTS_CSV_HEADER,
    SCHEME_JPTA,
    SCHEME_PAA,
    SUMMARY_CSV_HEADER,
    CoverageResult,
    Deployment,
    ScenarioResult,
    coverage_distance,
    jpta_share_target,
    log_ring_grid,
    require_min_jpta_share,
    run_jpta,
    run_paa,
    throughput_sweep,
    write_results_csv,
    write_summary_csv,
)

SECTOR = (axis_from_boresight_deg(60.0), axis_from_boresight_deg(-60.0))


def _sweep(angles_deg, rings, num_rbs=264):
    dep = Deployment(ue_angles_rad=np.radians(angles_deg),
                     ring_distances_m=np.asarray(rings, dtype=float))
    cfg = ArrayConfig.half_wavelength(16, 28e9, 28.0)
    grid = FrequencyGrid(28e9, 400e6, 120e3, num_rbs)
    lm = LinkModel(carrier_hz=28e9)
    return throughput_sweep(dep, cfg, grid, lm, McsTable.default(),
                            DelayConstraint(), 16, SECTOR)


# ---------------------------------------------------------------------------
# share layout
# ---------------------------------------------------------------------------

def test_share_target_four_ue_layout():
    angles = np.radians([-30.0, -10.0, 10.0, 30.0])
    target, shares = jpta_share_target(angles, 264)
    # blocks run in descending boresight order: +30 gets the lowest RBs
    np.testing.assert_array_equal(shares[3], np.arange(0, 66))
    np.testing.assert_array_equal(shares[2], np.arange(66, 132))
    np.testing.assert_array_equal(shares[1], np.arange(132, 198))
    np.testing.assert_array_equal(shares[0], np.arange(198, 264))
    assert target.entries[0][0] == pytest.approx(
        axis_from_boresight_deg(30.0))
    assert target.entries[-1][0] == pytest.approx(
        axis_from_boresight_deg(-30.0))


def test_share_target_remainder_goes_to_last_block():
    angles = np.radians(np.linspace(-50.0, 50.0, 5))
    target, shares = jpta_share_target(angles, 264)
    sizes = sorted(s.size for s in shares)
    assert sizes == [52, 52, 52, 52, 56]
    # the last block (smallest boresight angle = UE 0) holds the remainder
    assert shares[0].size == 56


@pytest.mark.parametrize("num_ues", [1, 2, 3, 7, 16])
def test_share_target_disjoint_exhaustive(num_ues):
    angles = np.radians(np.linspace(-55.0, 55.0, num_ues))
    _, shares = jpta_share_target(angles, 264)
    merged = np.sort(np.concatenate(shares))
    np.testing.assert_array_equal(merged, np.arange(264))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_share_target_disjoint_cover_property(data):
    # any UE count, any angles (ties included) and any band with at least
    # one RB per UE: the shares are non-empty contiguous blocks, disjoint,
    # and cover [0, num_rbs) in descending boresight order, ties in UE order
    num_ues = data.draw(st.integers(1, 16))
    pool = data.draw(st.lists(st.floats(-90.0, 90.0), min_size=1,
                              max_size=num_ues))
    angles_deg = data.draw(st.lists(st.sampled_from(pool), min_size=num_ues,
                                    max_size=num_ues))
    num_rbs = data.draw(st.integers(num_ues, 300))
    _, shares = jpta_share_target(np.radians(angles_deg), num_rbs)
    assert len(shares) == num_ues
    for share in shares:
        assert share.size > 0
        np.testing.assert_array_equal(
            share, np.arange(share[0], share[0] + share.size))
    merged = np.sort(np.concatenate(shares))
    np.testing.assert_array_equal(merged, np.arange(num_rbs))
    starts = [int(share[0]) for share in shares]
    order = sorted(range(num_ues), key=lambda u: (-angles_deg[u], u))
    assert [starts[u] for u in order] == sorted(starts)


@pytest.mark.parametrize("num_ues,num_rbs,smallest", [
    (8, 24, 3), (4, 8, 2), (4, 15, 3), (5, 19, 3),
    # fewer RBs than UEs: some UE gets no share at all
    (8, 7, 0), (300, 264, 0)])
def test_min_jpta_share_rejects_a_share_below_the_grant(num_ues, num_rbs,
                                                         smallest):
    if num_rbs >= num_ues:
        _, shares = jpta_share_target(np.zeros(num_ues), num_rbs)
        assert min(share.size for share in shares) == smallest
    with pytest.raises(ValueError, match="^%d RBs over %d UEs leave a JPTA "
                       "share of %d RBs, below the 4-RB minimum grant$"
                       % (num_rbs, num_ues, smallest)):
        require_min_jpta_share(num_ues, num_rbs)


@pytest.mark.parametrize("num_ues,num_rbs", [(1, 4), (4, 16), (4, 19),
                                             (8, 32), (66, 264)])
def test_min_jpta_share_accepts_shares_of_the_grant(num_ues, num_rbs):
    _, shares = jpta_share_target(np.zeros(num_ues), num_rbs)
    assert min(share.size for share in shares) >= 4
    require_min_jpta_share(num_ues, num_rbs)


# ---------------------------------------------------------------------------
# gain rows and the serving beam
# ---------------------------------------------------------------------------

def _weight_sets(cfg):
    """A type-1 design with nonzero quantized delays, a rainbow design and
    three PAA beams (no delays)."""
    band = FrequencyGrid(28e9, 400e6, 120e3, 264)
    target = codebook.Type1Target.equal_shares(
        [math.pi / 2.0 - math.radians(a) for a in (40.0, 0.0, -40.0)], 264)
    type1, _ = codebook.design_type1(cfg, target, band, DelayConstraint())
    assert np.count_nonzero(type1.delays_s) > 8
    return ([type1, design_type2(cfg, RainbowSpec(math.pi / 2.0, 1.5), band)]
            + paa_codebook(cfg, 3, SECTOR))


def _assert_gain_rows_equal_pattern_map_rows(cfg, weight_sets, serving,
                                             angles, grid, freqs):
    rows = antenna.serving_gain_db(cfg, weight_sets, serving,
                                   np.cos(antenna.axis_from_boresight_rad(
                                       angles)), freqs)
    assert rows.shape == (angles.size, grid.num_rbs)
    for s, bore, row in zip(serving, angles, rows):
        axis = np.array([math.pi / 2.0 - bore])
        assert np.array_equal(row,
                              pattern_map(cfg, weight_sets[s], axis, grid)[0])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_gain_rows_equal_per_ue_pattern_map_rows(data):
    # one kernel call for all UEs, each serving set's coefficients built
    # once; in any UE order, with repeated angles and with sets that serve
    # no UE, every row must equal its own set's one-angle pattern_map row
    # bit for bit, over the RB centers of a grid or over the carrier alone
    # (run_paa's serving-beam pick), which is the one RB center of a one-RB
    # grid
    cfg = ArrayConfig.half_wavelength(16, 28e9, 28.0)
    if data.draw(st.booleans()):
        grid = FrequencyGrid(cfg.carrier_hz, 12 * 120e3, 120e3, 1)
        freqs = [cfg.carrier_hz]
        assert grid.rb_center_freqs().tolist() == freqs
    else:
        grid = FrequencyGrid(28e9, 400e6, 120e3,
                             data.draw(st.integers(1, 40)))
        freqs = grid.rb_center_freqs()
    pool = data.draw(st.lists(st.floats(-90.0, 90.0), min_size=1,
                              max_size=6))
    angles = np.radians(data.draw(st.lists(st.sampled_from(pool),
                                           min_size=1, max_size=12)))
    weight_sets = _weight_sets(cfg)
    serving = np.array(data.draw(st.lists(
        st.integers(0, len(weight_sets) - 1), min_size=angles.size,
        max_size=angles.size)))
    _assert_gain_rows_equal_pattern_map_rows(cfg, weight_sets, serving,
                                             angles, grid, freqs)


def test_gain_row_of_one_ue_on_one_rb():
    # the kernel row is one cell, as is the pattern_map row, for each set
    cfg = ArrayConfig.half_wavelength(16, 28e9, 28.0)
    grid = FrequencyGrid(cfg.carrier_hz, 12 * 120e3, 120e3, 1)
    weight_sets = _weight_sets(cfg)
    for s in range(len(weight_sets)):
        for bore in (-0.7, 0.0, 0.3):
            _assert_gain_rows_equal_pattern_map_rows(
                cfg, weight_sets, np.array([s]), np.array([bore]), grid,
                grid.rb_center_freqs())


def test_paa_serving_beam_tie_goes_to_the_first_beam(monkeypatch):
    # a UE at boresight sits halfway between beams 7 and 8 of 16 over
    # +-60 deg: their carrier gains tie exactly, and beam 7 must serve
    cfg = ArrayConfig.half_wavelength(16, 28e9, 28.0)
    grid = FrequencyGrid(28e9, 400e6, 120e3, 24)
    beams = paa_codebook(cfg, 16, SECTOR)
    tied = [beam_gain_db(cfg, beams[b], math.pi / 2.0, 28e9) for b in (7, 8)]
    assert tied == [23.675375784488104] * 2
    calls = []
    real = sysim.serving_gain_db

    def spy(cfg, weight_sets, serving, cos_angles, freqs):
        calls.append([weight_sets[s] for s in serving])
        return real(cfg, weight_sets, serving, cos_angles, freqs)

    monkeypatch.setattr(sysim, "serving_gain_db", spy)
    dep = Deployment(ue_angles_rad=[0.0], ring_distances_m=[100.0])
    run_paa(dep, cfg, grid, LinkModel(carrier_hz=28e9), McsTable.default(),
            beams)
    # the carrier pick over every beam, then the serving beam's rows, once,
    # for the one UE
    assert [len(c) for c in calls] == [16, 1]
    assert calls[1][0] is beams[7]


def test_sweep_pattern_kernel_cells(monkeypatch):
    # the carrier pick, one row per UE from its serving beam and one per UE
    # from the JPTA weights: beams x UEs + 2 x UEs x RBs cells, whatever
    # the UEs share; the designer's objective comes from its own scan
    cells = []
    real = _kernels.pattern_corr

    def counted(*args):
        out = real(*args)
        cells.append(out.size)
        return out

    def no_certificate(*args):
        raise AssertionError("design_type1 recomputed its objective")

    monkeypatch.setattr(_kernels, "pattern_corr", counted)
    monkeypatch.setattr(codebook, "type1_objective", no_certificate)
    for angles in ([0.0], [-30.0, -10.0, 10.0, 30.0],
                   [-50.0, 0.0, 0.0, 50.0, 20.0, -20.0]):
        cells.clear()
        _sweep(angles, [100.0, 1000.0])
        num_ues = len(angles)
        assert sum(cells) == 16 * num_ues + 2 * num_ues * 264, cells
        # the carrier pick and one call per scheme's gain rows
        assert len(cells) == 3, cells


def test_paa_coefficient_tables_hold_each_beam_once(monkeypatch):
    # the carrier pick names a beam per (UE, beam) row and the gain rows a
    # serving beam per UE; each call's coarse coefficient table holds one
    # one-column row per beam of the codebook, (M, beams, 1), never one per
    # row
    calls = []
    real = _kernels.pattern_corr

    def spy(cos_angles, split, coef, sets=None, db=None):
        calls.append((coef[0].shape, len(sets), cos_angles.size))
        return real(cos_angles, split, coef, sets, db)

    monkeypatch.setattr(_kernels, "pattern_corr", spy)
    cfg = ArrayConfig.half_wavelength(16, 28e9, 28.0)
    grid = FrequencyGrid(28e9, 400e6, 120e3, 24)
    dep = Deployment(ue_angles_rad=np.radians([-50.0, -20.0, 0.0, 0.0, 20.0,
                                               50.0]),
                     ring_distances_m=[100.0])
    run_paa(dep, cfg, grid, LinkModel(carrier_hz=28e9), McsTable.default(),
            paa_codebook(cfg, 16, SECTOR))
    assert calls == [((16, 16, 1), 6 * 16, 6 * 16), ((16, 16, 1), 6, 6)]


@pytest.mark.parametrize("serving", [[0, 5], [-1], [2, 0, 3]])
def test_serving_index_out_of_range_is_rejected(serving):
    # an index past the last set, or a negative one, names no set: it is
    # not read as a set counted from the end
    cfg = ArrayConfig.half_wavelength(16, 28e9, 28.0)
    beams = paa_codebook(cfg, 3, SECTOR)
    with pytest.raises(ValueError, match=r"^serving indices must lie in "
                                         r"\[0, 3\)"):
        antenna.serving_gain_db(cfg, beams, serving,
                                np.zeros(len(serving)), [28e9])


@pytest.mark.parametrize("num_beams", [1, 3])
@pytest.mark.parametrize("serving", [[0, 0], [0, 0, 0, 0], [[0, 0, 0]]])
def test_serving_of_another_length_than_the_angles_is_rejected(num_beams,
                                                               serving):
    # one index per angle: with several sets a short serving list would
    # fail inside the kernel, and with one set it would not be read at all
    cfg = ArrayConfig.half_wavelength(16, 28e9, 28.0)
    beams = paa_codebook(cfg, num_beams, SECTOR)
    with pytest.raises(ValueError, match=r"^serving must hold one index per "
                                         r"angle, got shape \(\d+(, \d+)?,?\) "
                                         r"for angles of shape \(3,\)$"):
        antenna.serving_gain_db(cfg, beams, serving, np.zeros(3), [28e9])


# ---------------------------------------------------------------------------
# scheme parity checks
# ---------------------------------------------------------------------------

def test_single_ue_schemes_coincide():
    """One UE on an exact codebook beam center: PAA serves it with the
    matched beam at duty 1, and the subband design degenerates to the same
    frequency-flat steering, so every rate decision is identical."""
    res = _sweep([-3.75], np.geomspace(30.0, 3000.0, 10))
    paa, jpta = res.rates[SCHEME_PAA], res.rates[SCHEME_JPTA]
    assert paa.mcs_index.tolist() == jpta.mcs_index.tolist()
    assert paa.num_rbs.tolist() == jpta.num_rbs.tolist()
    for ring_paa, ring_jpta in zip(paa.throughput_bps.tolist(),
                                   jpta.throughput_bps.tolist()):
        assert ring_paa[0] == pytest.approx(ring_jpta[0], rel=1e-12)
    assert np.all(res.jpta_weights.delays_s == 0.0)


def test_two_ue_near_ring_duty_composition():
    """Close to the array both schemes saturate at the top MCS, so
    full-band at half duty (PAA) equals half-band at full duty (JPTA)."""
    res = _sweep([-26.25, 26.25], [30.0])
    paa, jpta = res.rates[SCHEME_PAA], res.rates[SCHEME_JPTA]
    for u in range(2):
        assert paa.mcs_index[0, u] == 14
        assert jpta.mcs_index[0, u] == 14
        assert paa.num_rbs[0, u] == 264
        assert jpta.num_rbs[0, u] == 132
        assert paa.throughput_bps[0, u] == pytest.approx(
            jpta.throughput_bps[0, u], rel=1e-12)


def test_run_paa_far_ring_outage():
    dep = Deployment(ue_angles_rad=np.radians([0.0]),
                     ring_distances_m=np.array([30.0, 50000.0]))
    cfg = ArrayConfig.half_wavelength(16, 28e9, 28.0)
    grid = FrequencyGrid(28e9, 400e6, 120e3, 24)
    lm = LinkModel(carrier_hz=28e9)
    res = throughput_sweep(dep, cfg, grid, lm, McsTable.default(),
                           DelayConstraint(), 16, SECTOR)
    paa = res.rates[SCHEME_PAA]
    assert paa.outage[:, 0].tolist() == [False, True]
    assert paa.throughput_bps[1, 0] == 0.0
    assert res.mean_throughput_bps(SCHEME_PAA)[1] == 0.0


def test_mean_throughput_is_per_ring_ue_average():
    res = _sweep([-26.25, 26.25], [30.0, 100.0], num_rbs=24)
    means = res.mean_throughput_bps(SCHEME_JPTA)
    assert means.shape == (2,)
    for i, ring in enumerate(res.rates[SCHEME_JPTA].throughput_bps.tolist()):
        expect = np.mean(ring)
        assert means[i] == pytest.approx(expect, rel=1e-12)


def test_mean_throughput_equals_per_ring_mean_bit_for_bit():
    # summary.csv prints these means: one row mean per ring over the
    # (rings x UEs) array must equal each ring's 1-D np.mean exactly
    rng = np.random.default_rng(29)
    for num_ues in (1, 2, 3, 7, 8, 9, 16, 33, 128, 129, 300):
        tput = rng.uniform(0.0, 2e9, (40, num_ues))
        tput[rng.uniform(size=tput.shape) < 0.3] = 0.0
        ints = np.zeros(tput.shape, dtype=np.int64)
        rates = RateGrid(ints, ints, np.ones(tput.shape), tput, ints < 0)
        res = ScenarioResult(distances_m=np.arange(1.0, 41.0),
                             ue_angles_rad=np.zeros(num_ues),
                             rates={SCHEME_PAA: rates})
        want = [np.mean(ring) for ring in tput.tolist()]
        assert res.mean_throughput_bps(SCHEME_PAA).tolist() == want, num_ues


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def test_coverage_never_met():
    r = coverage_distance([100.0, 200.0], [0.1e6, 0.2e6], 1e6)
    assert r == CoverageResult(distance_m=None, censored=False)


def test_coverage_censored_at_last_ring():
    r = coverage_distance([100.0, 200.0], [2e6, 1.5e6], 1e6)
    assert r.distance_m == 200.0
    assert r.censored


def test_coverage_linear_interpolation():
    # frac = (2 - 1) / (2 - 0.5) = 2/3 of the way from 100 m to 200 m
    r = coverage_distance([100.0, 200.0], [2e6, 0.5e6], 1e6)
    assert r.distance_m == pytest.approx(500.0 / 3.0, rel=1e-12)
    assert not r.censored


def test_coverage_uses_farthest_crossing():
    r = coverage_distance([1.0, 2.0, 3.0, 4.0],
                          [2e6, 0.5e6, 1.5e6, 0.2e6], 1e6)
    assert r.distance_m == pytest.approx(3.0 + 0.5 / 1.3, rel=1e-12)


def test_coverage_validation():
    with pytest.raises(ValueError, match="equal-length"):
        coverage_distance([1.0, 2.0], [1e6], 1e6)
    with pytest.raises(ValueError, match="equal-length"):
        coverage_distance([], [], 1e6)
    with pytest.raises(ValueError, match="threshold_bps"):
        coverage_distance([1.0], [1e6], 0.0)
    # an infinite threshold used to report "unmet on all rings"
    for threshold in (math.inf, -math.inf, 1e309, math.nan):
        with pytest.raises(ValueError,
                           match="^threshold_bps must be positive and finite"):
            coverage_distance([1.0, 2.0], [2e6, 1e6], threshold)
    # a NaN ring used to be skipped (2.75 m) or to give a distance of nan
    for dists, vals in (([1.0, 2.0, 3.0], [math.nan, 5.0, 1.0]),
                        ([1.0, 2.0, 3.0], [5.0, math.nan, 1.0]),
                        ([1.0, 2.0, 3.0], [5.0, 3.0, math.inf]),
                        ([1.0, math.inf, 3.0], [5.0, 3.0, 1.0]),
                        ([1.0, 2.0, math.nan], [5.0, 3.0, 1.0])):
        with pytest.raises(ValueError,
                           match="^distances_m and mean_bps must be finite$"):
            coverage_distance(dists, vals, 2.0)
    # the crossing is interpolated toward the next ring out; falling
    # distances used to give 1.0 m censored, or 2.75 m
    for dists, vals in (([3.0, 2.0, 1.0], [5.0, 5.0, 5.0]),
                        ([1.0, 3.0, 2.0], [5.0, 5.0, 1.0]),
                        ([1.0, 1.0, 2.0], [5.0, 3.0, 1.0])):
        with pytest.raises(ValueError,
                           match="^distances_m must be strictly increasing$"):
            coverage_distance(dists, vals, 4.0)


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

def test_write_results_csv_layout(tmp_path):
    res = _sweep([-26.25, 26.25], [30.0, 100.0], num_rbs=24)
    path = tmp_path / "results.csv"
    write_results_csv(res, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == RESULTS_CSV_HEADER
    body = rows[1:]
    assert len(body) == 2 * 2 * 2  # schemes x rings x UEs
    assert [r[0] for r in body] == ["PAA"] * 4 + ["JPTA"] * 4
    # rings ascending within a scheme, UEs by index within a ring
    assert [float(r[1]) for r in body[:4]] == [30.0, 30.0, 100.0, 100.0]
    assert [int(r[2]) for r in body[:4]] == [0, 1, 0, 1]
    assert float(body[0][3]) == pytest.approx(-26.25)
    # numeric columns parse and agree with the rate grid
    paa = res.rates[SCHEME_PAA]
    assert int(body[0][4]) == paa.mcs_index[0, 0]
    assert int(body[0][5]) == paa.num_rbs[0, 0]
    assert float(body[0][7]) == pytest.approx(paa.throughput_bps[0, 0],
                                              rel=1e-4)


def test_write_summary_csv_layout(tmp_path):
    res = _sweep([-26.25, 26.25], [30.0, 100.0], num_rbs=24)
    path = tmp_path / "summary.csv"
    write_summary_csv(res, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == SUMMARY_CSV_HEADER
    assert len(rows) == 1 + 2 * 2
    assert [r[0] for r in rows[1:]] == ["PAA", "PAA", "JPTA", "JPTA"]
    means = res.mean_throughput_bps(SCHEME_JPTA)
    assert float(rows[3][2]) == pytest.approx(means[0], rel=1e-4)
    assert float(rows[4][2]) == pytest.approx(means[1], rel=1e-4)


# ---------------------------------------------------------------------------
# deployment / ring grid
# ---------------------------------------------------------------------------

def test_log_ring_grid():
    g = log_ring_grid(30.0, 3000.0, 5)
    assert g[0] == pytest.approx(30.0)
    assert g[-1] == pytest.approx(3000.0)
    np.testing.assert_allclose(np.diff(np.log(g)), np.log(10.0) / 2.0,
                               atol=1e-12)
    with pytest.raises(ValueError, match="min_m"):
        log_ring_grid(0.0, 100.0, 5)
    with pytest.raises(ValueError, match="count"):
        log_ring_grid(30.0, 100.0, 1)
    # order first, then each end, then the count; each error starts with
    # the names of the arguments it reads
    with pytest.raises(ValueError, match="^ring_min_m, ring_max_m: ring_min_m "
                                         "must be below ring_max_m"):
        log_ring_grid(100.0, 1e-310, 1)
    with pytest.raises(ValueError, match=r"^ring_min_m must lie in \[1, "):
        log_ring_grid(0.5, 1e300, 1)
    with pytest.raises(ValueError, match=r"^ring_max_m must lie in \[1, "):
        log_ring_grid(30.0, 1e300, 1)
    assert log_ring_grid(1.0, 1e7, 2).tolist() == [1.0, 1e7]
    assert log_ring_grid(30.0, 100.0, 100_000).size == 100_000
    with pytest.raises(ValueError, match="^count must lie in"):
        log_ring_grid(30.0, 100.0, 100_001)


@pytest.mark.parametrize("angles,rings", [
    ([], [30.0]),
    ([0.0], []),
    ([2.0], [30.0]),                 # angle beyond +pi/2
    ([0.0], [30.0, 30.0]),           # not strictly increasing
    ([0.0], [-1.0]),                 # nonpositive ring
])
def test_deployment_validation(angles, rings):
    with pytest.raises(ValueError):
        Deployment(ue_angles_rad=np.asarray(angles, dtype=float),
                   ring_distances_m=np.asarray(rings, dtype=float))


def test_run_jpta_returns_weights_on_delay_grid():
    dep = Deployment(ue_angles_rad=np.radians([-30.0, 30.0]),
                     ring_distances_m=np.array([100.0]))
    cfg = ArrayConfig.half_wavelength(16, 28e9, 28.0)
    grid = FrequencyGrid(28e9, 400e6, 120e3, 264)
    lm = LinkModel(carrier_hz=28e9)
    rates, weights = run_jpta(dep, cfg, grid, lm, McsTable.default(),
                              DelayConstraint())
    assert isinstance(rates, RateGrid)
    assert [c.shape for c in rates] == [(1, 2)] * len(RateGrid._fields)
    steps = weights.delays_s / 2.5e-9
    np.testing.assert_allclose(steps, np.round(steps), atol=1e-9)
    assert weights.delays_s.max() == pytest.approx(2.5e-9, rel=1e-12)
