"""Link budget, effective-SNR mapping, MCS ladder, and rate selection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jpta.antenna import SPEED_OF_LIGHT_M_S
from jpta.link import (
    DEFAULT_SPECTRAL_EFFICIENCIES,
    MAX_EESM_BETA,
    MIN_RBS_PER_GRANT,
    LinkModel,
    McsEntry,
    McsTable,
    RateDecision,
    RateGrid,
    eesm_effective_snr_db,
    load_eesm_betas,
    noise_power_dbm_per_rb,
    path_gain_db,
    select_rate,
    select_rate_grid,
)
from oracles import eesm_effective_snr_db_py, eesm_linear_db_py, snr_per_rb_db

SCS = 120e3
FLAT28 = np.full(264, 28.0)
ALL_RBS = np.arange(264)


# ---------------------------------------------------------------------------
# scalar link budget
# ---------------------------------------------------------------------------

def test_path_gain_reference_value(link_default):
    # 20*log10(c / (4*pi*28e9)) - 30*log10(100), computed independently
    assert path_gain_db(link_default, 100.0) == pytest.approx(
        -121.390943848727758, abs=1e-9)


def test_path_gain_doubling_slope(link_default):
    delta = path_gain_db(link_default, 200.0) - path_gain_db(link_default,
                                                             100.0)
    assert delta == pytest.approx(-9.030899869919436, abs=1e-12)


def test_path_gain_exponent_scaling():
    lm2 = LinkModel(carrier_hz=28e9, path_loss_exponent=2.0)
    lm4 = LinkModel(carrier_hz=28e9, path_loss_exponent=4.0)
    assert path_gain_db(lm4, 100.0) - path_gain_db(lm2, 100.0) == \
        pytest.approx(-40.0, abs=1e-12)


def test_path_gain_rejects_nonpositive_distance(link_default):
    with pytest.raises(ValueError, match="distance_m"):
        path_gain_db(link_default, 0.0)
    with pytest.raises(ValueError, match="distance_m"):
        path_gain_db(link_default, -5.0)
    # an infinite distance used to give a path gain of -inf
    for distance in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError,
                           match="^distance_m must be positive and finite$"):
            path_gain_db(link_default, distance)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_path_gain_of_an_array_equals_the_scalar_formula(data):
    # every entry has the bits of the scalar formula with np.log10 of that
    # distance alone, and of its own scalar call, of any shape; one
    # distance of 0, below 0, inf or NaN anywhere rejects the array
    lm = LinkModel(carrier_hz=data.draw(st.floats(1e8, 1e12)),
                   path_loss_exponent=data.draw(st.floats(0.1, 10.0)))
    dists = data.draw(hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=6),
        elements=st.floats(1e-6, 1e12)))
    got = path_gain_db(lm, dists)
    assert np.shape(got) == dists.shape
    intercept = 20.0 * math.log10(
        SPEED_OF_LIGHT_M_S / (4.0 * math.pi * lm.carrier_hz))
    want = [float(intercept - 10.0 * lm.path_loss_exponent * np.log10(d))
            for d in dists.ravel().tolist()]
    assert [g.hex() for g in np.ravel(got).tolist()] == \
        [w.hex() for w in want]
    assert [float(path_gain_db(lm, d)).hex()
            for d in dists.ravel().tolist()] == [w.hex() for w in want]
    if dists.size:
        bad = dists.copy()
        bad.flat[data.draw(st.integers(0, dists.size - 1))] = data.draw(
            st.sampled_from([0.0, -0.0, -5.0, math.inf, -math.inf,
                             math.nan]))
        with pytest.raises(ValueError,
                           match="^distance_m must be positive and finite$"):
            path_gain_db(lm, bad)


def test_noise_power_reference_value(link_default):
    # -174 + 10*log10(12 * 120e3) + 5
    assert noise_power_dbm_per_rb(link_default, SCS) == pytest.approx(
        -107.416375079047498, abs=1e-9)
    with pytest.raises(ValueError, match="scs_hz"):
        noise_power_dbm_per_rb(link_default, 0.0)


def test_snr_chain_reference_value(link_default):
    # 23 dBm split over 264 RBs, 28 dB beam gain, 100 m, exponent 3
    snrs = snr_per_rb_db(link_default, 100.0, FLAT28, ALL_RBS, SCS)
    assert snrs.shape == (264,)
    np.testing.assert_allclose(snrs, 12.809391961621429, atol=1e-9)


def test_snr_preserves_allocation_order(link_default):
    gains = np.arange(264, dtype=np.float64) / 10.0
    alloc = [5, 2, 9]
    snrs = snr_per_rb_db(link_default, 100.0, gains, alloc, SCS)
    base = (link_default.ue_tx_power_dbm - 10.0 * math.log10(3)
            + path_gain_db(link_default, 100.0)
            - noise_power_dbm_per_rb(link_default, SCS))
    np.testing.assert_allclose(snrs, base + gains[alloc], atol=1e-12)


def test_snr_rejects_empty_allocation(link_default):
    with pytest.raises(ValueError, match="non-empty"):
        snr_per_rb_db(link_default, 100.0, FLAT28, [], SCS)


def test_link_model_validation():
    with pytest.raises(ValueError, match="carrier_hz"):
        LinkModel(carrier_hz=0.0)
    with pytest.raises(ValueError, match="path_loss_exponent"):
        LinkModel(carrier_hz=28e9, path_loss_exponent=-1.0)


@pytest.mark.parametrize("field", ["carrier_hz", "path_loss_exponent",
                                   "ue_tx_power_dbm", "ue_beam_gain_db",
                                   "bs_noise_figure_db"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_link_model_rejects_non_finite_fields(field, value):
    kwargs = {"carrier_hz": 28e9, field: value}
    with pytest.raises(ValueError, match="^%s must be finite" % field):
        LinkModel(**kwargs)


# ---------------------------------------------------------------------------
# EESM
# ---------------------------------------------------------------------------

def test_eesm_reference_value():
    # {0 dB, 10 dB} at beta 1: 1 - ln((1 + exp(-9)) / 2) linear
    assert eesm_effective_snr_db([0.0, 10.0], 1.0) == pytest.approx(
        2.286630577796122, abs=1e-9)


def test_eesm_equals_oracle_bit_for_bit():
    # eesm_effective_snr_db runs the batched one-row path; its result must
    # not differ in any bit from the 1-D definition, from 1 to 264 RBs
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 4, 7, 33, 100, 264):
        for beta in (0.5, 1.0, 2.75):
            snrs = rng.uniform(-20.0, 40.0, n)
            assert eesm_effective_snr_db(snrs, beta) \
                == eesm_effective_snr_db_py(snrs, beta), (n, beta)
    # a scalar or a 2-D input is one flat RB set, as before
    assert eesm_effective_snr_db(7.5, 1.0) == eesm_effective_snr_db_py(7.5, 1.0)
    grid = rng.uniform(-5.0, 25.0, (3, 8))
    assert eesm_effective_snr_db(grid, 1.5) \
        == eesm_effective_snr_db_py(grid.ravel(), 1.5)


def test_eesm_fixed_point():
    for v in (-7.0, 0.0, 13.25):
        assert eesm_effective_snr_db([v, v, v], 2.0) == pytest.approx(
            v, abs=1e-12)


def test_eesm_bounded_by_min_and_max():
    rng = np.random.default_rng(7)
    for _ in range(200):
        snrs = rng.uniform(-20.0, 40.0, size=rng.integers(1, 30))
        beta = rng.uniform(0.2, 5.0)
        eff = eesm_effective_snr_db(snrs, beta)
        assert snrs.min() - 1e-9 <= eff <= snrs.max() + 1e-9


def test_eesm_large_snr_stable():
    # naive exp(-10^31) underflows; the shifted form must stay finite
    eff = eesm_effective_snr_db([300.0, 310.0], 1.0)
    assert np.isfinite(eff)
    assert eff == pytest.approx(300.0, abs=1e-6)


def test_eesm_validation():
    with pytest.raises(ValueError, match="beta"):
        eesm_effective_snr_db([1.0], 0.0)
    with pytest.raises(ValueError, match="non-empty"):
        eesm_effective_snr_db([], 1.0)
    # a NaN SNR used to give an effective SNR of nan
    for snrs in ([math.nan, 1.0], [1.0, math.inf], [-math.inf, 1.0]):
        with pytest.raises(ValueError, match="^snr_db_values must be finite$"):
            eesm_effective_snr_db(snrs, 1.0)


# ---------------------------------------------------------------------------
# MCS table
# ---------------------------------------------------------------------------

def test_default_table_shape(mcs_default):
    assert len(mcs_default) == 15
    se = mcs_default.spectral_efficiencies()
    assert se[0] == 0.1523
    assert se[-1] == 7.4063
    assert np.all(np.diff(se) > 0)
    assert np.all(np.diff(mcs_default.thresholds_db()) > 0)
    assert len(DEFAULT_SPECTRAL_EFFICIENCIES) == 15


def test_default_table_threshold_oracles(mcs_default):
    thr = mcs_default.thresholds_db()
    # 10*log10(2^SE - 1) + 2 at both ends of the ladder
    assert thr[0] == pytest.approx(-7.533495582999263, abs=1e-9)
    assert thr[-1] == pytest.approx(24.269507284773852, abs=1e-9)
    thr0 = McsTable.default(margin_db=0.0).thresholds_db()
    np.testing.assert_allclose(thr, thr0 + 2.0, atol=1e-12)


def test_mcs_table_validation():
    with pytest.raises(ValueError, match="non-empty"):
        McsTable(entries=())
    with pytest.raises(ValueError, match="indices"):
        McsTable(entries=(McsEntry(1, 1.0, 0.0),))
    with pytest.raises(ValueError, match="positive"):
        McsTable(entries=(McsEntry(0, -1.0, 0.0),))
    with pytest.raises(ValueError, match="strictly increasing"):
        McsTable(entries=(McsEntry(0, 2.0, 0.0), McsEntry(1, 1.0, 1.0)))
    with pytest.raises(ValueError, match="strictly increasing"):
        McsTable(entries=(McsEntry(0, 1.0, 1.0), McsEntry(1, 2.0, 1.0)))
    # NaN passes the strictly-increasing checks, so it is refused first
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="snr_threshold_db must be finite"):
            McsTable(entries=(McsEntry(0, 1.0, 0.0), McsEntry(1, 2.0, bad)))
        with pytest.raises(ValueError,
                           match="spectral_efficiency must be finite"):
            McsTable(entries=(McsEntry(0, bad, 0.0),))
    # thresholds in the dB range of the link budget's other fields
    McsTable(entries=(McsEntry(0, 1.0, -100.0), McsEntry(1, 2.0, 100.0)))
    for low, high in ((-100.1, 0.0), (0.0, 100.1), (1e15, 1e15 + 1.0)):
        with pytest.raises(ValueError, match="^snr_threshold_db must lie in"):
            McsTable(entries=(McsEntry(0, 1.0, low), McsEntry(1, 2.0, high)))
    for margin in (-1e15, 1e15):
        with pytest.raises(ValueError, match="^snr_threshold_db must lie in"):
            McsTable.default(margin_db=margin)


def test_mcs_csv_round_trip(tmp_path, mcs_default):
    path = tmp_path / "mcs.csv"
    lines = ["index,spectral_efficiency,snr_threshold_db"]
    for e in mcs_default.entries:
        lines.append("%d,%.17g,%.17g" % (e.index, e.spectral_efficiency,
                                         e.snr_threshold_db))
    path.write_text("\n".join(lines) + "\n")
    back = McsTable.from_csv(path)
    assert len(back) == 15
    np.testing.assert_allclose(back.thresholds_db(),
                               mcs_default.thresholds_db(), atol=1e-12)
    np.testing.assert_allclose(back.spectral_efficiencies(),
                               mcs_default.spectral_efficiencies(),
                               atol=1e-12)


def test_mcs_csv_errors(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        McsTable.from_csv(empty)

    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b,c\n0,1,0\n")
    with pytest.raises(ValueError, match="header"):
        McsTable.from_csv(bad_header)

    bad_row = tmp_path / "r.csv"
    bad_row.write_text("index,spectral_efficiency,snr_threshold_db\n0,1\n")
    with pytest.raises(ValueError, match="3 fields"):
        McsTable.from_csv(bad_row)

    header_only = tmp_path / "o.csv"
    header_only.write_text("index,spectral_efficiency,snr_threshold_db\n")
    with pytest.raises(ValueError, match="non-empty"):
        McsTable.from_csv(header_only)

    for bad in ("nan", "inf", "-inf"):
        non_finite = tmp_path / "f.csv"
        non_finite.write_text("index,spectral_efficiency,snr_threshold_db\n"
                              "0,0.5,-3\n\n1,1.0,%s\n" % bad)
        with pytest.raises(ValueError, match="f.csv line 4: .*finite"):
            McsTable.from_csv(non_finite)


def test_load_eesm_betas(tmp_path):
    path = tmp_path / "betas.csv"
    rows = ["index,beta"] + ["%d,%g" % (i, 0.5 + 0.1 * i)
                             for i in reversed(range(15))]
    path.write_text("\n".join(rows) + "\n")
    betas = load_eesm_betas(path, 15)
    np.testing.assert_allclose(betas, 0.5 + 0.1 * np.arange(15), atol=1e-12)


@pytest.mark.parametrize("body,match", [
    ("index,beta\n0,1.0\n", "cover every"),
    ("index,beta\n" + "".join("%d,1\n" % i for i in range(15)) + "0,2\n",
     "duplicate"),
    ("index,beta\n" + "".join("%d,1\n" % i for i in range(14)) + "14,-1\n",
     "positive"),
    ("wrong,beta\n0,1\n", "header"),
    ("index,beta\n99,1\n", "out of range"),
    ("index,beta\n0,1,9\n", "2 fields"),
    ("", "empty"),
    ("index,beta\n0,inf\n", "b.csv line 2: .*finite"),
    ("index,beta\n" + "".join("%d,inf\n" % i for i in range(15)),
     "b.csv line 2: .*finite"),
    ("index,beta\n0,1\n\n1,nan\n", "b.csv line 4: .*finite"),
    ("index,beta\n0.5,1\n", "b.csv line 2: .*integer index"),
    ("index,beta\n" + "".join("%d,1\n" % i for i in range(14)) + "14,1e300\n",
     "b.csv line 16: .*at most 10000"),
])
def test_load_eesm_betas_errors(tmp_path, body, match):
    path = tmp_path / "b.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=match):
        load_eesm_betas(path, 15)


# ---------------------------------------------------------------------------
# rate selection
# ---------------------------------------------------------------------------

def test_select_rate_near_picks_top_mcs_full_band(link_default, mcs_default):
    d = select_rate(link_default, 30.0, FLAT28, ALL_RBS, mcs_default, SCS,
                    1.0)
    assert (d.mcs_index, d.num_rbs, d.outage) == (14, 264, False)
    assert d.throughput_bps == pytest.approx(7.4063 * 264 * 12 * SCS,
                                             rel=1e-12)
    quarter = select_rate(link_default, 30.0, FLAT28, ALL_RBS, mcs_default,
                          SCS, 0.25)
    assert quarter.throughput_bps == pytest.approx(703894752.0, rel=1e-12)


def test_select_rate_far_is_outage(link_default, mcs_default):
    d = select_rate(link_default, 10000.0, FLAT28, ALL_RBS, mcs_default, SCS,
                    1.0)
    assert (d.mcs_index, d.num_rbs, d.throughput_bps, d.outage) == \
        (-1, 0, 0.0, True)
    # diagnostic SNR is the 4-RB EESM of the best RBs
    diag = snr_per_rb_db(link_default, 10000.0, FLAT28, [0, 1, 2, 3], SCS)
    assert d.effective_snr_db == pytest.approx(
        eesm_effective_snr_db(diag, 1.0), abs=1e-9)


def test_select_rate_fewer_than_min_rbs_is_outage(link_default, mcs_default):
    d = select_rate(link_default, 30.0, FLAT28, [0, 1, 2], mcs_default, SCS,
                    1.0)
    assert d.outage and d.num_rbs == 0 and d.mcs_index == -1
    diag = snr_per_rb_db(link_default, 30.0, FLAT28, [0, 1, 2], SCS)
    assert d.effective_snr_db == pytest.approx(
        eesm_effective_snr_db(diag, 1.0), abs=1e-9)


def test_outage_diagnostic_snr_equals_per_ring_eesm(link_default,
                                                    mcs_default):
    # select_rate_grid computes the outage diagnostic for all outage rings in
    # one pass, by the rate scan's EESM stage; each must equal the one-row
    # EESM oracle of the same linear split SNRs of the best min(4, width) RBs
    # bit for bit, since results.csv prints it. The one- and three-RB shares
    # are outages at every ring. The public eesm_effective_snr_db of the
    # split's dB values keeps its own oracle's bits
    rng = np.random.default_rng(17)
    gains = rng.uniform(-40.0, 28.0, 264)
    dists = np.geomspace(30.0, 1e5, 240)
    betas = rng.uniform(0.5, 3.0, len(mcs_default))
    noise = noise_power_dbm_per_rb(link_default, SCS)
    checked = 0
    for avail in (ALL_RBS, np.sort(rng.choice(264, 40, replace=False)),
                  np.array([5, 9, 200]), np.array([131])):
        rates = select_rate_grid(link_default, dists, [gains], [avail],
                                 mcs_default, SCS, 1.0, betas)
        n = min(MIN_RBS_PER_GRANT, avail.size)
        for d, outage, eff_db in zip(dists, rates.outage[:, 0].tolist(),
                                     rates.effective_snr_db[:, 0].tolist()):
            if not outage:
                continue
            link_db = link_default.ue_tx_power_dbm \
                + link_default.ue_beam_gain_db \
                + path_gain_db(link_default, float(d))
            unsplit = np.sort(10.0 ** ((link_db + gains[avail] - noise)
                                       / 10.0))[::-1]
            split = unsplit[:n] / n
            assert eff_db == eesm_linear_db_py(split, float(betas[0])), \
                (avail.size, d)
            split_db = 10.0 * np.log10(split)
            for beta in (float(betas[0]), 2.5):
                assert eesm_effective_snr_db(split_db, beta) \
                    == eesm_effective_snr_db_py(split_db, beta)
            checked += 1
    assert checked > 2 * dists.size + 50


def test_select_rate_four_rb_floor(link_default):
    # single-level ladder whose threshold only a 4-RB split can meet
    s_db = snr_per_rb_db(link_default, 100.0, FLAT28, [0], SCS)[0]
    s_lin = 10.0 ** (s_db / 10.0)
    thr_db = 10.0 * math.log10(s_lin / 4.0) - 1e-9
    table = McsTable(entries=(McsEntry(0, 1.0, thr_db),))
    d = select_rate(link_default, 100.0, FLAT28, np.arange(16), table, SCS,
                    1.0)
    assert (d.mcs_index, d.num_rbs) == (0, MIN_RBS_PER_GRANT)
    assert d.throughput_bps == pytest.approx(1.0 * 4 * 12 * SCS, rel=1e-12)


def test_select_rate_tie_prefers_higher_mcs(link_default):
    # SE {1, 2}: 4 RBs at MCS 1 and 8 RBs at MCS 0 both yield rate 8;
    # the tie must resolve to the higher MCS (fewer RBs)
    s_db = snr_per_rb_db(link_default, 100.0, FLAT28, [0], SCS)[0]
    s_lin = 10.0 ** (s_db / 10.0)
    table = McsTable(entries=(
        McsEntry(0, 1.0, 10.0 * math.log10(s_lin / 8.0) - 1e-9),
        McsEntry(1, 2.0, 10.0 * math.log10(s_lin / 4.0) - 1e-9),
    ))
    d = select_rate(link_default, 100.0, FLAT28, np.arange(16), table, SCS,
                    1.0)
    assert (d.mcs_index, d.num_rbs) == (1, 4)


def test_select_rate_throughput_monotone_in_distance(link_default,
                                                     mcs_default):
    prev = None
    for dist in np.geomspace(30.0, 5000.0, 25):
        d = select_rate(link_default, float(dist), FLAT28, ALL_RBS,
                        mcs_default, SCS, 1.0)
        if prev is not None:
            assert d.throughput_bps <= prev + 1e-6
        prev = d.throughput_bps


# every EESM beta the other tests use, and the cap itself
USED_BETAS = (0.1, 0.2, 0.5, 0.7, 1.0, 1.7, 1.9, 2.0, 2.5, 2.75, 3.0, 4.0,
              5.0, 10.0, MAX_EESM_BETA)


@pytest.mark.parametrize("beta", USED_BETAS)
def test_eesm_betas_in_range_are_accepted(tmp_path, link_default,
                                          mcs_default, beta):
    path = tmp_path / "b.csv"
    path.write_text("index,beta\n" + "".join("%d,%r\n" % (i, beta)
                                             for i in range(15)))
    betas = load_eesm_betas(path, 15)
    assert np.array_equal(betas, np.full(15, beta))
    decision = select_rate(link_default, 100.0, FLAT28, ALL_RBS, mcs_default,
                           SCS, 1.0, eesm_betas=betas)
    assert decision.throughput_bps > 0.0


def test_eesm_at_the_beta_cap_stays_above_the_weakest_rb():
    # the failure the cap keeps out: at beta = 1e300 every shifted term
    # rounds to 1 and the effective SNR is the weakest RB's; at the cap it
    # still lies between the weakest and the mean SNR
    snrs = np.array([0.0, 10.0, 20.0])
    lin = 10.0 ** (snrs / 10.0)
    assert eesm_effective_snr_db(snrs, 1e300) == snrs.min()
    eff = 10.0 ** (eesm_effective_snr_db(snrs, MAX_EESM_BETA) / 10.0)
    assert lin.min() < eff <= lin.mean() * (1.0 + 1e-12)
    assert eff == pytest.approx(lin.mean(), rel=1e-2)


def test_select_rate_validation(link_default, mcs_default):
    with pytest.raises(ValueError, match="slot_duty"):
        select_rate(link_default, 100.0, FLAT28, ALL_RBS, mcs_default, SCS,
                    0.0)
    with pytest.raises(ValueError, match="slot_duty"):
        select_rate(link_default, 100.0, FLAT28, ALL_RBS, mcs_default, SCS,
                    1.5)
    with pytest.raises(ValueError, match="non-empty"):
        select_rate(link_default, 100.0, FLAT28, [], mcs_default, SCS, 1.0)
    with pytest.raises(ValueError, match="eesm_betas"):
        select_rate(link_default, 100.0, FLAT28, ALL_RBS, mcs_default, SCS,
                    1.0, eesm_betas=np.ones(3))
    with pytest.raises(ValueError, match="eesm_betas"):
        select_rate(link_default, 100.0, FLAT28, ALL_RBS, mcs_default, SCS,
                    1.0, eesm_betas=np.zeros(15))
    for bad in (np.inf, np.nan, 1e300, np.nextafter(MAX_EESM_BETA, np.inf)):
        with pytest.raises(ValueError, match="eesm_betas"):
            select_rate(link_default, 100.0, FLAT28, ALL_RBS, mcs_default,
                        SCS, 1.0, eesm_betas=np.full(15, bad))
    with pytest.raises(ValueError, match="distances_m"):
        select_rate_grid(link_default, 100.0, [FLAT28], [ALL_RBS],
                         mcs_default, SCS, 1.0)
    empty = select_rate_grid(link_default, [], [FLAT28], [ALL_RBS],
                             mcs_default, SCS, 1.0)
    assert [c.shape for c in empty] == [(0, 1)] * len(RateGrid._fields)
    with pytest.raises(ValueError, match="one entry per UE"):
        select_rate_grid(link_default, [100.0], [FLAT28, FLAT28], [ALL_RBS],
                         mcs_default, SCS, 1.0)
    with pytest.raises(ValueError, match="non-empty"):
        select_rate_grid(link_default, [100.0], [FLAT28, FLAT28],
                         [ALL_RBS, []], mcs_default, SCS, 1.0)
    # [0, 0, 1, 2, 3] counted RB 0 twice (a 5-RB grant), [-1, 0, 1, 2]
    # wrapped round to the last RB and [30] raised IndexError
    for rbs in ([0, 0, 1, 2, 3], [-1, 0, 1, 2], [30], [0, 1, 2, 24],
                [[0, 1], [2, 3]]):
        with pytest.raises(ValueError, match="^available_rbs must"):
            select_rate_grid(link_default, [100.0], [np.full(24, 28.0)],
                             [rbs], mcs_default, SCS, 1.0)
    # the same faults in one UE of a ragged JPTA layout, 7 UEs on 264 RBs
    # (six shares of 37, one of 42), in either share width, and in one of
    # two UEs whose gain rows differ in length
    ragged = [np.arange(37 * u, 37 * u + 37) for u in range(6)]
    ragged.append(np.arange(222, 264))
    rows = [FLAT28] * 7
    mixed = [np.full(24, 28.0), np.full(30, 28.0)]
    for u, size in ((2, 264), (6, 264), (0, 24), (1, 30)):
        layout = [ids.copy() for ids in
                  (ragged if size == 264 else [np.arange(10)] * 2)]
        gains = rows if size == 264 else mixed
        for ids, match in (([], "non-empty 1-D"),
                           (np.array([[0, 1], [2, 3]]), "non-empty 1-D"),
                           (np.r_[layout[u][1:], layout[u][1]],
                            "^available_rbs must hold distinct"),
                           (np.r_[layout[u][:-1], -1],
                            "^available_rbs must hold distinct"),
                           (np.r_[layout[u][:-1], size],
                            "^available_rbs must hold distinct")):
            bad = layout[:u] + [ids] + layout[u + 1:]
            with pytest.raises(ValueError, match=match):
                select_rate_grid(link_default, [100.0], gains, bad,
                                 mcs_default, SCS, 1.0)
        bad_gains = [g.copy() for g in gains]
        bad_gains[u][layout[u][-1]] = math.nan
        with pytest.raises(ValueError,
                           match="^gain_rows must be finite on the available"):
            select_rate_grid(link_default, [100.0], bad_gains, layout,
                             mcs_default, SCS, 1.0)


def test_select_rate_grid_share_groups_equal_one_ue_calls(link_default,
                                                          mcs_default):
    # UEs are checked and sorted once per share width: ragged widths, RB
    # ids in any order and gain rows of different lengths within one width
    # give every UE the columns of its own one-UE call, by bytes
    rng = np.random.default_rng(31)
    sizes = (264, 264, 40, 300, 264, 52, 264)
    rows = [rng.uniform(-20.0, 28.0, size) for size in sizes]
    rbs = [np.arange(37), rng.permutation(264)[:37], np.arange(3, 40),
           rng.permutation(300)[:42], np.arange(222, 264),
           rng.permutation(52)[:37], np.arange(100, 137)]
    dists = np.geomspace(20.0, 3000.0, 12)
    grid = select_rate_grid(link_default, dists, rows, rbs, mcs_default, SCS,
                            0.5)
    assert grid.outage.any() and not grid.outage.all()
    for u, (row, ids) in enumerate(zip(rows, rbs)):
        own = select_rate_grid(link_default, dists, [row], [ids],
                               mcs_default, SCS, 0.5)
        for column, own_column in zip(grid, own):
            assert column[:, u].tobytes() == own_column[:, 0].tobytes(), u


@pytest.mark.parametrize("bad_gain", [math.nan, math.inf, -math.inf])
def test_select_rate_grid_rejects_non_finite_gains(link_default, mcs_default,
                                                   bad_gain):
    # a NaN gain sorted last and was dropped (a 23-RB grant of 24 RBs), +inf
    # gave a 24-RB grant at a finite 23.22 dB effective SNR, and -inf passed
    # with a divide-by-zero warning
    row = np.full(24, 28.0)
    row[5] = bad_gain
    with pytest.raises(ValueError,
                       match="^gain_rows must be finite on the available"):
        select_rate_grid(link_default, [100.0], [row], [np.arange(24)],
                         mcs_default, SCS, 1.0)
    # a gain outside the UE's RBs is never read
    got = select_rate_grid(link_default, [100.0], [row], [np.arange(6, 24)],
                           mcs_default, SCS, 1.0)
    want = select_rate_grid(link_default, [100.0], [np.full(24, 28.0)],
                            [np.arange(6, 24)], mcs_default, SCS, 1.0)
    assert [c.tobytes() for c in got] == [c.tobytes() for c in want]


def _brute_force(lm, dist, gains, avail, table, scs, duty, betas):
    avail = np.asarray(avail)
    order = avail[np.argsort(-gains[avail], kind="stable")]
    thr = table.thresholds_db()
    se = table.spectral_efficiencies()
    best = None  # (rate, mcs, -n, eff)
    for n in range(MIN_RBS_PER_GRANT, len(order) + 1):
        alloc = order[:n]
        snrs = snr_per_rb_db(lm, dist, gains, alloc, scs)
        for i in range(len(table)):
            eff = eesm_effective_snr_db(snrs, betas[i])
            if eff >= thr[i]:
                key = (se[i] * n, i, -n)
                if best is None or key > best[0]:
                    best = (key, eff)
    if best is None:
        return None
    (rate, mcs, neg_n), eff = best
    return mcs, -neg_n, rate * 12.0 * scs * duty, eff


def test_select_rate_matches_brute_force(link_default, mcs_default):
    rng = np.random.default_rng(42)
    outages = 0
    for trial in range(40):
        gains = rng.uniform(-10.0, 28.0, 264)
        dist = float(np.exp(rng.uniform(np.log(50.0), np.log(5000.0))))
        avail = rng.choice(264, size=int(rng.integers(4, 40)), replace=False)
        duty = float(rng.choice([1.0, 0.5, 0.125]))
        if trial % 2 == 0:
            betas = rng.uniform(0.5, 3.0, 15)
            kw = {"eesm_betas": betas}
        else:
            betas = np.ones(15)
            kw = {}
        d = select_rate(link_default, dist, gains, avail, mcs_default, SCS,
                        duty, **kw)
        bf = _brute_force(link_default, dist, gains, avail, mcs_default, SCS,
                          duty, betas)
        if bf is None:
            assert d.outage, "trial %d: expected outage" % trial
            outages += 1
        else:
            mcs, n, tput, eff = bf
            assert (d.mcs_index, d.num_rbs) == (mcs, n), "trial %d" % trial
            assert d.throughput_bps == pytest.approx(tput, rel=1e-9)
            assert d.effective_snr_db == pytest.approx(eff, abs=1e-6)
    # the distance range must exercise both branches
    assert 0 < outages < 40


def test_rate_decision_is_frozen():
    d = RateDecision(0, 4, 1.0, 1e6)
    with pytest.raises(AttributeError):
        d.mcs_index = 3


# ---------------------------------------------------------------------------
# batched rate selection: properties
# ---------------------------------------------------------------------------

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def _rate_problems(draw):
    """One UE: a gain row (peak level minus up to ``spread`` dB per RB), its
    available RBs, ascending distances from 3 m on (at least 2.3% apart),
    EESM betas and a slot duty."""
    num_rbs = draw(st.integers(1, 40))
    peak = draw(st.floats(-10.0, 28.0))
    spread = draw(st.floats(0.0, 30.0))
    gains = peak - spread * np.array(draw(st.lists(
        st.floats(0.0, 1.0), min_size=num_rbs, max_size=num_rbs)))
    avail = draw(st.lists(st.integers(0, num_rbs - 1), min_size=1,
                          max_size=num_rbs, unique=True))
    log_steps = draw(st.lists(st.floats(0.01, 0.5), min_size=1, max_size=8))
    start = draw(st.floats(0.5, 3.5))
    distances = 10.0 ** (start + np.cumsum(log_steps) - log_steps[0])
    betas = draw(st.none() | st.lists(st.floats(0.5, 3.0), min_size=15,
                                      max_size=15))
    duty = draw(st.sampled_from([1.0, 0.5, 0.125]))
    return distances, gains, avail, betas, duty


def _rates(lm, mcs, problem):
    """The one UE's cells of its ``select_rate_grid`` call, one
    ``(mcs_index, num_rbs, effective_snr_db, throughput_bps, outage)`` tuple
    of Python scalars per distance."""
    distances, gains, avail, betas, duty = problem
    rates = select_rate_grid(lm, distances, [gains], [avail], mcs, SCS, duty,
                             betas)
    return list(zip(*(column[:, 0].tolist() for column in rates)))


@PROPERTY_SETTINGS
@given(problem=_rate_problems())
def test_select_rates_equals_select_rate_per_distance(problem):
    lm, mcs = LinkModel(carrier_hz=28e9), McsTable.default()
    distances, gains, avail, betas, duty = problem
    assert _rates(lm, mcs, problem) == [
        select_rate(lm, float(d), gains, avail, mcs, SCS, duty, betas)
        for d in distances]


@PROPERTY_SETTINGS
@given(problem=_rate_problems())
def test_select_rates_throughput_never_rises_with_distance(problem):
    lm, mcs = LinkModel(carrier_hz=28e9), McsTable.default()
    tput = [cell[3] for cell in _rates(lm, mcs, problem)]
    assert all(far <= near for near, far in zip(tput, tput[1:]))


@PROPERTY_SETTINGS
@given(problem=_rate_problems())
def test_select_rates_grant_sizes(problem):
    lm, mcs = LinkModel(carrier_hz=28e9), McsTable.default()
    available = len(problem[2])
    for mcs_index, num_rbs, _, tput, outage in _rates(lm, mcs, problem):
        if outage:
            assert (mcs_index, num_rbs, tput) == (-1, 0, 0.0)
        else:
            assert MIN_RBS_PER_GRANT <= num_rbs <= available
            assert 0 <= mcs_index < len(mcs)


@st.composite
def _multi_ue_problems(draw):
    """1-8 UEs on one band of 8-80 RBs, each with its own gain row and share,
    shares of one to three widths (some below the 4-RB minimum grant, so
    every ring is an outage for them), distances 3 m to 30 km in any order, so far rings
    are outages, and one EESM beta or 15 distinct ones."""
    num_rbs = draw(st.integers(8, 80))
    num_ues = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gains = draw(st.floats(-10.0, 28.0)) \
        - draw(st.floats(0.0, 30.0)) * rng.uniform(0.0, 1.0, (num_ues, num_rbs))
    # one to three share widths, so UEs of a width are searched together
    widths = draw(st.lists(st.integers(1, num_rbs), min_size=1, max_size=3))
    shares = [rng.choice(num_rbs, size=draw(st.sampled_from(widths)),
                         replace=False) for _ in range(num_ues)]
    distances = 10.0 ** rng.uniform(0.5, 4.5, draw(st.integers(1, 12)))
    betas = None if draw(st.booleans()) else rng.uniform(0.5, 3.0, 15)
    duty = draw(st.sampled_from([1.0, 0.5, 0.125]))
    return distances, gains, shares, betas, duty


@PROPERTY_SETTINGS
@given(problem=_multi_ue_problems())
def test_select_rate_grid_equals_per_ue_select_rates(problem):
    # UEs of equal share width share one kernel call; each decision must
    # still be the one its UE gets alone, in every field and every bit
    lm, mcs = LinkModel(carrier_hz=28e9), McsTable.default()
    distances, gains, shares, betas, duty = problem
    grid = select_rate_grid(lm, distances, gains, shares, mcs, SCS, duty,
                            betas)
    alone = [select_rate_grid(lm, distances, [gains[u]], [shares[u]], mcs,
                              SCS, duty, betas) for u in range(len(shares))]
    for field, column in zip(RateGrid._fields, grid):
        assert column.shape == (len(distances), len(shares)), field
        assert column.flags.c_contiguous, field
        assert column.tolist() == np.hstack(
            [getattr(one, field) for one in alone]).tolist(), field


@PROPERTY_SETTINGS
@given(snrs=st.lists(st.floats(-100.0, 60.0), min_size=1, max_size=64),
       beta=st.floats(0.1, 10.0))
def test_eesm_between_min_and_linear_mean(snrs, beta):
    # the two bounds the rate scan prunes with: min <= EESM (every shifted
    # term is at most 1) and EESM <= arithmetic mean of the linear SNRs
    # (Jensen), up to rounding, which near the flat case is absolute in beta
    lin = 10.0 ** (np.array(snrs) / 10.0)
    eff = 10.0 ** (eesm_effective_snr_db(snrs, beta) / 10.0)
    assert lin.min() * (1.0 - 1e-12) <= eff
    assert eff <= lin.mean() * (1.0 + 1e-12) + 1e-12 * beta
