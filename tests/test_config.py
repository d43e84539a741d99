"""Run-configuration parsing, validation, and object builders."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpta.antenna import (
    SPEED_OF_LIGHT_M_S,
    ArrayConfig,
    FrequencyGrid,
    PhaseTimeWeights,
    axis_from_boresight_deg,
)
from jpta.codebook import DelayConstraint, RainbowSpec, paa_codebook
from jpta.config import (
    _KEY_SPECS,
    ConfigError,
    RunConfig,
    load_config,
    parse_config_text,
)
from jpta.link import MAX_EESM_BETA, LinkModel, McsTable, select_rate_grid
from jpta.sysim import Deployment, throughput_sweep

FULL_TEXT = """
# array geometry
array.num_elements = 8
array.spacing_m = 0.006
array.carrier_hz = 30e9
array.peak_gain_db = 25.5

grid.center_hz = 30e9          # trailing comment
grid.bandwidth_hz = 200e6
grid.scs_hz = 60e3
grid.num_rbs = 100

link.path_loss_exponent = 2.5
link.ue_tx_power_dbm = 20
link.ue_beam_gain_db = 3
link.bs_noise_figure_db = 7
link.mcs_margin_db = 1.5
link.eesm_beta = 2.0

paa.num_beams = 8
paa.sector_deg = -45, 45
delay.step_ns = 1.0
delay.max_ns = 100.0

deploy.ue_angles_deg = -20, 0, 20
deploy.ring_min_m = 50
deploy.ring_max_m = 500
deploy.ring_count = 10

design.type1.angles_deg = -15, 15
design.type1.per_subcarrier = true
design.type2.center_deg = 5
design.type2.spread_deg = 90
"""


def test_full_config_round_trip():
    cfg = parse_config_text(FULL_TEXT)
    assert cfg.array_num_elements == 8
    assert cfg.array_spacing_m == 0.006
    assert cfg.array_carrier_hz == 30e9
    assert cfg.array_peak_gain_db == 25.5
    assert cfg.grid_num_rbs == 100
    assert cfg.link_path_loss_exponent == 2.5
    assert cfg.link_eesm_beta == 2.0
    assert cfg.paa_sector_deg == (-45.0, 45.0)
    assert cfg.deploy_ue_angles_deg == (-20.0, 0.0, 20.0)
    assert cfg.design_type1_per_subcarrier is True
    assert cfg.design_type2_spread_deg == 90.0


def test_defaults_match_documented_values():
    cfg = RunConfig()
    assert cfg.array_num_elements == 16
    assert cfg.array_spacing_m is None
    assert cfg.array_carrier_hz == 28e9
    assert cfg.grid_bandwidth_hz == 400e6
    assert cfg.grid_scs_hz == 120e3
    assert cfg.grid_num_rbs == 264
    assert cfg.link_path_loss_exponent == 3.0
    assert cfg.link_ue_tx_power_dbm == 23.0
    assert cfg.link_bs_noise_figure_db == 5.0
    assert cfg.link_eesm_beta == 1.0
    assert cfg.paa_num_beams == 16
    assert cfg.paa_sector_deg == (-60.0, 60.0)
    assert cfg.delay_step_ns == 2.5
    assert cfg.delay_max_ns == 157.5
    assert cfg.deploy_ue_angles_deg == (-30.0, -10.0, 10.0, 30.0)
    assert (cfg.deploy_ring_min_m, cfg.deploy_ring_max_m,
            cfg.deploy_ring_count) == (30.0, 1500.0, 40)


def test_empty_text_gives_defaults():
    cfg = parse_config_text("# only comments\n\n")
    assert cfg == RunConfig()


def test_readme_key_table_lists_exactly_the_parsed_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration keys", 1)[1].split("\n## ")[0]
    rows = re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)
    assert sorted(rows) == sorted(_KEY_SPECS)


@pytest.mark.parametrize("text,match", [
    ("bogus.key = 1", "unknown key"),
    ("array.num_elements = 4\narray.num_elements = 8", "line 2: duplicate"),
    ("array.num_elements four", "expected 'key = value'"),
    ("array.num_elements = four", "expected an integer"),
    ("array.num_elements = -4", "num_elements must lie in"),
    ("grid.scs_hz = abc", "expected a number"),
    ("paa.sector_deg = 10", "exactly two numbers"),
    ("deploy.ue_angles_deg = 1, x", "expected a number"),
    ("deploy.ue_angles_deg = ,", "comma-separated number list"),
    ("design.type1.per_subcarrier = maybe", "true/false"),
    ("array.spacing_m = -1", "spacing_m must be positive"),
    ("link.eesm_beta = 0", "must be positive"),
    ("link.eesm_beta = 1e300", "link.eesm_beta: must be at most 10000"),
    ("link.eesm_beta = 10000.000000000002", "link.eesm_beta: must be at most"),
])
def test_parse_errors(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config_text(text)


@pytest.mark.parametrize("text,value", [
    ("true", True), ("1", True), ("yes", True), ("On", True),
    ("false", False), ("0", False), ("no", False), ("off", False),
    (" FALSE ", False),
])
def test_bool_spellings(text, value):
    cfg = parse_config_text("design.type1.per_subcarrier = %s" % text)
    assert cfg.design_type1_per_subcarrier is value


@pytest.mark.parametrize("text,key", [
    ("link.ue_tx_power_dbm = nan", "link.ue_tx_power_dbm"),
    ("delay.max_ns = nan", "delay.max_ns"),
    ("array.peak_gain_db = inf", "array.peak_gain_db"),
    ("grid.scs_hz = -inf", "grid.scs_hz"),
    ("deploy.ue_angles_deg = 10, NaN", "deploy.ue_angles_deg"),
    ("link.bs_noise_figure_db = 1e999", "link.bs_noise_figure_db"),
])
def test_non_finite_values_name_their_key(text, key):
    with pytest.raises(ConfigError, match="^%s: expected a finite number"
                       % key.replace(".", r"\.")):
        parse_config_text(text)


_VALID_FIELDS = {
    ArrayConfig: dict(num_elements=16, spacing_m=5e-3, carrier_hz=28e9,
                      peak_gain_db=28.0),
    FrequencyGrid: dict(center_hz=28e9, bandwidth_hz=400e6, scs_hz=120e3,
                        num_rbs=264),
    DelayConstraint: dict(step_s=2.5e-9, max_delay_s=157.5e-9),
    Deployment: dict(ue_angles_rad=[-0.5, 0.5],
                     ring_distances_m=[30.0, 100.0]),
    LinkModel: dict(carrier_hz=28e9),
    RainbowSpec: dict(center_rad=1.5, spread_rad=0.5),
    PhaseTimeWeights: dict(delays_s=[0.0, 5e-9], phases_rad=[0.0, 1.0],
                           delay_step_s=2.5e-9),
}


@pytest.mark.parametrize("cls,field,value", [
    (ArrayConfig, "peak_gain_db", math.inf),
    (ArrayConfig, "peak_gain_db", math.nan),
    (ArrayConfig, "spacing_m", math.inf),
    (ArrayConfig, "carrier_hz", math.inf),
    (FrequencyGrid, "center_hz", math.inf),
    (FrequencyGrid, "bandwidth_hz", math.inf),
    (FrequencyGrid, "scs_hz", math.nan),
    (DelayConstraint, "max_delay_s", math.nan),
    (DelayConstraint, "max_delay_s", math.inf),
    (DelayConstraint, "step_s", math.inf),
    (Deployment, "ue_angles_rad", [0.1, math.nan]),
    (Deployment, "ring_distances_m", [30.0, math.inf]),
    (RainbowSpec, "center_rad", math.nan),
    (RainbowSpec, "center_rad", math.inf),
    (RainbowSpec, "spread_rad", math.nan),
    (PhaseTimeWeights, "delay_step_s", math.nan),
    (PhaseTimeWeights, "delay_step_s", math.inf),
])
def test_dataclasses_reject_non_finite_fields(cls, field, value):
    # callers that bypass the config parser get the field named
    cls(**_VALID_FIELDS[cls])
    with pytest.raises(ValueError, match="^%s must be finite" % field):
        cls(**{**_VALID_FIELDS[cls], field: value})



@pytest.mark.parametrize("cls,field,accepted,rejected", [
    # a field with only a positivity check below has no lower value here
    (ArrayConfig, "spacing_m", (1e-9, 10.0), (10.01,)),
    (ArrayConfig, "carrier_hz", (1e8, 1e12), (9.9e7, 1.01e12)),
    (ArrayConfig, "peak_gain_db", (-100.0, 100.0), (-100.1, 100.1)),
    (FrequencyGrid, "scs_hz", (1e3, 1e9), (999.0, 1.01e9)),
    (LinkModel, "carrier_hz", (1e8, 1e12), (9.9e7, 1.01e12)),
    (LinkModel, "path_loss_exponent", (1e-9, 10.0), (10.01,)),
    (LinkModel, "ue_tx_power_dbm", (-100.0, 100.0), (-100.1, 100.1)),
    (LinkModel, "ue_beam_gain_db", (-100.0, 100.0), (-100.1, 100.1)),
    (LinkModel, "bs_noise_figure_db", (0.0, 100.0), (-0.1, 100.1)),
    (DelayConstraint, "max_delay_s", (0.0, 1e-6), (1.01e-6,)),
    # center_hz's lower end is set by the band: above bandwidth_hz / 2
    (FrequencyGrid, "center_hz", (1.01e10, 1e12), (1.01e12,)),
    # size caps, also on counts past the float range
    (ArrayConfig, "num_elements", (1, 1024), (0, 1025, 10**400)),
    (FrequencyGrid, "num_rbs", (1, 1024), (0, 1025, 10**400)),
])
def test_dataclasses_check_physical_ranges(cls, field, accepted, rejected):
    # callers that bypass the config parser get the field named
    valid = dict(_VALID_FIELDS[cls])
    if cls is FrequencyGrid:  # a band wide enough for one RB at any scs
        valid.update(center_hz=2e10, bandwidth_hz=2e10, num_rbs=1)
    for value in accepted:
        cls(**{**valid, field: value})
    for value in rejected:
        with pytest.raises(ValueError, match="^%s must lie in" % field):
            cls(**{**valid, field: value})


def test_deployment_rings_lie_in_the_model_range():
    angles = [0.0]
    Deployment(angles, [1.0, 1e7])
    for rings in ([0.5, 10.0], [10.0, 1.1e7]):
        with pytest.raises(ValueError, match="^ring_distances_m must lie in"):
            Deployment(angles, rings)


def test_delay_constraint_caps_the_grid_at_1024_steps():
    assert DelayConstraint(0.5e-9, 512e-9).num_steps == 1024
    # 1000 ns given in ns and scaled to seconds rounds above 1e-6
    assert DelayConstraint(2.5e-9, 1000 * 1e-9).num_steps == 400
    for step_s in (0.4995e-9, 1e-300, 5e-324):
        with pytest.raises(ValueError, match="^step_s must split"):
            DelayConstraint(step_s, 512e-9)


def test_parse_error_reports_line_number():
    with pytest.raises(ConfigError, match="line 3: unknown key"):
        parse_config_text("array.num_elements = 4\n# fine\nnope = 1\n")


@pytest.mark.parametrize("text,match", [
    ("deploy.ue_angles_deg = 0, 95", "outside"),
    ("design.type1.angles_deg = -91", "outside"),
    ("paa.sector_deg = 45, -45", "lo < hi"),
    ("paa.sector_deg = 0, 1e-20", "lo < hi"),
    ("deploy.ring_min_m = 100\ndeploy.ring_max_m = 50", "below"),
    ("deploy.ring_count = 1", "deploy.ring_count: count must lie in"),
    ("deploy.distances_m = 100, 50", "strictly increasing"),
    ("deploy.distances_m = -5, 50", "strictly increasing"),
    ("deploy.ring_min_m = 1\ndeploy.ring_max_m = 1.0000000000000002\n"
     "deploy.ring_count = 50", "strictly increasing"),
    ("delay.max_ns = -1", "max_delay_s must lie in"),
    ("design.type2.center_deg = 100", "outside"),
    ("design.type2.spread_deg = -2", "nonnegative"),
    ("grid.num_rbs = 278", "occupied bandwidth"),
    # the band may not reach 0 Hz; its center defaults to the carrier
    ("grid.center_hz = 1", "grid.center_hz: center_hz must exceed"),
    ("grid.center_hz = -28e9", "grid.center_hz: center_hz must exceed"),
    ("array.carrier_hz = 2e8", "array.carrier_hz: center_hz must exceed"),
    ("array.carrier_hz = 2e8\ngrid.center_hz = 28e9\ngrid.num_rbs = 278",
     "grid.num_rbs: occupied bandwidth"),
    ("grid.num_rbs = 15", "grid.num_rbs: 15 RBs over 4 UEs leave a JPTA "
                          "share of 3 RBs"),
    ("grid.num_rbs = 3", "share of 0 RBs"),
    ("deploy.ue_angles_deg = -40, -20, 0, 20, 40\ngrid.num_rbs = 19",
     "share of 3 RBs"),
    # the swept interval center +- spread/2 leaves the visible half-plane
    ("design.type2.center_deg = 80\ndesign.type2.spread_deg = 110",
     "design.type2.spread_deg: swept interval"),
    pytest.param("design.type1.angles_deg = " + ", ".join(["0"] * 300),
                 "design.type1.angles_deg: fewer RBs than target angles",
                 id="300-type1-angles"),
    ("link.mcs_table_csv = {tmp}/falling.csv",
     "link.mcs_table_csv: .*falling.csv: SNR thresholds must be strictly"),
    ("link.mcs_table_csv = {tmp}/absent.csv", "link.mcs_table_csv: .*absent"),
    ("link.eesm_beta_csv = {tmp}/falling.csv", "link.eesm_beta_csv: .*header"),
    # a key past its physical range is named, not a math error of the sweep
    ("link.ue_tx_power_dbm = -1e300",
     "link.ue_tx_power_dbm: ue_tx_power_dbm must lie in"),
    ("link.ue_beam_gain_db = -1e300",
     "link.ue_beam_gain_db: ue_beam_gain_db must lie in"),
    ("link.bs_noise_figure_db = 1e300",
     "link.bs_noise_figure_db: bs_noise_figure_db must lie in"),
    ("link.path_loss_exponent = 1e300",
     "link.path_loss_exponent: path_loss_exponent must lie in"),
    ("array.carrier_hz = 1e300", "array.carrier_hz: carrier_hz must lie in"),
    ("array.peak_gain_db = -1e300",
     "array.peak_gain_db: peak_gain_db must lie in"),
    ("array.spacing_m = 1e300", "array.spacing_m: spacing_m must lie in"),
    ("grid.scs_hz = 1e-300", "grid.scs_hz: scs_hz must lie in"),
    ("deploy.distances_m = 100, 1e300",
     "deploy.distances_m: ring_distances_m must lie in"),
    ("deploy.ring_min_m = 0.5", "deploy.ring_min_m: ring_min_m must lie in"),
    ("deploy.ring_max_m = 1e300", "deploy.ring_max_m: ring_max_m must lie in"),
    ("delay.max_ns = 1e300", "delay.max_ns: max_delay_s must lie in"),
    ("delay.step_ns = 1e-300", "delay.step_ns: step_s must split"),
    ("delay.step_ns = 0.1", "delay.step_ns: step_s must split"),
    # the size keys are capped when the config is read, before anything of
    # that size is allocated
    ("array.num_elements = 1000000000000",
     "array.num_elements: num_elements must lie in"),
    ("paa.num_beams = 1000000000000", "paa.num_beams: num_beams must lie in"),
    ("deploy.ring_count = 1000000000000",
     "deploy.ring_count: count must lie in"),
    ("grid.num_rbs = 1000000000000", "grid.num_rbs: num_rbs must lie in"),
    ("grid.center_hz = 1e300", "grid.center_hz: center_hz must lie in"),
    # the built-in MCS thresholds shifted past float resolution
    ("link.mcs_margin_db = 1e300",
     "link.mcs_margin_db: SNR thresholds must be strictly increasing"),
    # thresholds that stay distinct but leave the dB range
    ("link.mcs_margin_db = 1e15",
     "link.mcs_margin_db: snr_threshold_db must lie in"),
    ("link.mcs_margin_db = -1e15",
     "link.mcs_margin_db: snr_threshold_db must lie in"),
    # a rule over several keys names every key it reads, also those the
    # text leaves at their defaults
    ("deploy.ring_max_m = 1e-310",
     "^deploy.ring_min_m, deploy.ring_max_m: ring_min_m must be below"),
    ("grid.bandwidth_hz = 1e300",
     "^grid.bandwidth_hz, array.carrier_hz: center_hz must exceed"),
    ("grid.bandwidth_hz = 1e-310",
     "^grid.bandwidth_hz, grid.scs_hz, grid.num_rbs: occupied bandwidth"),
    # the log grid's rules hold also beside explicit rings, which leave the
    # grid unused
    ("deploy.distances_m = 100, 200\ndeploy.ring_count = 1",
     "^deploy.ring_count: count must lie in"),
    ("deploy.distances_m = 100, 200\ndeploy.ring_count = 1000000000000",
     "^deploy.ring_count: count must lie in"),
    ("deploy.distances_m = 100, 200\ndeploy.ring_min_m = -1",
     "^deploy.ring_min_m: ring_min_m must lie in"),
    ("deploy.distances_m = 100, 200\ndeploy.ring_min_m = 0.5",
     "^deploy.ring_min_m: ring_min_m must lie in"),
    ("deploy.distances_m = 100, 200\ndeploy.ring_max_m = 1e300",
     "^deploy.ring_max_m: ring_max_m must lie in"),
    ("deploy.distances_m = 100, 200\ndeploy.ring_min_m = 100\n"
     "deploy.ring_max_m = 50",
     "^deploy.ring_min_m, deploy.ring_max_m: ring_min_m must be below"),
])
def test_validation_errors(text, match, tmp_path):
    # input files are read, and rejected, when the config is parsed
    (tmp_path / "falling.csv").write_text(
        "index,spectral_efficiency,snr_threshold_db\n0,0.5,3\n1,1.0,-3\n")
    text = text.replace("{tmp}", str(tmp_path))
    with pytest.raises(ConfigError, match=match) as exc:
        parse_config_text(text)
    _assert_names_a_set_key(exc.value, [line.split("=")[0].strip()
                                         for line in text.splitlines()])


def _assert_names_a_set_key(exc, keys):
    """The message starts with the keys the failed rule reads, one or more
    of them comma-separated, and the text sets one of them."""
    named = str(exc).split(": ")[0].split(", ")
    assert set(named) <= set(_KEY_SPECS) and set(named) & set(keys), str(exc)


def test_smallest_jpta_share_meets_the_minimum_grant():
    # 16 RBs over 4 UEs: four shares of exactly 4 RBs
    assert parse_config_text("grid.num_rbs = 16").grid_num_rbs == 16
    assert parse_config_text(
        "deploy.ue_angles_deg = 10\ngrid.num_rbs = 4").grid_num_rbs == 4


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("array.num_elements = 4\n")
    assert load_config(path).array_num_elements == 4


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_array_builder_auto_spacing():
    cfg = parse_config_text("array.spacing_m = auto\n")
    assert cfg.array_spacing_m is None
    ac = cfg.array_config()
    assert ac.spacing_m == pytest.approx(SPEED_OF_LIGHT_M_S / 28e9 / 2.0)
    explicit = parse_config_text("array.spacing_m = 0.004\n").array_config()
    assert explicit.spacing_m == 0.004


def test_grid_builder_center_defaults_to_carrier():
    cfg = parse_config_text("array.carrier_hz = 30e9\n"
                            "grid.num_rbs = 100\ngrid.scs_hz = 60e3\n"
                            "grid.bandwidth_hz = 200e6\n")
    assert cfg.frequency_grid().center_hz == 30e9
    cfg2 = parse_config_text("grid.center_hz = 27.5e9\n")
    assert cfg2.frequency_grid().center_hz == 27.5e9


def test_link_builder_fields():
    lm = parse_config_text("link.path_loss_exponent = 2\n"
                           "link.ue_tx_power_dbm = 20\n").link_model()
    assert lm.carrier_hz == 28e9
    assert lm.path_loss_exponent == 2.0
    assert lm.ue_tx_power_dbm == 20.0
    assert lm.bs_noise_figure_db == 5.0


def test_delay_builder_converts_ns():
    dc = parse_config_text("delay.step_ns = 1\ndelay.max_ns = 10\n"
                           ).delay_constraint()
    assert dc.step_s == pytest.approx(1e-9)
    assert dc.max_delay_s == pytest.approx(1e-8)
    assert dc.num_steps == 10


def test_deployment_builder_log_grid_and_override():
    dep = RunConfig().deployment()
    assert dep.num_ues == 4
    assert dep.ring_distances_m.size == 40
    assert dep.ring_distances_m[0] == pytest.approx(30.0)
    assert dep.ring_distances_m[-1] == pytest.approx(1500.0)
    explicit = parse_config_text("deploy.distances_m = 30, 100, 300\n"
                                 ).deployment()
    np.testing.assert_allclose(explicit.ring_distances_m, [30.0, 100.0, 300.0])


def test_mcs_table_builder_margin_and_csv(tmp_path):
    table = parse_config_text("link.mcs_margin_db = 0\n").mcs_table()
    default = McsTable.default(0.0)
    np.testing.assert_allclose(table.thresholds_db(), default.thresholds_db())

    csv_path = tmp_path / "mcs.csv"
    csv_path.write_text("index,spectral_efficiency,snr_threshold_db\n"
                        "0,1.0,0.0\n1,2.0,5.0\n")
    cfg = parse_config_text("link.mcs_table_csv = %s\n" % csv_path)
    assert len(cfg.mcs_table()) == 2


@pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 1.7, 2.0, 2.5, 3.0, 10.0,
                                  1e4])
def test_eesm_beta_in_range_parses(beta):
    cfg = parse_config_text("link.eesm_beta = %r\n" % beta)
    assert np.array_equal(cfg.eesm_betas(cfg.mcs_table()), np.full(15, beta))


def test_eesm_betas_builder(tmp_path):
    cfg = parse_config_text("link.eesm_beta = 1.7\n")
    table = cfg.mcs_table()
    np.testing.assert_allclose(cfg.eesm_betas(table), np.full(15, 1.7))

    beta_path = tmp_path / "betas.csv"
    beta_path.write_text("index,beta\n" +
                         "".join("%d,2.5\n" % i for i in range(15)))
    cfg2 = parse_config_text("link.eesm_beta_csv = %s\n" % beta_path)
    np.testing.assert_allclose(cfg2.eesm_betas(table), np.full(15, 2.5))


@pytest.mark.parametrize("beta,rule", [
    (0.0, "must be positive, got 0"), (-1.0, "must be positive, got -1"),
    (math.nan, "must be positive, got nan"),
    (math.nextafter(MAX_EESM_BETA, math.inf), "must be at most 10000, got"),
    (1e300, "must be at most 10000, got 1e\\+300"),
    (math.inf, "must be at most 10000, got inf")])
def test_eesm_beta_range_is_one_check_for_key_file_and_sweep(tmp_path, beta,
                                                             rule):
    # the scalar key, a beta CSV row and a sweep's betas go through
    # link.require_eesm_beta, each error led by its own subject
    table = McsTable.default()
    with pytest.raises(ValueError, match="^eesm_beta: " + rule):
        RunConfig(link_eesm_beta=beta).eesm_betas(table)
    path = tmp_path / "b.csv"
    path.write_text("index,beta\n" + "".join(
        "%d,%r\n" % (i, beta if i == 3 else 1.0) for i in range(15)))
    cfg = RunConfig(link_eesm_beta_csv=str(path))
    if math.isfinite(beta):  # the CSV reader rejects the others first
        with pytest.raises(ValueError,
                           match="b.csv line 5: EESM beta: " + rule):
            cfg.eesm_betas(table)
    with pytest.raises(ValueError, match="^eesm_betas: " + rule):
        select_rate_grid(LinkModel(28e9), [100.0], [np.zeros(8)],
                         [np.arange(8)], table, 120e3, 1.0, np.full(15, beta))


def test_a_key_a_csv_replaces_is_rejected_beside_it(tmp_path):
    # the margin shifts only the built-in table and the scalar beta fills
    # only the built-in betas: beside their CSVs both used to be accepted
    # and ignored
    mcs = tmp_path / "mcs.csv"
    mcs.write_text("index,spectral_efficiency,snr_threshold_db\n"
                   "0,1.0,0.0\n1,2.0,5.0\n")
    betas = tmp_path / "betas.csv"
    betas.write_text("index,beta\n0,2.5\n1,2.5\n")
    for ignored, csv_key, path, value in (
            ("link.mcs_margin_db", "link.mcs_table_csv", mcs, "30"),
            ("link.eesm_beta", "link.eesm_beta_csv", betas, "7")):
        text = "link.mcs_table_csv = %s\n%s = %s\n" % (mcs, ignored, value)
        if csv_key != "link.mcs_table_csv":
            text += "%s = %s\n" % (csv_key, path)
        with pytest.raises(ConfigError, match="^%s, %s: %s would be ignored "
                           "beside %s$" % (ignored, csv_key, ignored,
                                           csv_key)):
            parse_config_text(text)
        # either key alone, or beside an empty CSV key, is used
        parse_config_text("%s = %s\n" % (ignored, value))
        parse_config_text("%s = %s\n%s =\n" % (ignored, value, csv_key))
    # an out-of-range scalar beta keeps its range message beside a CSV
    with pytest.raises(ConfigError,
                       match="^link.eesm_beta: must be positive, got 0$"):
        parse_config_text("link.mcs_table_csv = %s\nlink.eesm_beta = 0\n"
                          "link.eesm_beta_csv = %s\n" % (mcs, betas))


@pytest.mark.parametrize("key, name, body, message", [
    ("link.mcs_table_csv", "count",
     "index,spectral_efficiency,snr_threshold_db\n0,0.5,3\n1,1.0,-3\n",
     "count: SNR thresholds must be strictly increasing"),
    ("link.eesm_beta_csv", "eesm_beta", "index,beta\n0,0\n",
     "eesm_beta line 2: EESM beta: must be positive, got 0")],
    ids=["count", "eesm_beta"])
def test_a_csv_named_like_a_field_keeps_its_key(tmp_path, monkeypatch, key,
                                                name, body, message):
    # a CSV's error starts with its path; a bare path that reads like a
    # field name used to move the error under that field's key
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(body)
    with pytest.raises(ConfigError,
                       match="^%s: %s$" % (key, re.escape(message))):
        parse_config_text("%s = %s\n" % (key, name))


def test_paa_sector_builder_axis_order():
    lo, hi = RunConfig().paa_sector_rad()
    assert lo == pytest.approx(axis_from_boresight_deg(60.0))
    assert hi == pytest.approx(axis_from_boresight_deg(-60.0))
    assert 0.0 <= lo < hi <= math.pi


def test_type1_target_builder_descending_boresight():
    cfg = RunConfig()  # deployment angles (-30, -10, 10, 30)
    target = cfg.type1_target()
    bores = [-math.degrees(a - math.pi / 2.0) for a, _ in target.entries]
    assert bores == pytest.approx([30.0, 10.0, -10.0, -30.0])
    assert target.num_rbs == 264
    # explicit designer angles take precedence, ties included; the axis
    # angles equal the scalar conversion bit for bit
    cfg2 = parse_config_text("design.type1.angles_deg = -5, 25, -5\n")
    target2 = cfg2.type1_target()
    assert [a for a, _ in target2.entries] == [
        axis_from_boresight_deg(a) for a in (25.0, -5.0, -5.0)]


def test_rainbow_spec_builder():
    spec = parse_config_text("design.type2.center_deg = 10\n"
                             "design.type2.spread_deg = 80\n").rainbow_spec()
    assert spec.center_rad == pytest.approx(axis_from_boresight_deg(10.0))
    assert spec.spread_rad == pytest.approx(math.radians(80.0))


# ---------------------------------------------------------------------------
# property: a config that parses builds every run object and runs
# ---------------------------------------------------------------------------

def _numbers(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


def _one(strategy):
    return st.lists(strategy, min_size=1, max_size=1)


_WILD_DB = _numbers(-1e300, 1e300)

# key -> (valid values, wild values), each a strategy of the value list. The
# wild values run in and far around the valid range: far enough that SNRs
# would leave float64. Keys from deploy.distances_m on are set in about half
# of the examples and keep their defaults otherwise.
_KEY_VALUES = {
    "deploy.ue_angles_deg": (st.lists(_numbers(-90, 90), min_size=1,
                                      max_size=6),
                             st.lists(_numbers(-100, 100), min_size=1,
                                      max_size=6)),
    "paa.sector_deg": (st.tuples(_numbers(-90, 0), _numbers(1, 90)).map(list),
                       st.lists(_numbers(-100, 100), min_size=2,
                                max_size=2)),
    "deploy.ring_min_m": (_one(_numbers(1, 100)), _one(_numbers(-10, 1e300))),
    "deploy.ring_max_m": (_one(_numbers(200, 3000)),
                          _one(_numbers(-10, 1e300))),
    "deploy.ring_count": (_one(st.integers(2, 400)),
                          _one(st.integers(-1, 400))),
    "grid.num_rbs": (_one(st.integers(24, 300)), _one(st.integers(-1, 300))),
    "design.type2.center_deg": (_one(_numbers(-30, 30)),
                                _one(_numbers(-100, 100))),
    "design.type2.spread_deg": (_one(_numbers(0, 60)),
                                _one(_numbers(-20, 400))),
    "design.type1.angles_deg": (
        st.integers(1, 24).map(lambda n: np.linspace(-60, 60, n).tolist()),
        st.integers(1, 300).map(lambda n: np.linspace(-60, 60, n).tolist())),
    "deploy.distances_m": (st.lists(_numbers(1, 3000), min_size=1,
                                    max_size=5, unique=True).map(sorted),
                           st.lists(_numbers(-10, 1e300), min_size=1,
                                    max_size=5)),
    "array.carrier_hz": (_one(_numbers(2e8, 1e12)), _one(_numbers(1, 1e300))),
    "array.peak_gain_db": (_one(_numbers(-100, 100)), _one(_WILD_DB)),
    "array.spacing_m": (_one(_numbers(1e-4, 10)), _one(_numbers(1e-4, 1e300))),
    "grid.scs_hz": (_one(_numbers(1e3, 1e5)), _one(_numbers(1e-300, 2e5))),
    "link.path_loss_exponent": (_one(_numbers(0.1, 10)),
                                _one(_numbers(1e-300, 1e300))),
    "link.ue_tx_power_dbm": (_one(_numbers(-100, 100)), _one(_WILD_DB)),
    "link.ue_beam_gain_db": (_one(_numbers(-100, 100)), _one(_WILD_DB)),
    "link.bs_noise_figure_db": (_one(_numbers(0, 100)), _one(_WILD_DB)),
    "delay.step_ns": (_one(_numbers(0.2, 10)), _one(_numbers(1e-300, 1e300))),
    "delay.max_ns": (_one(_numbers(0, 200)), _one(_numbers(0, 1e300))),
}
_ALWAYS_SET = list(_KEY_VALUES)[:list(_KEY_VALUES).index("deploy.distances_m")]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_config_that_parses_builds_every_run_object(data):
    # every range-checked key: in about half of the examples one of them is
    # drawn wild, the rest valid
    draw = data.draw
    wild = draw(st.sampled_from(list(_KEY_VALUES))) \
        if draw(st.booleans()) else None
    keys = {key: draw(values[key == wild])
            for key, values in _KEY_VALUES.items()
            if key in _ALWAYS_SET or key == wild or draw(st.booleans())}
    text = "".join("%s = %s\n" % (key, ", ".join(map(repr, values)))
                   for key, values in keys.items())
    try:
        cfg = parse_config_text(text)
    except ConfigError as exc:
        _assert_names_a_set_key(exc, keys)
        return
    array = cfg.array_config()
    cfg.frequency_grid()
    cfg.link_model()
    cfg.delay_constraint()
    cfg.deployment()
    cfg.eesm_betas(cfg.mcs_table())
    cfg.type1_target()
    cfg.rainbow_spec()
    assert len(paa_codebook(array, cfg.paa_num_beams,
                            cfg.paa_sector_rad())) == cfg.paa_num_beams
    # and a sweep of its nearest or farthest ring has finite outputs
    dep = cfg.deployment()
    ring = dep.ring_distances_m[draw(st.sampled_from([0, -1]))]
    mcs = cfg.mcs_table()
    res = throughput_sweep(Deployment(dep.ue_angles_rad, [ring]), array,
                           cfg.frequency_grid(), cfg.link_model(), mcs,
                           cfg.delay_constraint(), cfg.paa_num_beams,
                           cfg.paa_sector_rad(), cfg.eesm_betas(mcs))
    for scheme, rates in res.rates.items():
        for field, column in zip(rates._fields, rates):
            assert np.all(np.isfinite(column)), (scheme, field, text)
        assert np.all(np.isfinite(res.mean_throughput_bps(scheme))), text
