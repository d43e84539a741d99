"""Run-configuration parsing, validation, and object builders."""

import math

import numpy as np
import pytest

from jpta import ArrayConfig, DelayConstraint, Deployment, FrequencyGrid
from jpta.antenna import SPEED_OF_LIGHT_M_S, axis_from_boresight_deg
from jpta.config import ConfigError, RunConfig, load_config, parse_config_text
from jpta.link import McsTable

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


@pytest.mark.parametrize("text,match", [
    ("bogus.key = 1", "unknown key"),
    ("array.num_elements = 4\narray.num_elements = 8", "line 2: duplicate"),
    ("array.num_elements four", "expected 'key = value'"),
    ("array.num_elements = four", "expected an integer"),
    ("array.num_elements = -4", "must be positive"),
    ("grid.scs_hz = abc", "expected a number"),
    ("paa.sector_deg = 10", "exactly two numbers"),
    ("deploy.ue_angles_deg = 1, x", "expected a number"),
    ("deploy.ue_angles_deg = ,", "comma-separated number list"),
    ("design.type1.per_subcarrier = maybe", "true/false"),
    ("array.spacing_m = -1", "positive or 'auto'"),
    ("link.eesm_beta = 0", "must be positive"),
])
def test_parse_errors(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config_text(text)


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
])
def test_dataclasses_reject_non_finite_fields(cls, field, value):
    # callers that bypass the config parser get the field named
    cls(**_VALID_FIELDS[cls])
    with pytest.raises(ValueError, match="^%s must be finite" % field):
        cls(**{**_VALID_FIELDS[cls], field: value})


def test_parse_error_reports_line_number():
    with pytest.raises(ConfigError, match="line 3: unknown key"):
        parse_config_text("array.num_elements = 4\n# fine\nnope = 1\n")


@pytest.mark.parametrize("text,match", [
    ("deploy.ue_angles_deg = 0, 95", "outside"),
    ("design.type1.angles_deg = -91", "outside"),
    ("paa.sector_deg = 45, -45", "lo < hi"),
    ("deploy.ring_min_m = 100\ndeploy.ring_max_m = 50", "below"),
    ("deploy.ring_count = 1", ">= 2"),
    ("deploy.distances_m = 100, 50", "strictly increasing"),
    ("deploy.distances_m = -5, 50", "strictly increasing"),
    ("delay.max_ns = -1", "nonnegative"),
    ("design.type2.center_deg = 100", "outside"),
    ("design.type2.spread_deg = -2", "nonnegative"),
    ("grid.num_rbs = 278", "occupied bandwidth"),
])
def test_validation_errors(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config_text(text)


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


def test_eesm_betas_builder(tmp_path):
    cfg = parse_config_text("link.eesm_beta = 1.7\n")
    table = cfg.mcs_table()
    np.testing.assert_allclose(cfg.eesm_betas(table), np.full(15, 1.7))

    beta_path = tmp_path / "betas.csv"
    beta_path.write_text("index,beta\n" +
                         "".join("%d,2.5\n" % i for i in range(15)))
    cfg2 = parse_config_text("link.eesm_beta_csv = %s\n" % beta_path)
    np.testing.assert_allclose(cfg2.eesm_betas(table), np.full(15, 2.5))


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
    # explicit designer angles take precedence
    cfg2 = parse_config_text("design.type1.angles_deg = -5, 25\n")
    target2 = cfg2.type1_target()
    assert len(target2.entries) == 2
    assert target2.entries[0][0] == pytest.approx(axis_from_boresight_deg(25.0))


def test_rainbow_spec_builder():
    spec = parse_config_text("design.type2.center_deg = 10\n"
                             "design.type2.spread_deg = 80\n").rainbow_spec()
    assert spec.center_rad == pytest.approx(axis_from_boresight_deg(10.0))
    assert spec.spread_rad == pytest.approx(math.radians(80.0))
