"""Run configuration: flat dotted key-value text files with Table-style
defaults.

Format, one assignment per line::

    # comment
    array.num_elements = 16
    deploy.ue_angles_deg = -30, -10, 10, 30

Unknown keys, duplicate keys, and malformed values raise ConfigError naming
the offending field. Angles in config files are boresight-relative degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .antenna import ArrayConfig, FrequencyGrid, axis_from_boresight_deg
from .codebook import (
    DEFAULT_DELAY_STEP_S,
    DEFAULT_MAX_DELAY_S,
    DelayConstraint,
    RainbowSpec,
    Type1Target,
    paa_codebook,
)
from .link import (
    MAX_EESM_BETA,
    MIN_RBS_PER_GRANT,
    LinkModel,
    McsTable,
    load_eesm_betas,
)
from .sysim import Deployment, jpta_share_target, log_ring_grid


class ConfigError(ValueError):
    """Invalid run configuration; message names the field and constraint."""


@dataclass
class RunConfig:
    """Parsed run configuration with defaults for every field."""

    # array
    array_num_elements: int = 16
    array_spacing_m: float = None  # None means half wavelength at carrier
    array_carrier_hz: float = 28e9
    array_peak_gain_db: float = 28.0
    # frequency grid
    grid_center_hz: float = None  # None means the carrier
    grid_bandwidth_hz: float = 400e6
    grid_scs_hz: float = 120e3
    grid_num_rbs: int = 264
    # link
    link_path_loss_exponent: float = 3.0
    link_ue_tx_power_dbm: float = 23.0
    link_ue_beam_gain_db: float = 0.0
    link_bs_noise_figure_db: float = 5.0
    link_mcs_margin_db: float = 2.0
    link_eesm_beta: float = 1.0
    link_mcs_table_csv: str = ""
    link_eesm_beta_csv: str = ""
    # phased-array benchmark codebook
    paa_num_beams: int = 16
    paa_sector_deg: tuple = (-60.0, 60.0)
    # delay line
    delay_step_ns: float = DEFAULT_DELAY_STEP_S * 1e9
    delay_max_ns: float = DEFAULT_MAX_DELAY_S * 1e9
    # deployment
    deploy_ue_angles_deg: tuple = (-30.0, -10.0, 10.0, 30.0)
    deploy_ring_min_m: float = 30.0
    deploy_ring_max_m: float = 1500.0
    deploy_ring_count: int = 40
    deploy_distances_m: tuple = ()  # explicit rings override the log grid
    # designers
    design_type1_angles_deg: tuple = ()  # empty means the deployment angles
    design_type1_per_subcarrier: bool = False
    design_type2_center_deg: float = 0.0
    design_type2_spread_deg: float = 110.0

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------

    def array_config(self) -> ArrayConfig:
        spacing = self.array_spacing_m
        if spacing is None:
            return ArrayConfig.half_wavelength(self.array_num_elements,
                                               self.array_carrier_hz,
                                               self.array_peak_gain_db)
        return ArrayConfig(self.array_num_elements, spacing,
                           self.array_carrier_hz, self.array_peak_gain_db)

    def frequency_grid(self) -> FrequencyGrid:
        center = self.grid_center_hz
        if center is None:
            center = self.array_carrier_hz
        return FrequencyGrid(center_hz=center,
                             bandwidth_hz=self.grid_bandwidth_hz,
                             scs_hz=self.grid_scs_hz,
                             num_rbs=self.grid_num_rbs)

    def link_model(self) -> LinkModel:
        return LinkModel(carrier_hz=self.array_carrier_hz,
                         path_loss_exponent=self.link_path_loss_exponent,
                         ue_tx_power_dbm=self.link_ue_tx_power_dbm,
                         ue_beam_gain_db=self.link_ue_beam_gain_db,
                         bs_noise_figure_db=self.link_bs_noise_figure_db)

    def delay_constraint(self) -> DelayConstraint:
        return DelayConstraint(step_s=self.delay_step_ns * 1e-9,
                               max_delay_s=self.delay_max_ns * 1e-9)

    def deployment(self) -> Deployment:
        angles = np.deg2rad(np.array(self.deploy_ue_angles_deg))
        if len(self.deploy_distances_m) > 0:
            rings = np.array(self.deploy_distances_m, dtype=np.float64)
        else:
            rings = log_ring_grid(self.deploy_ring_min_m,
                                  self.deploy_ring_max_m,
                                  self.deploy_ring_count)
        return Deployment(ue_angles_rad=angles, ring_distances_m=rings)

    def mcs_table(self) -> McsTable:
        if self.link_mcs_table_csv:
            return McsTable.from_csv(self.link_mcs_table_csv)
        return McsTable.default(self.link_mcs_margin_db)

    def eesm_betas(self, table: McsTable) -> np.ndarray:
        if self.link_eesm_beta_csv:
            return load_eesm_betas(self.link_eesm_beta_csv, len(table))
        return np.full(len(table), self.link_eesm_beta)

    def paa_sector_rad(self) -> tuple:
        lo_deg, hi_deg = self.paa_sector_deg
        # boresight degrees to axis radians flips the order
        return (axis_from_boresight_deg(hi_deg),
                axis_from_boresight_deg(lo_deg))

    def type1_target(self) -> Type1Target:
        angles_deg = self.design_type1_angles_deg or self.deploy_ue_angles_deg
        return jpta_share_target(np.deg2rad(angles_deg), self.grid_num_rbs)[0]

    def rainbow_spec(self) -> RainbowSpec:
        return RainbowSpec(
            center_rad=axis_from_boresight_deg(self.design_type2_center_deg),
            spread_rad=math.radians(self.design_type2_spread_deg))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _parse_float(key, text):
    try:
        value = float(text)
    except ValueError:
        raise ConfigError("%s: expected a number, got %r" % (key, text))
    if not math.isfinite(value):
        raise ConfigError("%s: expected a finite number, got %r" % (key, text))
    return value


def _parse_int(key, text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError("%s: expected an integer, got %r" % (key, text))


def _parse_bool(key, text):
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError("%s: expected true/false, got %r" % (key, text))


def _parse_float_list(key, text):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigError("%s: expected a comma-separated number list" % key)
    return tuple(_parse_float(key, p) for p in parts)


def _parse_pair(key, text):
    values = _parse_float_list(key, text)
    if len(values) != 2:
        raise ConfigError("%s: expected exactly two numbers" % key)
    return values


def _parse_spacing(key, text):
    if text.strip().lower() == "auto":
        return None
    return _parse_float(key, text)


def _parse_eesm_beta(key, text):
    value = _parse_float(key, text)
    if not value > 0:
        raise ConfigError("%s: must be positive" % key)
    if not value <= MAX_EESM_BETA:
        raise ConfigError("%s: must be at most %g, got %g"
                          % (key, MAX_EESM_BETA, value))
    return value


_TYPE_PARSERS = dict(int=_parse_int, float=_parse_float, bool=_parse_bool,
                     str=lambda key, text: text.strip(),
                     tuple=_parse_float_list)

# fields whose type does not say how to parse them; the scalar beta's
# positivity and cap are the parser's because no run object checks them on
# every parse: the scalar beta is checked only when a sweep runs
_FIELD_PARSERS = dict(array_spacing_m=_parse_spacing,
                      paa_sector_deg=_parse_pair,
                      link_eesm_beta=_parse_eesm_beta)

# config key -> (field, parser); a key is its field's name with the first
# underscore, two for the designer fields, made a dot
_KEY_SPECS = {
    f.name.replace("_", ".", 2 if f.name.startswith("design_") else 1):
    (f.name, _FIELD_PARSERS.get(f.name, _TYPE_PARSERS[f.type]))
    for f in fields(RunConfig)
}

# config key of each run-object field whose rule a builder checks, read
# from the first word of the builder's error: the key's last part, or one
# of these field names
_FIELD_KEYS = dict({key.rsplit(".", 1)[1]: key for key in _KEY_SPECS},
                   step_s="delay.step_ns", max_delay_s="delay.max_ns",
                   sector="paa.sector_deg", count="deploy.ring_count")


def parse_config_text(text: str) -> RunConfig:
    """Parse flat key = value lines into a RunConfig."""
    cfg = RunConfig()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value', got %r"
                              % (lineno, raw.strip()))
        key, value = line.split("=", 1)
        key = key.strip().lower()
        value = value.strip()
        if key not in _KEY_SPECS:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
        if key in seen:
            raise ConfigError("line %d: duplicate key %r" % (lineno, key))
        seen.add(key)
        attr, parser = _KEY_SPECS[key]
        setattr(cfg, attr, parser(key, value))
    _validate(cfg)
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc))
    return parse_config_text(text)


def _require_min_share(cfg: RunConfig) -> None:
    """A JPTA share below the minimum grant could only ever be an outage."""
    num_ues = len(cfg.deploy_ue_angles_deg)
    try:
        _, shares = jpta_share_target(np.deg2rad(cfg.deploy_ue_angles_deg),
                                      cfg.grid_num_rbs)
    except ValueError:  # fewer RBs than UEs: some get no share
        shares = [()]
    smallest = min(len(share) for share in shares)
    if smallest < MIN_RBS_PER_GRANT:
        raise ValueError("%d RBs over %d UEs leave a JPTA share of %d RBs, "
                         "below the %d-RB minimum grant"
                         % (cfg.grid_num_rbs, num_ues, smallest,
                            MIN_RBS_PER_GRANT))


def _validate(cfg: RunConfig) -> None:
    for key, angles in (("deploy.ue_angles_deg", cfg.deploy_ue_angles_deg),
                        ("design.type1.angles_deg",
                         cfg.design_type1_angles_deg)):
        for angle in angles:
            if not -90.0 <= angle <= 90.0:
                raise ConfigError("%s: angle %g outside [-90, 90]"
                                  % (key, angle))
    lo, hi = cfg.paa_sector_deg
    if not -90.0 <= lo < hi <= 90.0:
        raise ConfigError("paa.sector_deg: need -90 <= lo < hi <= 90")
    if not -90.0 <= cfg.design_type2_center_deg <= 90.0:
        raise ConfigError("design.type2.center_deg: outside [-90, 90]")
    # the rings are explicit, or the log grid, which can repeat a distance
    # when it has more rings than its span can separate
    rings_key = ("deploy.distances_m" if cfg.deploy_distances_m
                 else "deploy.ring_count")
    # the built-in table's thresholds are shifted by the margin
    mcs_key = ("link.mcs_table_csv" if cfg.link_mcs_table_csv
               else "link.mcs_margin_db")
    field_keys = dict(_FIELD_KEYS, center_hz=(
        "grid.center_hz" if cfg.grid_center_hz is not None
        else "array.carrier_hz"))
    # each builder checks the ranges of its dataclass's fields, which name
    # their key, and the rules left after the checks above, which are
    # reported under the builder's key; the log grid's rules are checked
    # also beside deploy.distances_m, which leaves the grid unused; the
    # codebook also rounds the sector to axis radians, where a narrow one
    # becomes empty; the last four read input files
    for key, build in (("deploy.ring_count",
                        lambda: log_ring_grid(cfg.deploy_ring_min_m,
                                              cfg.deploy_ring_max_m,
                                              cfg.deploy_ring_count)),
                       ("array.carrier_hz", cfg.array_config),
                       ("paa.num_beams",
                        lambda: paa_codebook(cfg.array_config(),
                                             cfg.paa_num_beams,
                                             cfg.paa_sector_rad())),
                       ("link.path_loss_exponent", cfg.link_model),
                       ("grid.num_rbs", cfg.frequency_grid),
                       # once the grid has capped the RB count
                       ("grid.num_rbs", lambda: _require_min_share(cfg)),
                       (rings_key, cfg.deployment),
                       ("delay.max_ns", cfg.delay_constraint),
                       (mcs_key, cfg.mcs_table),
                       ("link.eesm_beta_csv",
                        lambda: cfg.eesm_betas(cfg.mcs_table())),
                       ("design.type1.angles_deg", cfg.type1_target),
                       ("design.type2.spread_deg", cfg.rainbow_spec)):
        try:
            build()
        except (ValueError, OSError) as exc:
            text = str(exc)
            # a rule over several fields lists them all before its colon
            head, _, rule = text.partition(": ")
            named = head.split(", ")
            if all(n in field_keys for n in named):
                key, text = ", ".join(field_keys[n] for n in named), rule
            else:
                key = field_keys.get(text.split(" ", 1)[0], key)
            raise ConfigError("%s: %s" % (key, text))
