"""Joint phase-time array beamforming: design and system evaluation.

A uniform linear array whose analog front end combines per-antenna phase
shifters with per-antenna true-time-delay elements can realize beams whose
pointing direction varies across a wide band. This package provides

* ``antenna`` — array geometry, frequency grids, steering vectors and the
  frequency-dependent response of phase-plus-delay weights;
* ``codebook`` — weight designers: a subband-target least-squares fit, a
  closed-form frequency-swept ("rainbow") beam, conventional single-angle
  steering codebooks, delay quantization and CSV import/export;
* ``link`` — uplink budget, effective-SNR link abstraction and rate
  selection over an MCS ladder;
* ``sysim`` — multi-user uplink comparison of frequency-multiplexed
  phase-time beams against time-multiplexed single beams over a ring
  deployment, with coverage metrics and CSV reports;
* ``config``/``cli`` — flat text run configuration and the ``jpta``
  command line tool.

Angled quantities at the API surface use axis coordinates (radians in
[0, pi], boresight at pi/2); configuration files and the CLI use
boresight-relative degrees in [-90, 90].
"""

from .antenna import (
    ArrayConfig,
    FrequencyGrid,
    PhaseTimeWeights,
    SPEED_OF_LIGHT_M_S,
    axis_from_boresight_deg,
    axis_from_boresight_rad,
    beam_gain_db,
    boresight_deg_from_axis,
    jpta_response,
    pattern_map,
    steering_vector,
)
from .codebook import (
    DelayConstraint,
    RainbowSpec,
    Type1Target,
    design_type1,
    design_type2,
    export_codebook_csv,
    import_codebook_csv,
    paa_codebook,
    quantize_delays,
    steer_weights,
    type1_objective,
)
from .config import ConfigError, RunConfig, load_config, parse_config_text
from .link import (
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
    snr_per_rb_db,
)
from .sysim import (
    CoverageResult,
    Deployment,
    ScenarioResult,
    coverage_distance,
    jpta_share_target,
    log_ring_grid,
    run_jpta,
    run_paa,
    throughput_sweep,
    write_results_csv,
    write_summary_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayConfig",
    "ConfigError",
    "CoverageResult",
    "DelayConstraint",
    "Deployment",
    "FrequencyGrid",
    "LinkModel",
    "McsEntry",
    "McsTable",
    "PhaseTimeWeights",
    "RainbowSpec",
    "RateDecision",
    "RateGrid",
    "RunConfig",
    "ScenarioResult",
    "SPEED_OF_LIGHT_M_S",
    "Type1Target",
    "axis_from_boresight_deg",
    "axis_from_boresight_rad",
    "beam_gain_db",
    "boresight_deg_from_axis",
    "coverage_distance",
    "design_type1",
    "design_type2",
    "eesm_effective_snr_db",
    "export_codebook_csv",
    "import_codebook_csv",
    "jpta_response",
    "jpta_share_target",
    "load_config",
    "load_eesm_betas",
    "log_ring_grid",
    "noise_power_dbm_per_rb",
    "paa_codebook",
    "parse_config_text",
    "path_gain_db",
    "pattern_map",
    "quantize_delays",
    "run_jpta",
    "run_paa",
    "select_rate",
    "select_rate_grid",
    "snr_per_rb_db",
    "steer_weights",
    "steering_vector",
    "throughput_sweep",
    "type1_objective",
    "write_results_csv",
    "write_summary_csv",
]
