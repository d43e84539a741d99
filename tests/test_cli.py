"""End-to-end command line checks driving jpta.cli.main in-process."""

import csv
import io
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jpta
from jpta import cli
from jpta.antenna import axis_from_boresight_deg, pattern_map
from jpta.cli import main
from jpta.codebook import design_type2, import_codebook_csv
from jpta.config import ConfigError, RunConfig, load_config
from jpta.sysim import coverage_distance, throughput_sweep
from oracles import write_pattern_rows_py

SMALL_CFG = ("deploy.ue_angles_deg = -26.25, 26.25\n"
             "deploy.distances_m = 30, 100, 300\n"
             "grid.num_rbs = 24\n")


def _write_cfg(tmp_path, text=SMALL_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

def test_design_type2_writes_codebook(tmp_path, capsys):
    out = tmp_path / "rainbow.csv"
    assert main(["design", "--type", "2", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "wrote" in stdout and "110 deg sweep" in stdout
    back = import_codebook_csv(out)
    cfg = RunConfig()
    expect = design_type2(cfg.array_config(), cfg.rainbow_spec(),
                          cfg.frequency_grid())
    np.testing.assert_allclose(back.delays_s, expect.delays_s, rtol=1e-5,
                               atol=1e-15)
    np.testing.assert_allclose(np.exp(1j * back.phases_rad),
                               np.exp(1j * expect.phases_rad), atol=1e-4)


def test_design_type1_prints_objective(tmp_path, capsys):
    out = tmp_path / "subband.csv"
    assert main(["design", "--type", "1", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    obj_line = [l for l in stdout.splitlines() if l.startswith("objective")]
    assert len(obj_line) == 1
    # default four-direction fit; value pinned by the library tests
    assert float(obj_line[0].split()[1]) == pytest.approx(192.348849,
                                                          rel=1e-4)
    assert len(_read_rows(out)) == 17


# ---------------------------------------------------------------------------
# pattern
# ---------------------------------------------------------------------------

def test_pattern_grid_layout(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, "grid.num_rbs = 24\n")
    cb = tmp_path / "cb.csv"
    assert main(["design", "--type", "2", "--config", cfg_path,
                 "--out", str(cb)]) == 0
    out = tmp_path / "pattern.csv"
    assert main(["pattern", str(cb), "--config", cfg_path,
                 "--angles=-10:10:5", "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert tuple(rows[0]) == ("angle_deg", "rb_index", "gain_db")
    body = rows[1:]
    assert len(body) == 5 * 24
    assert [float(r[0]) for r in body[::24]] == [-10.0, -5.0, 0.0, 5.0, 10.0]
    assert [int(r[1]) for r in body[:24]] == list(range(24))

    # spot-check one gain value against the library evaluation
    weights = import_codebook_csv(cb)
    grid = RunConfig(grid_num_rbs=24).frequency_grid()
    array = RunConfig().array_config()
    axis = np.array([axis_from_boresight_deg(-10.0)])
    expect = pattern_map(array, weights, axis, grid)[0, 0]
    assert float(body[0][2]) == pytest.approx(expect, abs=1e-3)

    # byte for byte what csv.writer writes for the same gains
    bore = np.array([-10.0, -5.0, 0.0, 5.0, 10.0])
    axis = np.array([axis_from_boresight_deg(a) for a in bore[::-1]])
    gains = pattern_map(array, weights, axis, grid)[::-1]
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(("angle_deg", "rb_index", "gain_db"))
    for deg, row in zip(bore, gains):
        writer.writerows(["%.6g" % deg, r, "%.6g" % g]
                         for r, g in enumerate(row))
    assert out.read_bytes() == want.getvalue().encode()


def test_pattern_rows_equal_the_oracle_writer(monkeypatch):
    # fallback cells (zero, scientific notation, nan) among fast-path ones,
    # over several chunks, the last one short
    bore = np.array([-90.0, -12.25, 0.0, 1e-5, 33.5, 60.0, 90.0])
    gains = np.linspace(-60.0, 30.0, 7 * 11).reshape(7, 11)
    gains[1, :4] = [0.0, 1e-5, 1e7, np.nan]
    gains[4, -1] = -0.0
    monkeypatch.setattr(cli, "PATTERN_CSV_CHUNK_CELLS", 30)
    got = io.BytesIO()
    cli.write_pattern_rows(got, bore, gains)
    want = io.BytesIO()
    write_pattern_rows_py(want, bore, gains)
    assert got.getvalue() == want.getvalue()
    assert b"-12.25,0,0\r\n-12.25,1,1e-05\r\n-12.25,2,1e+07\r\n" \
        b"-12.25,3,nan\r\n" in got.getvalue()


@pytest.mark.parametrize("num_rbs", [1, 1024])
@pytest.mark.parametrize("design_type", [1, 2])
def test_pattern_csv_equals_the_oracle_writer(tmp_path, capsys, monkeypatch,
                                              design_type, num_rbs):
    cb = tmp_path / "cb.csv"
    assert main(["design", "--type", str(design_type), "--out", str(cb)]) == 0
    # the run config as built, not parsed: a 1-RB grid leaves no JPTA share
    # for the minimum grant, which the pattern command does not need
    cfg = RunConfig(grid_num_rbs=num_rbs, grid_bandwidth_hz=1.6e9)
    monkeypatch.setattr(cli, "_load", lambda args: cfg)
    argv = ["pattern", str(cb),
            "--angles=-90:90:%s" % ("0.25" if num_rbs == 1 else "2.5")]
    assert main(argv + ["--out", str(tmp_path / "fast.csv")]) == 0
    monkeypatch.setattr(cli, "write_pattern_rows", write_pattern_rows_py)
    assert main(argv + ["--out", str(tmp_path / "oracle.csv")]) == 0
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "oracle.csv").read_bytes()
    assert fast.count(b"\r\n") == 1 + num_rbs * (721 if num_rbs == 1 else 73)


def test_pattern_logs_its_size_and_time(tmp_path, capsys, caplog):
    cb = tmp_path / "cb.csv"
    assert main(["design", "--type", "2", "--out", str(cb)]) == 0
    out = tmp_path / "pattern.csv"
    caplog.set_level(logging.INFO, logger="jpta")
    assert main(["pattern", str(cb), "--angles=-10:10:5",
                 "--out", str(out)]) == 0
    [record] = caplog.records
    assert (record.name, record.levelno) == ("jpta", logging.INFO)
    match = re.fullmatch(r"pattern: 5 angles x 264 RBs, pattern_map "
                         r"\d+\.\d{3} s, write \d+\.\d{3} s, (\d+) bytes",
                         record.getMessage())
    assert match and int(match.group(1)) == out.stat().st_size
    assert "pattern_map" not in capsys.readouterr().out


@pytest.mark.parametrize("angles", ["10:20", "5:1:1", "0:10:-1", "-95:0:5",
                                    "a:b:c", "nan:90:1", "0:nan:1",
                                    "0:10:nan", "0:10:inf", "-inf:0:1",
                                    "0:1e-300:1e-300", "-90:90:1e-300",
                                    # one angle past the cap
                                    "-90:90:%r" % (180.0 /
                                                   cli.MAX_PATTERN_ANGLES)])
def test_pattern_bad_angle_ranges_exit_2(tmp_path, capsys, angles):
    cb = tmp_path / "cb.csv"
    main(["design", "--type", "2", "--out", str(cb)])
    capsys.readouterr()
    rc = main(["pattern", str(cb), "--angles=%s" % angles,
               "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "--angles" in err


def test_pattern_angle_cap_admits_exactly_the_cap():
    # a 0.005 deg step over -90:90 builds the largest grid --angles accepts;
    # a step of 180 deg / cap would build one angle more
    assert cli._parse_angle_range("-90:90:0.005").size == \
        cli.MAX_PATTERN_ANGLES
    step = 180.0 / cli.MAX_PATTERN_ANGLES
    assert int(180.0 / step + 0.5) + 1 == cli.MAX_PATTERN_ANGLES + 1
    with pytest.raises(ConfigError,
                       match="^--angles: more than 36001 angles$"):
        cli._parse_angle_range("-90:90:%r" % step)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_both_csvs(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path,
                 "--out", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    assert "PAA mean throughput:" in stdout
    assert "JPTA mean throughput:" in stdout
    results = _read_rows(out_dir / "results.csv")
    summary = _read_rows(out_dir / "summary.csv")
    assert len(results) == 1 + 2 * 3 * 2  # header + schemes x rings x UEs
    assert len(summary) == 1 + 2 * 3


def test_sweep_logs_outages_per_scheme(tmp_path, capsys, caplog):
    # both UEs are out of reach on the 1000 km ring under both schemes; the
    # records go to the log, so stdout is unchanged
    cfg_path = _write_cfg(tmp_path, SMALL_CFG.replace("30, 100, 300",
                                                      "30, 100, 1e6"))
    caplog.set_level(logging.INFO, logger="jpta")
    assert main(["simulate", "--config", cfg_path,
                 "--out", str(tmp_path / "o")]) == 0
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("jpta", logging.INFO,
         "%s: 2 of 6 decisions are outages (3 rings x 2 UEs)" % scheme)
        for scheme in ("PAA", "JPTA")]
    assert "decisions are outages" not in capsys.readouterr().out


def test_simulate_is_deterministic(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["simulate", "--config", cfg_path, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", str(b)]) == 0
    for name in ("results.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def test_coverage_prints_and_writes(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "coverage.csv"
    assert main(["coverage", "--config", cfg_path, "--threshold", "1e6",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("coverage at") == 2
    rows = _read_rows(out)
    assert tuple(rows[0]) == ("scheme", "threshold_bps", "coverage_m",
                              "censored")
    assert [r[0] for r in rows[1:]] == ["PAA", "JPTA"]
    for r in rows[1:]:
        assert r[3] in ("true", "false")
        if r[2]:
            assert float(r[2]) > 0.0


def test_coverage_unmet_threshold(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "coverage.csv"
    assert main(["coverage", "--config", cfg_path, "--threshold", "1e15",
                 "--out", str(out)]) == 0
    assert "unmet on all rings" in capsys.readouterr().out
    rows = _read_rows(out)
    assert rows[1][2] == "" and rows[2][2] == ""


def test_coverage_censored_when_met_everywhere(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    assert main(["coverage", "--config", cfg_path, "--threshold", "1"]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("beyond last ring") == 2


def test_coverage_inside_the_rings_equals_coverage_distance(tmp_path,
                                                           capsys):
    # 1e8 bps is met at 100 m and missed at 300 m by both schemes, so both
    # coverages are crossings interpolated between those rings
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "coverage.csv"
    assert main(["coverage", "--config", cfg_path, "--threshold", "1e8",
                 "--out", str(out)]) == 0
    cfg = load_config(cfg_path)
    mcs = cfg.mcs_table()
    res = throughput_sweep(cfg.deployment(), cfg.array_config(),
                           cfg.frequency_grid(), cfg.link_model(), mcs,
                           cfg.delay_constraint(), cfg.paa_num_beams,
                           cfg.paa_sector_rad(), cfg.eesm_betas(mcs))
    lines, rows = [], []
    for scheme in ("PAA", "JPTA"):
        cov = coverage_distance(res.distances_m,
                                res.mean_throughput_bps(scheme), 1e8)
        assert not cov.censored and 100.0 < cov.distance_m < 300.0
        lines.append("%s coverage at 1e+08 bps: %.6g m"
                     % (scheme, cov.distance_m))
        rows.append([scheme, "1e+08", "%.6g" % cov.distance_m, "false"])
    assert capsys.readouterr().out.splitlines() == lines + ["wrote %s" % out]
    assert _read_rows(out)[1:] == rows


def test_coverage_nonpositive_threshold_exit_2(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    assert main(["coverage", "--config", cfg_path, "--threshold", "0"]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["inf", "-inf", "1e309", "nan"])
def test_coverage_non_finite_threshold_exit_2(tmp_path, capsys, threshold):
    # an infinite threshold used to exit 0, "unmet on all rings", with inf
    # in the CSV
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "coverage.csv"
    assert main(["coverage", "--config", cfg_path,
                 "--threshold=" + threshold, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: --threshold: must be "
                                   "positive and finite")
    assert captured.out == "" and not out.exists()


# ---------------------------------------------------------------------------
# failure modes / entry point
# ---------------------------------------------------------------------------

def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, "bogus.key = 1\n")
    assert main(["simulate", "--config", cfg_path,
                 "--out", str(tmp_path / "o")]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_nan_tx_power_exit_2_names_key(tmp_path, capsys):
    # a NaN power used to sweep to all-zero throughput and exit 0
    cfg_path = _write_cfg(tmp_path, SMALL_CFG + "link.ue_tx_power_dbm = nan\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "link.ue_tx_power_dbm" in err
    assert not (out / "results.csv").exists()


def test_undersized_jpta_share_exit_2_names_key(tmp_path, capsys):
    # 8 RBs over 4 UEs used to exit 0 with JPTA at 0 bps on every ring
    cfg_path = _write_cfg(tmp_path, "grid.num_rbs = 8\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "grid.num_rbs" in err
    assert "minimum grant" in err
    assert not (out / "results.csv").exists()


def test_inf_eesm_betas_exit_2_names_file(tmp_path, capsys):
    # all-inf betas used to exit 0 with eff_snr_db = nan on every far ring
    betas = tmp_path / "betas.csv"
    betas.write_text("index,beta\n" + "".join("%d,inf\n" % i
                                              for i in range(15)))
    cfg_path = _write_cfg(tmp_path, SMALL_CFG
                          + "link.eesm_beta_csv = %s\n" % betas)
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "betas.csv line 2" in err
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("scalar", [True, False])
def test_huge_eesm_beta_exit_2_names_key_or_file(tmp_path, capsys, scalar):
    # beta = 1e300 used to exit 0: every shifted EESM term rounded to 1, so
    # the effective SNR fell to the weakest RB's
    if scalar:
        text, named = "link.eesm_beta = 1e300\n", "link.eesm_beta: "
    else:
        betas = tmp_path / "betas.csv"
        betas.write_text("index,beta\n" + "".join(
            "%d,%s\n" % (i, "1e300" if i == 7 else "1") for i in range(15)))
        text = "link.eesm_beta_csv = %s\n" % betas
        named = "betas.csv line 9"
    cfg_path = _write_cfg(tmp_path, SMALL_CFG + text)
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and named in err and "at most" in err
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("text,command,key", [
    # the swept interval 80 +- 55 deg used to pass simulate and fail design
    # without a key
    ("design.type2.center_deg = 80\n", "design --type 2",
     "design.type2.spread_deg: swept interval"),
    ("design.type2.center_deg = 80\n", "simulate",
     "design.type2.spread_deg: swept interval"),
    pytest.param("design.type1.angles_deg = %s\n" % ", ".join(["0"] * 300),
                 "design --type 1", "design.type1.angles_deg: fewer RBs",
                 id="300-type1-angles"),
    ("link.mcs_table_csv = {tmp}/mcs.csv\n", "simulate",
     "link.mcs_table_csv: {tmp}/mcs.csv: SNR thresholds"),
    # a power whose SNRs underflow used to exit 1 with "math domain error"
    ("link.ue_tx_power_dbm = -1e300\n", "simulate",
     "link.ue_tx_power_dbm: ue_tx_power_dbm must lie in [-100, 100]"),
    # a margin of 1e15 dB used to exit 0 with 0 bps for both schemes
    ("link.mcs_margin_db = 1e15\n", "simulate",
     "link.mcs_margin_db: snr_threshold_db must lie in [-100, 100]"),
    ("link.mcs_table_csv = {tmp}/far.csv\n", "simulate",
     "link.mcs_table_csv: {tmp}/far.csv: snr_threshold_db must lie in"),
])
def test_config_input_errors_exit_2_name_key(tmp_path, capsys, text, command,
                                             key):
    (tmp_path / "mcs.csv").write_text(
        "index,spectral_efficiency,snr_threshold_db\n0,0.5,3\n1,1.0,-3\n")
    (tmp_path / "far.csv").write_text(
        "index,spectral_efficiency,snr_threshold_db\n0,0.5,3\n1,1.0,1e15\n")
    cfg_path = _write_cfg(tmp_path, text.replace("{tmp}", str(tmp_path)))
    out = tmp_path / "o"
    argv = command.split() + ["--config", cfg_path, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error: " + key.replace("{tmp}", str(tmp_path)) in err
    assert not out.exists()


@pytest.mark.parametrize("rows,match", [
    # 4 antennas for the default 16-element array
    ("".join("%d,0,0\n" % i for i in range(1, 5)), "array.num_elements"),
    ("1,0,0\n2,-2.5,0\n", "delays_s must be nonnegative"),
])
def test_bad_codebook_exit_2_names_file(tmp_path, capsys, rows, match):
    cb = tmp_path / "cb.csv"
    cb.write_text("antenna,delay_ns,phase_deg\n" + rows)
    rc = main(["pattern", str(cb), "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: %s" % cb in err and match in err


def test_internal_value_error_exits_1(tmp_path, capsys, monkeypatch):
    # only input errors are the user's: a fault inside a command is not
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast")
    monkeypatch.setattr("jpta.cli.throughput_sweep", broken)
    rc = main(["simulate", "--config", _write_cfg(tmp_path),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: operands" in err and "config error" not in err


def test_missing_codebook_exit_2(tmp_path, capsys):
    rc = main(["pattern", str(tmp_path / "absent.csv"),
               "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


def test_missing_config_file_exit_2(tmp_path, capsys):
    rc = main(["design", "--type", "2", "--config",
               str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "c.csv")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "jpta %s" % jpta.__version__ in capsys.readouterr().out


@pytest.mark.parametrize("value,level", [
    ("basic_format", logging.WARNING), ("bogus", logging.WARNING),
    ("info", logging.INFO), ("Debug", logging.DEBUG)])
def test_jpta_log_resolves_only_level_names(value, level):
    # in a fresh interpreter: under pytest the root logger already has
    # handlers, so basicConfig would not set the level at all
    script = ("import logging\nfrom jpta.cli import main\n"
              "try:\n    main(['--version'])\n"
              "except SystemExit as exc:\n"
              "    print(exc.code, logging.getLogger().level)\n")
    env = dict(os.environ, JPTA_LOG=value,
               PYTHONPATH=str(Path(jpta.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["jpta %s" % jpta.__version__,
                                       "0 %d" % level]
    assert run.stderr == ""


def test_package_import_leaves_the_cli_out():
    # the pattern CSV formatter's tables are built when jpta.cli is
    # imported, which only the command line tool needs
    script = "import sys, jpta\nprint('jpta.cli' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=str(Path(jpta.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def test_missing_required_argument_exits(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["design", "--type", "1"])  # no --out
    assert exc.value.code == 2


def test_invalid_type_choice_exits(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["design", "--type", "3", "--out", str(tmp_path / "c.csv")])
    assert exc.value.code == 2
