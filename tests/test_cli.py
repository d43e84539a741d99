"""End-to-end command line checks driving jpta.cli.main in-process."""

import csv
import io

import numpy as np
import pytest

import jpta
from jpta.antenna import axis_from_boresight_deg, pattern_map
from jpta.cli import main
from jpta.codebook import design_type2, import_codebook_csv
from jpta.config import RunConfig

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


@pytest.mark.parametrize("angles", ["10:20", "5:1:1", "0:10:-1", "-95:0:5",
                                    "a:b:c"])
def test_pattern_bad_angle_ranges_exit_2(tmp_path, capsys, angles):
    cb = tmp_path / "cb.csv"
    main(["design", "--type", "2", "--out", str(cb)])
    capsys.readouterr()
    rc = main(["pattern", str(cb), "--angles=%s" % angles,
               "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


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


def test_coverage_nonpositive_threshold_exit_2(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    assert main(["coverage", "--config", cfg_path, "--threshold", "0"]) == 2
    assert "config error:" in capsys.readouterr().err


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


def test_missing_required_argument_exits(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["design", "--type", "1"])  # no --out
    assert exc.value.code == 2


def test_invalid_type_choice_exits(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["design", "--type", "3", "--out", str(tmp_path / "c.csv")])
    assert exc.value.code == 2
