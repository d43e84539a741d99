"""Command line tool over the designers and the system simulation.

Subcommands: ``design`` writes a weight codebook CSV, ``pattern`` evaluates
a codebook over an angle/frequency grid, ``simulate`` writes per-user and
summary throughput CSVs, ``coverage`` reports the farthest distance meeting
a throughput threshold. All angles on this surface are boresight-relative
degrees. Exit codes: 0 success, 2 bad usage or configuration, 1 internal
error. Set JPTA_LOG=debug|info|... to raise logging verbosity.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys

import numpy as np

from . import __version__
from .antenna import axis_from_boresight_deg, pattern_map
from .codebook import design_type1, design_type2, export_codebook_csv, \
    import_codebook_csv
from .config import ConfigError, RunConfig, load_config
from .sysim import COVERAGE_CSV_HEADER, SCHEME_JPTA, SCHEME_PAA, \
    coverage_distance, throughput_sweep, write_results_csv, write_summary_csv

log = logging.getLogger("jpta")

PATTERN_CSV_HEADER = ("angle_deg", "rb_index", "gain_db")


def _load(args) -> RunConfig:
    if args.config is None:
        return RunConfig()
    return load_config(args.config)


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

def _cmd_design(args) -> int:
    cfg = _load(args)
    array = cfg.array_config()
    grid = cfg.frequency_grid()
    if args.type == 1:
        target = cfg.type1_target()
        weights, objective = design_type1(array, target, grid,
                                          cfg.delay_constraint(),
                                          cfg.design_type1_per_subcarrier)
        export_codebook_csv(weights, args.out)
        print("wrote %s (%d antennas, %d subband targets)"
              % (args.out, array.num_elements, len(target.entries)))
        print("objective %.6g" % objective)
    else:
        weights = design_type2(array, cfg.rainbow_spec(), grid)
        export_codebook_csv(weights, args.out)
        print("wrote %s (%d antennas, %.6g deg sweep about %.6g deg)"
              % (args.out, array.num_elements, cfg.design_type2_spread_deg,
                 cfg.design_type2_center_deg))
    return 0


# ---------------------------------------------------------------------------
# pattern
# ---------------------------------------------------------------------------

def _parse_angle_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("--angles: expected start:stop:step, got %r" % text)
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError("--angles: expected numbers in start:stop:step, "
                          "got %r" % text)
    if step <= 0.0:
        raise ConfigError("--angles: step must be positive")
    if stop < start:
        raise ConfigError("--angles: stop must not be below start")
    if start < -90.0 or stop > 90.0:
        raise ConfigError("--angles: range must lie within [-90, 90]")
    angles = start + step * np.arange(int((stop - start) / step + 0.5) + 1)
    return angles[angles <= stop + 1e-9 * max(1.0, step)]


def _cmd_pattern(args) -> int:
    cfg = _load(args)
    array = cfg.array_config()
    grid = cfg.frequency_grid()
    weights = import_codebook_csv(args.codebook)
    bore_deg = _parse_angle_range(args.angles)
    # boresight degrees descend as axis radians ascend; evaluate on the
    # ascending axis grid, then flip rows back to ascending degrees
    axis = np.array([axis_from_boresight_deg(a) for a in bore_deg[::-1]])
    gains = pattern_map(array, weights, axis, grid)[::-1]
    # the bytes csv.writer would write (no field needs quoting), one join
    # per angle row
    rbs = range(grid.num_rbs)
    with open(args.out, "w", newline="") as fh:
        fh.write(",".join(PATTERN_CSV_HEADER) + "\r\n")
        for deg, row in zip(bore_deg, gains.tolist()):
            deg_text = "%.6g" % deg
            fh.write("".join(["%s,%d,%.6g\r\n" % (deg_text, r, g)
                              for r, g in zip(rbs, row)]))
    print("wrote %s (%d angles x %d resource blocks)"
          % (args.out, bore_deg.size, grid.num_rbs))
    return 0


# ---------------------------------------------------------------------------
# simulate / coverage
# ---------------------------------------------------------------------------

def _run_sweep(cfg: RunConfig):
    mcs = cfg.mcs_table()
    return throughput_sweep(cfg.deployment(), cfg.array_config(),
                            cfg.frequency_grid(), cfg.link_model(), mcs,
                            cfg.delay_constraint(), cfg.paa_num_beams,
                            cfg.paa_sector_rad(), cfg.eesm_betas(mcs))


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    result = _run_sweep(cfg)
    os.makedirs(args.out, exist_ok=True)
    results_path = os.path.join(args.out, "results.csv")
    summary_path = os.path.join(args.out, "summary.csv")
    write_results_csv(result, results_path)
    write_summary_csv(result, summary_path)
    d = result.distances_m
    for scheme in (SCHEME_PAA, SCHEME_JPTA):
        mean = result.mean_throughput_bps(scheme)
        print("%s mean throughput: %.6g bps at %.6g m, %.6g bps at %.6g m"
              % (scheme, mean[0], d[0], mean[-1], d[-1]))
    print("wrote %s and %s" % (results_path, summary_path))
    return 0


def _cmd_coverage(args) -> int:
    cfg = _load(args)
    if not args.threshold > 0.0:
        raise ConfigError("--threshold: must be positive")
    result = _run_sweep(cfg)
    rows = []
    for scheme in (SCHEME_PAA, SCHEME_JPTA):
        cov = coverage_distance(result.distances_m,
                                result.mean_throughput_bps(scheme),
                                args.threshold)
        if cov.distance_m is None:
            print("%s coverage at %.6g bps: unmet on all rings"
                  % (scheme, args.threshold))
        elif cov.censored:
            print("%s coverage at %.6g bps: >= %.6g m (beyond last ring)"
                  % (scheme, args.threshold, cov.distance_m))
        else:
            print("%s coverage at %.6g bps: %.6g m"
                  % (scheme, args.threshold, cov.distance_m))
        rows.append([scheme, "%.6g" % args.threshold,
                     "" if cov.distance_m is None else "%.6g" % cov.distance_m,
                     "true" if cov.censored else "false"])
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(COVERAGE_CSV_HEADER)
            writer.writerows(rows)
        print("wrote %s" % args.out)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jpta",
        description="Phase-time array beam design and uplink evaluation.")
    parser.add_argument("--version", action="version",
                        version="jpta %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="design weights, write a codebook CSV")
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--type", type=int, choices=(1, 2), required=True,
                   help="1 = subband-target fit, 2 = frequency-swept beam")
    p.add_argument("--out", required=True, help="output codebook CSV path")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("pattern",
                       help="evaluate a codebook over angle and frequency")
    p.add_argument("codebook", help="codebook CSV from the design command")
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--angles", default="-90:90:0.5",
                   help="degrees start:stop:step (default -90:90:0.5)")
    p.add_argument("--out", required=True, help="output pattern CSV path")
    p.set_defaults(func=_cmd_pattern)

    p = sub.add_parser("simulate",
                       help="per-ring throughput for both multiplexing "
                            "schemes")
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--out", required=True,
                   help="output directory for results.csv and summary.csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("coverage",
                       help="farthest distance meeting a throughput "
                            "threshold")
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--threshold", type=float, required=True,
                   help="throughput threshold in bit/s")
    p.add_argument("--out", help="optional output CSV path")
    p.set_defaults(func=_cmd_coverage)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("JPTA_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        # bad configuration or bad input data, including unreadable files
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        log.exception("internal error")
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
