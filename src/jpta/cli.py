"""Command line tool over the designers and the system simulation.

Subcommands: ``design`` writes a weight codebook CSV, ``pattern`` evaluates
a codebook over an angle/frequency grid, ``simulate`` writes per-user and
summary throughput CSVs, ``coverage`` reports the farthest distance meeting
a throughput threshold. All angles on this surface are boresight-relative
degrees. Exit codes: 0 success, 2 bad usage, configuration or input file,
1 internal error. Set JPTA_LOG=debug|info|... to raise logging verbosity.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
import time

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

# pattern cells per chunk of CSV rows: a chunk's byte buffer takes about
# 1 MB at 264 RBs
PATTERN_CSV_CHUNK_CELLS = 1 << 15

# angle count cap of --angles: a 0.005 deg step over -90:90, which bounds
# the gain map at about 0.3 GB at the 1024-RB cap
MAX_PATTERN_ANGLES = 36_001


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
    # chained comparisons so that NaN and infinities fail too
    if not 0.0 < step < np.inf:
        raise ConfigError("--angles: step must be positive and finite")
    if not -90.0 <= start <= stop <= 90.0:
        raise ConfigError("--angles: need -90 <= start <= stop <= 90")
    # counted before the grid is built, which could exhaust memory
    steps = (stop - start) / step + 0.5
    if steps >= MAX_PATTERN_ANGLES:
        raise ConfigError("--angles: more than %d angles"
                          % MAX_PATTERN_ANGLES)
    angles = start + step * np.arange(int(steps) + 1)
    return angles[angles <= stop + 1e-9 * max(1.0, step)]


# bytes per formatted value: sign, the "0.000" prefix of the smallest fixed
# notation, then six digits with a decimal point slot after each but the last
G6_SLOT = 17

# the decades 1e-4 ... 1e5 of the fixed notation; each literal lies above its
# exact power of ten, so a float compares with it as its exact value does
_G6_DECADES = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5)
# exact powers of ten that scale decade e to [1e5, 1e6), by decade index
_G6_SCALES = np.array([float(10 ** (9 - i)) for i in range(10)])
# a product within this of a rounding half goes to "%.6g". The product is
# rounded by at most half an ulp, 2**-34 in [1e5, 1e6], and rounding is
# monotone with every half a float, so only a product that lands on a half is
# undecided; the margin keeps the fast path at least 8 ulps clear of it
_G6_HALF_MARGIN = 1e-9
_G6_PREFIX = b"0.000"
# per three-digit group 0..999: its digit characters, shape (3, 1000), and
# the number of trailing zeros of its three digits
_G6_GROUPS = np.arange(1000)
_G6_DIGITS = (_G6_GROUPS // np.array([[100], [10], [1]]) % 10
              + ord("0")).astype(np.uint8)
_G6_TRAILING = ((_G6_GROUPS % 10 == 0).astype(np.int8)
                + (_G6_GROUPS % 100 == 0) + (_G6_GROUPS == 0))


def format_g6(values, out=None):
    """``"%.6g" % v`` of every float in ``values`` as ASCII bytes, one row of
    ``G6_SLOT`` bytes per value with NUL bytes wherever a slot has no
    character; dropping the NULs leaves the text. Shape ``(values.size,
    G6_SLOT)``, uint8; ``out``, if given, is filled and returned, and may be
    a strided view into a larger buffer.

    Fast path, for ``1e-4 <= |v| < 1e6`` (the fixed notation of ``%g``): the
    decade e is found against exact decade bounds, ``q = |v| * 10**(5 - e)``
    in ``[1e5, 1e6)`` is one correctly rounded product with an exact power of
    ten, and the six significant digits are those of ``rint(q)`` (a carry to
    1e6 moves to the next decade). The slot is then filled from masks: the
    sign, the ``0.000`` prefix of a negative decade, and six digit and five
    point slots, with trailing zeros of the fraction dropped as ``%g`` drops
    them. Each slot byte is filled for all values at once, as one row of a
    byte-major table that is transposed at the end.

    Every other value goes through Python's ``"%.6g" % v``: zeros, non-finite
    values, the scientific range, a q within ``_G6_HALF_MARGIN`` of a
    rounding half (whose exact decimal tie rule the product cannot decide),
    and a carry out of the fixed range (999999.5 prints ``1e+06``).
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    mag = np.abs(v)
    fast = mag < 1e6
    fast &= mag >= 1e-4
    mag[~fast] = 1.0
    # decade index 1..10 of decades 1e-4 ... 1e5, then the decade e itself
    e = np.zeros(v.size, dtype=np.int8)
    for bound in _G6_DECADES:
        e += mag >= bound
    q = mag * _G6_SCALES[e - 1]
    e -= 5
    mant = np.rint(q)
    q -= mant  # the rounding remainder
    fast &= np.abs(q) < 0.5 - _G6_HALF_MARGIN
    mant = mant.astype(np.int32)
    carry = mant == 1_000_000
    mant[carry] = 100_000
    e += carry
    fast &= e < 6
    high, low = np.divmod(mant, 1000)
    # index of the last nonzero digit, and of the last digit printed
    last = 5 - _G6_TRAILING[low]
    last[low == 0] = 2 - _G6_TRAILING[high[low == 0]]
    shown = np.maximum(e, last)
    point = np.where(last > e, e, -1)
    slot = np.zeros((G6_SLOT, v.size), dtype=np.uint8)
    slot[0] = np.signbit(v)
    slot[0] *= ord("-")
    # "0." from decade -1 down, and one more "0" per decade below
    depth = -e
    for j, char in enumerate(_G6_PREFIX):
        np.multiply(depth > max(j - 1, 0), np.uint8(char), out=slot[1 + j])
    digits = np.concatenate((np.take(_G6_DIGITS, high, axis=1),
                             np.take(_G6_DIGITS, low, axis=1)))
    for i in range(6):
        np.multiply(digits[i], shown >= i, out=slot[6 + 2 * i])
    for i in range(5):
        np.multiply(point == i, np.uint8(ord(".")), out=slot[7 + 2 * i])
    if out is None:
        out = np.empty((v.size, G6_SLOT), dtype=np.uint8)
    out[...] = slot.T
    for i in np.flatnonzero(~fast).tolist():
        text = ("%.6g" % v[i]).encode()
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out


def write_pattern_rows(fh, bore_deg, gains) -> None:
    """Write the pattern CSV rows ``angle,rb,gain`` to the binary file
    ``fh``: gains row a at angle ``bore_deg[a]``, one row per RB, both
    numbers as ``"%.6g"`` and CRLF line ends, the bytes csv.writer writes
    (no field needs quoting).

    Rows are built a chunk of about ``PATTERN_CSV_CHUNK_CELLS`` cells at a
    time in one byte buffer of fixed-width fields per cell: the angle text,
    the ``,rb,`` text, the gain's ``format_g6`` slot and CRLF, each padded
    with NUL bytes, which are dropped before the chunk is written. The RB
    and CRLF fields are the same in every chunk and are filled once.
    """
    num_rbs = gains.shape[1]
    angle_text = [("%.6g" % deg).encode() for deg in bore_deg.tolist()]
    rb_text = [(",%d," % r).encode() for r in range(num_rbs)]
    angle_slots = _padded(angle_text)
    rb_at = angle_slots.shape[1]
    gain_at = rb_at + max(map(len, rb_text))
    rows = max(1, PATTERN_CSV_CHUNK_CELLS // num_rbs)
    buf = np.empty((min(rows, len(angle_text)), num_rbs,
                    gain_at + G6_SLOT + 2), dtype=np.uint8)
    buf[:, :, rb_at:gain_at] = _padded(rb_text)
    buf[:, :, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    # one cell per row, the view format_g6 fills
    flat = buf.reshape(-1, buf.shape[2])
    for a0 in range(0, len(angle_text), rows):
        block = gains[a0:a0 + rows]
        buf[:len(block), :, :rb_at] = angle_slots[a0:a0 + rows, None]
        cells = flat[:block.size]
        format_g6(block, out=cells[:, gain_at:-2])
        fh.write(cells.tobytes().translate(None, b"\0"))


def _padded(texts) -> np.ndarray:
    """Byte strings as the rows of a uint8 array, padded with NUL bytes."""
    width = max(map(len, texts))
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts),
                         dtype=np.uint8).reshape(len(texts), width)


def _cmd_pattern(args) -> int:
    cfg = _load(args)
    array = cfg.array_config()
    grid = cfg.frequency_grid()
    try:
        weights = import_codebook_csv(args.codebook)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if weights.num_elements != array.num_elements:
        raise ConfigError("%s: %d antennas, but array.num_elements is %d"
                          % (args.codebook, weights.num_elements,
                             array.num_elements))
    bore_deg = _parse_angle_range(args.angles)
    # boresight degrees descend as axis radians ascend; evaluate on the
    # ascending axis grid, then flip rows back to ascending degrees
    axis = np.array([axis_from_boresight_deg(a) for a in bore_deg[::-1]])
    if np.any(np.diff(axis) <= 0.0):
        raise ConfigError("--angles: step too small to tell angles apart")
    start = time.perf_counter()
    gains = pattern_map(array, weights, axis, grid)[::-1]
    mapped = time.perf_counter()
    with open(args.out, "wb") as fh:
        fh.write((",".join(PATTERN_CSV_HEADER) + "\r\n").encode())
        write_pattern_rows(fh, bore_deg, gains)
        size = fh.tell()
    log.info("pattern: %d angles x %d RBs, pattern_map %.3f s, write %.3f s, "
             "%d bytes", bore_deg.size, grid.num_rbs, mapped - start,
             time.perf_counter() - mapped, size)
    print("wrote %s (%d angles x %d resource blocks)"
          % (args.out, bore_deg.size, grid.num_rbs))
    return 0


# ---------------------------------------------------------------------------
# simulate / coverage
# ---------------------------------------------------------------------------

def _run_sweep(cfg: RunConfig):
    mcs = cfg.mcs_table()
    result = throughput_sweep(cfg.deployment(), cfg.array_config(),
                              cfg.frequency_grid(), cfg.link_model(), mcs,
                              cfg.delay_constraint(), cfg.paa_num_beams,
                              cfg.paa_sector_rad(), cfg.eesm_betas(mcs))
    for scheme in (SCHEME_PAA, SCHEME_JPTA):
        outage = result.rates[scheme].outage
        log.info("%s: %d of %d decisions are outages (%d rings x %d UEs)",
                 scheme, outage.sum(), outage.size, *outage.shape)
    return result


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
    if not 0.0 < args.threshold < np.inf:
        raise ConfigError("--threshold: must be positive and finite")
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
    # a level name maps to its number; any other text, a logging attribute
    # such as BASIC_FORMAT included, leaves the default
    level = logging.getLevelName(os.environ.get("JPTA_LOG", "").upper())
    logging.basicConfig(level=level if isinstance(level, int)
                        else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        # bad configuration or bad input data, including unreadable files
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        log.exception("internal error")
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
