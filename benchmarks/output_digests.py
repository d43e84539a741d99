#!/usr/bin/env python3
"""SHA-256 digests of the toolkit's outputs, one ``sha256  name`` line each.

The outputs:

* the README quick-start files, written by ``cli.main`` in a temporary
  directory: ``design`` of types 1 and 2, ``pattern`` of the type-1
  codebook at 0.5 degree steps over -60:60 (the README's grid) and at 0.25
  degree steps over -90:90 (the benchmark's), ``simulate``'s
  ``results.csv`` and ``summary.csv``, and ``coverage``;
* every ``RateGrid`` column of both schemes in the criterion-4 sweeps: 8
  UEs over -55..55 degrees with 160 log rings on each path-loss exponent's
  span (2, 3 and 4, the three sweeps of the ``sweep_dense`` benchmark
  workload), and with 5120 log rings over 300-3000 m at exponent 3;
* the criterion-7 swept maps: ``pattern_map`` over 3001 axis angles of the
  type-2 designs of 30, 60 and 110 degree spread about boresight, and the
  110-degree one designed and mapped at a subcarrier spacing of 119,999.7
  Hz, whose RB centers are not integer Hz;
* raw ``pattern_map`` arrays, whose CSV text rounds to six digits: the
  quick-start type-1 design over -90:90:0.25 degrees, and one
  ``paa_codebook`` beam and ``steer_weights`` at boresight, both without
  delays, over the same 3001 axis angles;
* the delays, phases and objective of every type-1 design of the
  ``design_certify`` benchmark workload: its 48 pool targets at RB centers
  and per subcarrier, and its 2- and 4-UE share designs, so that a change
  to the designer shows which delay choices, if any, moved.

Each sweep runs twice: cold, after every table the package keeps is
cleared, and then warm, on the ring-free stage (codebook, design, gain rows
and rate-scan envelope) the cold run kept. The listing is the cold run's;
if any warm output differs from its cold one, the tool names it on stderr
and exits 1. The quick start runs cold and then warm as a whole, so its
``coverage`` runs on the stage its ``simulate`` kept, as in one process.

An array's digest covers its dtype, shape and bytes. Run the tool against
two source trees and compare the listings, for example a change against
its parent checked out in ``../parent``::

    PYTHONPATH=../parent/src python3 benchmarks/output_digests.py \
        --arrays old.npz > old.txt
    PYTHONPATH=src python3 benchmarks/output_digests.py \
        --against old.npz > new.txt
    diff old.txt new.txt

``--arrays`` also saves every array to an ``.npz`` file, and ``--against``
reads one and, after the digests, prints each array that differs from it
with its largest absolute change: a moved gain in dB, phase in rad,
objective or effective SNR in dB.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from jpta import _kernels, antenna, cli, codebook, config, link, sysim

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

ARRAY = antenna.ArrayConfig.half_wavelength(16, 28e9, 28.0)
GRID = antenna.FrequencyGrid(28e9, 400e6, 120e3, 264)
SECTOR = (antenna.axis_from_boresight_deg(60.0),
          antenna.axis_from_boresight_deg(-60.0))
UE_ANGLES_DEG = np.linspace(-55.0, 55.0, 8)
# (name, path-loss exponent, nearest and farthest ring, ring count)
SWEEPS = (("sweep_dense.beta2", 2.0, 8000.0, 120000.0, 160),
          ("sweep_dense.beta3", 3.0, 300.0, 3000.0, 160),
          ("sweep_dense.beta4", 4.0, 60.0, 500.0, 160),
          ("criterion4.5120_rings", 3.0, 300.0, 3000.0, 5120))
SPREADS_DEG = (30.0, 60.0, 110.0)
# the 264-RB grid at a subcarrier spacing whose RB centers are not integer
# Hz
OFF_GRID = antenna.FrequencyGrid(28e9, 400e6, 119_999.7, 264)
QUICKSTART_CONFIG = ("deploy.ue_angles_deg = -30, -10, 10, 30\n"
                     "deploy.ring_min_m    = 30\n"
                     "deploy.ring_max_m    = 1500\n"
                     "deploy.ring_count    = 40\n")


def quickstart_files(workdir: Path):
    """``(name, bytes)`` of each quick-start file written in ``workdir``."""
    workdir.mkdir()
    cfg = workdir / "run.cfg"
    cfg.write_text(QUICKSTART_CONFIG)
    commands = {
        "codebook_type1.csv": ["design", "--type", "1"],
        "codebook_type2.csv": ["design", "--type", "2"],
        "pattern_0.5deg.csv": ["pattern", str(workdir / "codebook_type1.csv"),
                               "--angles=-60:60:0.5"],
        "pattern_0.25deg.csv": ["pattern",
                                str(workdir / "codebook_type1.csv"),
                                "--angles=-90:90:0.25"],
        "out": ["simulate"],
        "coverage.csv": ["coverage", "--threshold", "1e6"],
    }
    for name, argv in commands.items():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--config", str(cfg),
                                    "--out", str(workdir / name)])
        if code != 0:
            raise RuntimeError("jpta %s exited %d" % (argv[0], code))
    for name in ("codebook_type1.csv", "codebook_type2.csv",
                 "pattern_0.5deg.csv", "pattern_0.25deg.csv",
                 "out/results.csv", "out/summary.csv", "coverage.csv"):
        yield "quickstart." + name, (workdir / name).read_bytes()


def sweep_columns(mismatched):
    """``(name, array)`` of every ``RateGrid`` column of ``SWEEPS``, each
    sweep run cold and then warm; appends to ``mismatched`` the name of
    each column, or of the sweep's JPTA weights, that the warm run
    changed."""
    mcs = link.McsTable.default()
    for name, exponent, lo, hi, rings in SWEEPS:
        dep = sysim.Deployment(np.radians(UE_ANGLES_DEG),
                               sysim.log_ring_grid(lo, hi, rings))
        lm = link.LinkModel(carrier_hz=28e9, path_loss_exponent=exponent)
        args = (dep, ARRAY, GRID, lm, mcs, codebook.DelayConstraint(), 16,
                SECTOR)
        _kernels.clear_kept_tables()
        res = sysim.throughput_sweep(*args)
        warm = sysim.throughput_sweep(*args)
        for field in ("delays_s", "phases_rad"):
            if digest(getattr(res.jpta_weights, field)) \
                    != digest(getattr(warm.jpta_weights, field)):
                mismatched.append("%s.jpta_weights.%s" % (name, field))
        for scheme, rates in res.rates.items():
            for field, column, again in zip(link.RateGrid._fields, rates,
                                            warm.rates[scheme]):
                column_name = "%s.%s.%s" % (name, scheme, field)
                if digest(column) != digest(again):
                    mismatched.append(column_name)
                yield column_name, column


def pattern_maps():
    """``(name, array)`` of the criterion-7 swept gain maps and of the raw
    quick-start and zero-delay maps."""
    axis_grid = np.linspace(0.02, math.pi - 0.02, 3001)
    for spread in SPREADS_DEG:
        spec = codebook.RainbowSpec(center_rad=math.pi / 2.0,
                                    spread_rad=math.radians(spread))
        weights = codebook.design_type2(ARRAY, spec, GRID)
        yield ("criterion7.spread%g.gain_db" % spread,
               antenna.pattern_map(ARRAY, weights, axis_grid, GRID))
    weights = codebook.design_type2(ARRAY, spec, OFF_GRID)
    yield ("criterion7.spread%g.scs119999.7.gain_db" % spread,
           antenna.pattern_map(ARRAY, weights, axis_grid, OFF_GRID))
    cfg = config.parse_config_text(QUICKSTART_CONFIG)
    array, grid = cfg.array_config(), cfg.frequency_grid()
    weights, _ = codebook.design_type1(array, cfg.type1_target(), grid,
                                       cfg.delay_constraint())
    bore_deg = -90.0 + 0.25 * np.arange(721)
    yield ("quickstart.type1.gain_db",
           antenna.pattern_map(array, weights, antenna.axis_from_boresight_rad(
               np.radians(bore_deg)), grid))
    beam = codebook.paa_codebook(ARRAY, 16, SECTOR)[5]
    yield ("paa_beam5.gain_db",
           antenna.pattern_map(ARRAY, beam, axis_grid, GRID))
    flat = codebook.steer_weights(ARRAY, math.pi / 2.0)
    yield ("steer_boresight.gain_db",
           antenna.pattern_map(ARRAY, flat, axis_grid, GRID))


def designs():
    """``(name, array)`` of the delays, phases and objective of every
    type-1 design of the ``design_certify`` workload: the pool targets,
    drawn from its pool seed, at RB centers and per subcarrier, then the
    2- and 4-UE share designs, as its tasks make them."""
    spec = workloads.DesignCertify
    rng = np.random.default_rng(spec.pool_seed)
    cases = []
    for k in range(spec.pool_size):
        target = workloads._random_target(rng)
        cases += [("pool%02d.rb" % k, target, False),
                  ("pool%02d.sc" % k, target, True)]
    for n, bores in spec.share_placements.items():
        target = sysim.jpta_share_target(np.radians(bores),
                                         workloads.GRID.num_rbs)[0]
        cases.append(("ues%d" % n, target, False))
    for name, target, per_subcarrier in cases:
        weights, objective = codebook.design_type1(
            workloads.ARRAY, target, workloads.GRID, workloads.DELAY,
            per_subcarrier)
        yield "design_certify.%s.delays_s" % name, weights.delays_s
        yield "design_certify.%s.phases_rad" % name, weights.phases_rad
        yield "design_certify.%s.objective" % name, np.array([objective])


def digest(value) -> str:
    """SHA-256 of bytes, or of an array's dtype, shape and bytes."""
    if isinstance(value, bytes):
        return hashlib.sha256(value).hexdigest()
    array = np.ascontiguousarray(value)
    head = "%s %s\n" % (array.dtype.str, array.shape)
    return hashlib.sha256(head.encode() + array.tobytes()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--arrays", help="save every array to this .npz")
    parser.add_argument("--against",
                        help="print each array that differs from this .npz "
                             "with its largest absolute change")
    args = parser.parse_args()
    mismatched = []
    with tempfile.TemporaryDirectory() as workdir:
        _kernels.clear_kept_tables()
        cold = list(quickstart_files(Path(workdir) / "cold"))
        warm = dict(quickstart_files(Path(workdir) / "warm"))
    for name, data in cold:
        print("%s  %s" % (digest(data), name))
        if warm[name] != data:
            mismatched.append(name)
    arrays = {}
    for outputs in (sweep_columns(mismatched), pattern_maps(), designs()):
        for name, array in outputs:
            print("%s  %s" % (digest(array), name))
            arrays[name] = array
    if args.arrays:
        np.savez(args.arrays, **arrays)
    if args.against:
        with np.load(args.against) as old:
            for name, array in arrays.items():
                if name not in old.files:
                    print("new      %s" % name)
                elif digest(old[name]) != digest(array):
                    change = np.abs(array.astype(np.float64)
                                    - old[name].astype(np.float64))
                    print("moved    %s  largest change %.3g"
                          % (name, np.nanmax(change)))
    if mismatched:
        sys.exit("warm runs differ from cold ones: " + ", ".join(mismatched))


if __name__ == "__main__":
    main()
