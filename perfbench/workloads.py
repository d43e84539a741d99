"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``__init__``, makes one
untimed ``warm_up`` call, then runs ``run(i)`` as its timed task ``i``.
``outputs(i, result)`` turns a task's result into named outputs, checked
against ``references.json``, plus any problems found directly (a non-zero
exit code). ``tasks_per_round`` tasks make one complete input mix, and
``outputs_per_task`` counts the checked outputs each task returns: rate
decisions on the sweep workloads, certified designs on ``design_certify``.

The functions under test are looked up through their modules at call time
(``sysim.throughput_sweep``), so the tracer's wrappers are reached.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
from pathlib import Path

import numpy as np

from jpta import antenna, codebook, link, sysim

from harness import sha256_file

# reference system of the acceptance suite
ARRAY = antenna.ArrayConfig.half_wavelength(16, 28e9, 28.0)
GRID = antenna.FrequencyGrid(28e9, 400e6, 120e3, 264)
DELAY = codebook.DelayConstraint()
MCS = link.McsTable.default()
SECTOR = (antenna.axis_from_boresight_deg(60.0),
          antenna.axis_from_boresight_deg(-60.0))
PAA_BEAMS = 16
COVERAGE_THRESHOLD_BPS = 1e6
SCHEMES = (sysim.SCHEME_PAA, sysim.SCHEME_JPTA)


class SweepDense:
    """Criterion-4 deployment: 8 UEs, exponents 2, 3 and 4, one exponent per
    task, each sweep followed by coverage at 1 Mbit/s for both schemes."""

    name = "sweep_dense"
    # 4x the 40 rings of cli_quickstart, so per-ring cost dominates
    num_rings = 160
    ring_spans = {2.0: (8000.0, 120000.0), 3.0: (300.0, 3000.0),
                  4.0: (60.0, 500.0)}
    ue_angles_deg = np.linspace(-55.0, 55.0, 8)
    tasks_per_round = 3

    def __init__(self, seed: int, workdir: Path):
        order = np.random.default_rng(seed).permutation(len(self.ring_spans))
        self.exponents = [list(self.ring_spans)[k] for k in order]
        angles = np.radians(self.ue_angles_deg)
        self.cases = {
            exponent: (sysim.Deployment(angles,
                                        sysim.log_ring_grid(lo, hi,
                                                            self.num_rings)),
                       link.LinkModel(carrier_hz=28e9,
                                      path_loss_exponent=exponent))
            for exponent, (lo, hi) in self.ring_spans.items()}
        self.outputs_per_task = len(SCHEMES) * self.num_rings * angles.size

    @staticmethod
    def _sweep(dep, lm):
        res = sysim.throughput_sweep(dep, ARRAY, GRID, lm, MCS, DELAY,
                                     PAA_BEAMS, SECTOR)
        cov = {s: sysim.coverage_distance(dep.ring_distances_m,
                                          res.mean_throughput_bps(s),
                                          COVERAGE_THRESHOLD_BPS)
               for s in SCHEMES}
        return res, cov

    def warm_up(self):
        dep, lm = self.cases[self.exponents[0]]
        self._sweep(sysim.Deployment(dep.ue_angles_rad,
                                     dep.ring_distances_m[:2]), lm)

    def run(self, i: int):
        exponent = self.exponents[i % len(self.exponents)]
        return exponent, self._sweep(*self.cases[exponent])

    def outputs(self, i: int, result):
        exponent, (res, cov) = result
        key = "beta%g" % exponent
        grants = np.array([[d.mcs_index, d.num_rbs]
                           for s in SCHEMES for ring in res.decisions[s]
                           for d in ring], dtype=np.int64)
        out = {key + ".grants_sha256": hashlib.sha256(grants.tobytes())
               .hexdigest()}
        if all(c.distance_m is not None and not c.censored
               for c in cov.values()):
            out[key + ".coverage_ratio"] = (cov[sysim.SCHEME_JPTA].distance_m
                                            / cov[sysim.SCHEME_PAA].distance_m)
        else:
            out[key + ".coverage_ratio"] = "crossing not bracketed"
        return out, []


class CliQuickstart:
    """README quick-start config through in-process ``cli.main``: design,
    pattern over 721 angles, simulate, coverage. The config is fixed, so the
    seed changes nothing; the five output files are pinned by digest."""

    name = "cli_quickstart"
    config_text = ("deploy.ue_angles_deg = -30, -10, 10, 30\n"
                   "deploy.ring_min_m    = 30\n"
                   "deploy.ring_max_m    = 1500\n"
                   "deploy.ring_count    = 40\n")
    tasks_per_round = 1

    def __init__(self, seed: int, workdir: Path):
        self.cli = importlib.import_module("jpta.cli")
        self.dir = Path(workdir)
        config = self.dir / "run.cfg"
        config.write_text(self.config_text)
        self.files = {name: self.dir / name for name in (
            "codebook.csv", "pattern.csv", "results.csv", "summary.csv",
            "coverage.csv")}
        cfg = str(config)
        self.commands = [
            ["design", "--type", "1", "--config", cfg,
             "--out", str(self.files["codebook.csv"])],
            ["pattern", str(self.files["codebook.csv"]), "--config", cfg,
             "--angles=-90:90:0.25", "--out", str(self.files["pattern.csv"])],
            ["simulate", "--config", cfg, "--out", str(self.dir)],
            ["coverage", "--config", cfg, "--threshold", "1e6",
             "--out", str(self.files["coverage.csv"])],
        ]
        # simulate and coverage each sweep 40 rings x 4 UEs for two schemes
        self.outputs_per_task = 2 * len(SCHEMES) * 40 * 4

    def _main(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def warm_up(self):
        self._main(["design", "--type", "1", "--config",
                    str(self.dir / "run.cfg"),
                    "--out", str(self.dir / "warm_up.csv")])

    def run(self, i: int):
        return [self._main(argv) for argv in self.commands]

    def outputs(self, i: int, codes):
        problems = ["jpta %s exited %d" % (argv[0], code)
                    for argv, code in zip(self.commands, codes) if code != 0]
        out = {}
        for name, path in self.files.items():
            if path.exists():
                out[name] = sha256_file(path)
                path.unlink()  # the next task must write it afresh
            else:
                problems.append("%s was not written" % name)
        return out, problems


def _random_target(rng) -> codebook.Type1Target:
    """Criterion-6 style target: 2-16 directions on random contiguous RB
    cuts, directions in descending boresight angle."""
    k = int(rng.integers(2, 17))
    bores = np.sort(rng.uniform(-55.0, 55.0, k))[::-1]
    cuts = np.sort(rng.choice(np.arange(1, GRID.num_rbs), size=k - 1,
                              replace=False))
    bounds = [0] + [int(c) for c in cuts] + [GRID.num_rbs]
    return codebook.Type1Target(entries=tuple(
        (antenna.axis_from_boresight_deg(float(b)), (bounds[j], bounds[j + 1]))
        for j, b in enumerate(bores)))


class DesignCertify:
    """Designer and pattern-grid work with no link calls: seeded type-1
    targets at RB centers and per subcarrier, the criterion-2 designs and the
    criterion-7 swept beams, each certified by ``pattern_map``."""

    name = "design_certify"
    # targets come from a fixed pool so each has a recorded reference; the
    # seed picks the order in which the pool is drawn
    pool_seed = 20250201
    pool_size = 48
    targets_per_task = 4
    share_placements = {2: (-30.0, 30.0), 4: (-30.0, -10.0, 10.0, 30.0)}
    rainbow_spreads_deg = (30.0, 60.0, 110.0)
    tasks_per_round = 1

    def __init__(self, seed: int, workdir: Path):
        pool_rng = np.random.default_rng(self.pool_seed)
        self.pool = [_random_target(pool_rng) for _ in range(self.pool_size)]
        self.order = np.random.default_rng(seed).permutation(self.pool_size)
        self.share_targets = {
            n: sysim.jpta_share_target(np.radians(bores), GRID.num_rbs)[0]
            for n, bores in self.share_placements.items()}
        self.rainbows = {
            spread: codebook.RainbowSpec(center_rad=math.pi / 2.0,
                                         spread_rad=math.radians(spread))
            for spread in self.rainbow_spreads_deg}
        self.axis_grid = np.linspace(0.02, math.pi - 0.02, 3001)
        self.outputs_per_task = (2 * self.targets_per_task
                                 + len(self.share_targets)
                                 + len(self.rainbows))

    @staticmethod
    def _type1(target, per_subcarrier: bool):
        """Objective and worst in-band dip below peak of one design."""
        weights, objective = codebook.design_type1(ARRAY, target, GRID, DELAY,
                                                   per_subcarrier)
        # entries ascend in axis angle, so one grid row per entry
        angles = np.array([angle for angle, _ in target.entries])
        gains = antenna.pattern_map(ARRAY, weights, angles, GRID)
        dip = max(ARRAY.peak_gain_db - float(gains[j, start:stop].min())
                  for j, (_, (start, stop)) in enumerate(target.entries))
        return objective, dip

    def _swept(self, spec):
        """Criterion-7 figures: pointing monotone in frequency, covered
        share of the spread, and peak-gain variation across the band."""
        weights = codebook.design_type2(ARRAY, spec, GRID)
        gains = antenna.pattern_map(ARRAY, weights, self.axis_grid, GRID)
        pointing = self.axis_grid[np.argmax(gains, axis=0)]
        diffs = np.diff(pointing)
        monotone = bool(np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12))
        peaks = gains.max(axis=0)
        return (monotone,
                float(pointing.max() - pointing.min()) / spec.spread_rad,
                float(peaks.max() - peaks.min()))

    def warm_up(self):
        self._type1(self.pool[self.order[0]], False)

    def run(self, i: int):
        out = {}
        for slot in range(self.targets_per_task):
            k = int(self.order[(i * self.targets_per_task + slot)
                               % self.pool_size])
            for per_sc, tag in ((False, "rb"), (True, "sc")):
                prefix = "pool%02d.%s." % (k, tag)
                (out[prefix + "objective"],
                 out[prefix + "dip_db"]) = self._type1(self.pool[k], per_sc)
        for n, target in self.share_targets.items():
            out["ues%d.objective" % n], out["ues%d.dip_db" % n] = \
                self._type1(target, False)
        for spread, spec in self.rainbows.items():
            monotone, span, peak_var = self._swept(spec)
            prefix = "spread%g." % spread
            out[prefix + "monotone"] = "true" if monotone else "false"
            out[prefix + "span_frac"] = span
            out[prefix + "peak_var_db"] = peak_var
        return out

    def outputs(self, i: int, out):
        return out, []


WORKLOADS = {w.name: w for w in (SweepDense, CliQuickstart, DesignCertify)}
