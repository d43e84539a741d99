"""What the benchmarks read from the package: the functions the tracer of
``perfbench/`` wraps by name, a sweep's per-decision view, one round of each
perfbench workload and every ``design_certify`` pool target against their
recorded references, the kernels and private helpers
``benchmarks/bench_kernels.py`` times, and the names that
``benchmarks/delay_study.py`` and ``benchmarks/output_digests.py``
import."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from jpta import _kernels
from jpta.antenna import ArrayConfig, FrequencyGrid, axis_from_boresight_deg
from jpta.codebook import DelayConstraint
from jpta.link import LinkModel, McsTable, RateDecision, RateGrid
from jpta.sysim import Deployment, throughput_sweep

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    # by path: neither perfbench nor benchmarks is a package
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_its_module():
    layers = _load("perfbench_tracer", ROOT / "perfbench" / "tracer.py").LAYERS
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module("jpta." + layer)
        for name in names:
            assert callable(getattr(module, name, None)), (layer, name)
    # the harness also records the kernels' backend name
    assert isinstance(_kernels.backend(), str)


def _bits(value):
    return (type(value), value.hex() if isinstance(value, float) else value)


def test_decisions_view_equals_the_rate_grid_columns():
    # near, middle and out-of-reach rings, so outages are in the view; more
    # rings than UEs, so a transposed view cannot match
    dep = Deployment(ue_angles_rad=np.radians([-40.0, 5.0, 35.0]),
                     ring_distances_m=np.array([30.0, 300.0, 700.0, 1e6]))
    sector = (axis_from_boresight_deg(60.0), axis_from_boresight_deg(-60.0))
    res = throughput_sweep(dep, ArrayConfig.half_wavelength(16, 28e9, 28.0),
                           FrequencyGrid(28e9, 400e6, 120e3, 24),
                           LinkModel(carrier_hz=28e9), McsTable.default(),
                           DelayConstraint(), 16, sector)
    decisions = res.decisions
    assert list(decisions) == list(res.rates)
    for scheme, rates in res.rates.items():
        assert isinstance(rates, RateGrid)
        view = decisions[scheme]
        assert [len(ring) for ring in view] == [3] * 4
        assert all(isinstance(d, RateDecision) for ring in view for d in ring)
        assert rates.outage[-1].all() and not rates.outage[0].any()
        for field, column in zip(RateGrid._fields, rates):
            want = [[_bits(v) for v in ring] for ring in column.tolist()]
            got = [[_bits(getattr(d, field)) for d in ring] for ring in view]
            assert got == want, (scheme, field)


def test_every_kernel_bench_runs_once():
    # the table reaches private names (codebook._delay_twiddles,
    # _kernels.*) that no other test calls this way; each timed call runs
    # once, the oracles, which take seconds, never
    benches = _load("bench_kernels",
                    ROOT / "benchmarks" / "bench_kernels.py").BENCHES
    assert benches
    for _, kernel, _, make_args, _ in benches:
        kernel(*make_args())


def test_every_perfbench_workload_round_matches_its_references(tmp_path,
                                                              monkeypatch):
    # one round of each workload as the benchmark worker runs it: set-up,
    # warm-up, then tasks checked against references.json. The workloads
    # import the harness by name, as they do from their own directory
    harness = _load("harness", ROOT / "perfbench" / "harness.py")
    monkeypatch.setitem(sys.modules, "harness", harness)
    workloads = _load("perfbench_workloads",
                      ROOT / "perfbench" / "workloads.py").WORKLOADS
    assert list(workloads) == ["sweep_dense", "cli_quickstart",
                               "design_certify"]
    for name, cls in workloads.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload = cls(1, workdir)
        workload.warm_up()
        references = harness.load_references(name)
        for i in range(workload.tasks_per_round):
            outputs, problems = workload.outputs(i, workload.run(i))
            assert outputs
            assert problems + harness.compare(outputs, references) == [], \
                (name, i)


def test_design_certify_whole_pool_matches_its_references(tmp_path,
                                                          monkeypatch):
    # every task of design_certify until its seeded order has drawn each
    # of the 48 pool targets once, at RB centers and per subcarrier, with
    # the share targets and the swept beams of every task: each output
    # against references.json, where one round checks 4 of the targets
    harness = _load("harness", ROOT / "perfbench" / "harness.py")
    monkeypatch.setitem(sys.modules, "harness", harness)
    cls = _load("perfbench_workloads",
                ROOT / "perfbench" / "workloads.py").WORKLOADS[
                    "design_certify"]
    workload = cls(1, tmp_path)
    references = harness.load_references(cls.name)
    tasks = cls.pool_size // cls.targets_per_task
    checked = set()
    for i in range(tasks):
        outputs, problems = workload.outputs(i, workload.run(i))
        assert problems + harness.compare(outputs, references) == [], i
        checked.update(outputs)
    pool = {"pool%02d.%s.%s" % (k, tag, figure)
            for k in range(cls.pool_size) for tag in ("rb", "sc")
            for figure in ("objective", "dip_db")}
    # two figures per share target, three per swept beam
    others = (2 * len(cls.share_placements)
              + 3 * len(cls.rainbow_spreads_deg))
    assert pool <= checked and len(checked) == len(pool) + others


def test_delay_study_imports_without_running():
    # loading the study resolves every name it imports from the package;
    # its table runs only under __main__
    study = _load("delay_study", ROOT / "benchmarks" / "delay_study.py")
    assert callable(study.main)


def test_output_digests_imports_without_running():
    # loading the tool resolves every name it imports from the package;
    # it computes its outputs only under __main__
    tool = _load("output_digests",
                 ROOT / "benchmarks" / "output_digests.py")
    assert callable(tool.main)
