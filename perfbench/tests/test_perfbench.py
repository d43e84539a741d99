"""Tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]), B [5, 7] and D [8, 9]
    spans = [["A", -1, 0.0, 10.0], ["B", 0, 1.0, 4.0], ["C", 1, 2.0, 3.0],
             ["B", 0, 5.0, 7.0], ["D", 0, 8.0, 9.0]]
    summary = tracing.summarize(spans)
    stats = summary["stats"]
    assert stats["A"] == {"calls": 1, "busy_s": 10.0, "self_s": 4.0}
    assert stats["B"] == {"calls": 2, "busy_s": 5.0, "self_s": 4.0}
    assert stats["C"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}
    assert stats["D"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}
    assert summary["by_parent"][("B", "A")] == 5.0
    assert summary["by_parent"][("A", None)] == 10.0
    assert summary["durations"]["B"] == [3.0, 2.0]


def test_wrapped_calls_record_nested_spans():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    # outer opens at 0, inner spans [1, 2], outer closes at 3
    assert tracer.spans == [["outer", -1, 0.0, 3.0], ["inner", 0, 1.0, 2.0]]
    assert tracing.summarize(tracer.spans)["stats"]["outer"]["self_s"] == 2.0


def test_run_for_scales_each_task_by_speed_around_it():
    ticks = itertools.count()
    speeds = iter([1.0, 3.0, 1.0])
    records = harness.run_for(lambda i: i, lambda i, result: [], 3.5,
                              clock=lambda: float(next(ticks)),
                              speed=lambda: next(speeds))
    # each task takes one tick; the speed factors around it average to 2
    assert [(r["seconds"], r["scaled_s"]) for r in records] == [
        (1.0, 0.5), (1.0, 0.5)]


def test_corrupted_reference_digest_counts_as_failure(tmp_path, monkeypatch):
    references = json.loads(harness.REFERENCES_PATH.read_text())
    digest = references["cli_quickstart"]["results.csv"]
    references["cli_quickstart"]["results.csv"] = digest[::-1]
    corrupted = tmp_path / "references.json"
    corrupted.write_text(json.dumps(references))
    monkeypatch.setattr(harness, "REFERENCES_PATH", corrupted)
    workdir = tmp_path / "work"
    workdir.mkdir()
    result = tmp_path / "result.json"
    assert worker.main([
        "--workload", "cli_quickstart", "--seed", "0", "--seconds", "0",
        "--mode", "run", "--workdir", str(workdir), "--root", str(ROOT),
        "--result", str(result)]) == 0
    report = json.loads(result.read_text())
    assert len(report["task_s"]) == 1
    assert report["failed"] == 1
    assert [p.split(":")[0] for p in report["problems"]] == ["results.csv"]


def test_compare_checks_every_output():
    refs = {"ratio": 1.5, "digest": "ab"}
    assert harness.compare({"ratio": 1.5 + 1e-13, "digest": "ab"}, refs) == []
    assert len(harness.compare({"ratio": 1.5 + 1e-9}, refs)) == 1
    assert len(harness.compare({"digest": "ba"}, refs)) == 1
    assert len(harness.compare({"unpinned": 0.0}, refs)) == 1


def test_wrappers_reached_from_sysim_and_cli_call_sites(tmp_path):
    import jpta.cli
    import jpta.link
    import jpta.sysim

    original = jpta.link.select_rate
    config = tmp_path / "run.cfg"
    config.write_text("deploy.ue_angles_deg = -20, 20\n"
                      "deploy.distances_m = 100, 400\n")
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert jpta.cli.main(["simulate", "--config", str(config),
                              "--out", str(tmp_path)]) == 0
    finally:
        uninstall()
    assert jpta.sysim.select_rate is original
    stats = tracing.summarize(tracer.spans)["stats"]
    calls = {name: s["calls"] for name, s in stats.items()}
    # cli binds throughput_sweep and load_config at import; sysim binds
    # select_rate at import and looks run_paa/run_jpta up as globals
    for name in ("cli.main", "config.load_config", "sysim.throughput_sweep",
                 "sysim.run_paa", "sysim.run_jpta", "sysim.write_results_csv",
                 "codebook.design_type1", "codebook.paa_codebook"):
        assert calls[name] == 1, name
    assert calls["link.select_rate"] == 2 * 2 * 2  # schemes x rings x UEs
    assert calls["antenna.beam_gain_db"] == 2 * 16  # UEs x PAA beams
    # PAA scans all 264 RBs, JPTA each UE's 132-RB share, from n = 4 up
    assert tracer.counts["link.rate_candidates"] == 4 * 261 + 4 * 129

