"""Tests of the benchmark itself: BENCHMARK.json against the harness, span
self-time arithmetic, shortened runs of every workload through the harness,
and gates that must fail on a wrong expected value.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS, CheckGate, SimulationGate, SweepGate

ROOT = Path(__file__).resolve().parent.parent

SHORT = {
    "check-n5": dict(args=("check", "--K", "6", "--N", "3"),
                     gate=CheckGate(n_vectors=1288, tightest_lhs=0.1736111111111111)),
    "fig1": dict(args=("simulate", "--steps", "2500"),
                 gate=SimulationGate(samples=1251, spectrum_rows=1251 * 32)),
    "dense-2d": dict(args=("simulate", "--d", "2", "--K", "4", "--scheme",
                           "strang-nonlinear-outside", "--steps", "200", "--cadence", "1"),
                     gate=SimulationGate(samples=201, spectrum_rows=201 * 64)),
    "sweep-k12": dict(args=("sweep", "--K", "12", "--N", "3",
                            "--h", "0.042,0.06", "--rho2", "0.2,0.6"),
                      gate=SweepGate(verdicts={(0.042, 0.2): ("true", "false"),
                                               (0.042, 0.6): ("false", "skipped"),
                                               (0.06, 0.2): ("true", "true"),
                                               (0.06, 0.6): ("false", "skipped")})),
}


def short(name: str, **gate_changes) -> run.Workload:
    """The workload with a shortened command line and its matching gate."""
    spec = dict(SHORT[name])
    spec["gate"] = dataclasses.replace(spec["gate"], **gate_changes)
    return dataclasses.replace(WORKLOADS[name], **spec)


def test_benchmark_json_names_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert len(bench["workloads"]) >= 2
    for w in bench["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"]) <= 0.25
    for m in bench["end_to_end"] + bench["per_layer"] + bench["workloads"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
    for w in bench["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def _span(sid, parent, start, end, thread=1, name="cli.main", info=None):
    return spans.Span(sid, name, parent, "r", thread, start, end, start, end, info)


def test_self_time_subtracts_union_of_same_thread_children():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 5.0),      # overlaps span 1: the union counts once
        _span(3, 0, 9.0, 12.0),     # runs past its parent: clipped at 10
        _span(4, 0, 0.0, 10.0, thread=2),   # another thread: not subtracted
        _span(5, 1, 1.5, 2.0),
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(1.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(10.0)
    assert own[5] == pytest.approx(0.5)
    assert spans.covered_length([(1, 3), (2, 5), (4, 6)], 0, 10) == pytest.approx(5.0)


def test_layer_figures_split_step_from_observer():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 9.0, name="integrator.integrate", info={"steps": 100}),
        _span(2, 1, 2.0, 3.0, name="diagnostics.observe"),
        _span(3, 2, 2.0, 2.5, name="spectral.mass"),
        _span(4, 1, 4.0, 5.0, name="diagnostics.observe"),
        _span(5, 0, 9.0, 10.0, name="stability.check_assumption2",
              info={"vectors": 7, "early_exit": True}),
    ]
    f = spans.layer_figures(tree)
    assert f["steps"] == 100 and f["samples"] == 2
    assert f["step_self_s"] == pytest.approx(6.0)
    assert f["observe_s"] == pytest.approx(2.0)
    assert f["diagnostics.self_s"] == pytest.approx(1.5)
    assert f["spectral.self_s"] == pytest.approx(0.5)
    assert f["cli.self_s"] == pytest.approx(1.0)
    assert (f["vectors"], f["early_exits"], f["fulls"]) == (7, 1, 0)
    m = run.per_layer({"layers": f, "wall_s": 10.0, "emit_bytes": 0, "emit_rows": 0})
    assert m["integrator.step_us"] == pytest.approx(6.0 / 100 * 1e6)
    assert m["diagnostics.observe_us"] == pytest.approx(1e6)
    assert m["share.step"] == pytest.approx(60.0)
    assert set(m) == {k for k in run.PER_LAYER if k not in (
        "trace.overhead_s", "trace.overhead_pct", "trace.purpose_flags")}


def test_speed_meter_scales_by_the_bursts_around_a_sample():
    meter = run.SpeedMeter()
    ref = run.REFERENCE_BURST_S
    meter.bursts = [(0.0, ref), (10.0, 2 * ref), (11.0, 4 * ref), (20.0, ref)]
    assert meter.scale(10.1, 10.9) == pytest.approx((1 / 3) ** run.SPEED_EXPONENT)
    assert meter.scale(19.9, 19.95) == pytest.approx(1.0)
    assert meter.scale(5.0, 6.0) == 1.0         # no burst near: unscaled
    with run.SpeedMeter() as live:
        time.sleep(5 * run.METER_PERIOD_S)
    assert len(live.bursts) >= 2 and all(b > 0 for _, b in live.bursts)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_shortened_workload_runs_through_harness(name, tmp_path):
    w = short(name)
    result, report = run.measure(w, seed=3, seconds=0, trace=True, tmp=tmp_path)
    assert report["problems"] == [] and report["missing_probes"] == []
    assert result["correct"] and (result["attempted"], result["failed"]) == (2, 0)
    assert report["samples"] == {"untraced": 1, "traced": 1, "setup_probes": 0}
    metrics = result["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    if name in ("fig1", "dense-2d"):
        assert metrics["integrator.steps"]["value"] == int(w.args[w.args.index("--steps") + 1])
        assert metrics["diagnostics.samples"]["value"] == w.gate.samples
        assert metrics["diagnostics.emit_rows"]["value"] > w.gate.spectrum_rows
        assert metrics["integrator.step_us"]["value"] > 0
        assert metrics["spectral.orbital_us"]["value"] > 0
    else:
        assert metrics["stability.vectors"]["value"] > 0
        assert metrics["integrator.steps"]["value"] == 0
    if name == "sweep-k12":
        assert metrics["stability.early_exit_ms"]["value"] > 0
        assert metrics["stability.full_ms"]["value"] > 0
        assert metrics["cli.sweep_overlap"]["value"] > 0
    assert not any(tmp_path.iterdir())

    untraced, report = run.measure(w, seed=3, seconds=0, trace=False, tmp=tmp_path)
    assert untraced["correct"] and set(untraced["metrics"]) == set(run.END_TO_END)
    assert untraced["attempted"] == 1 + run.SETUP_PROBES
    assert report["end_to_end"]["setup_s"]["n"] == 1 + run.SETUP_PROBES
    assert all(m["value"] > 0 for m in untraced["metrics"].values())


@pytest.mark.parametrize("name, wrong", [
    ("check-n5", {"n_vectors": 1}),
    ("fig1", {"samples": 1250}),
    ("dense-2d", {"spectrum_rows": 201 * 64 + 1}),
    ("sweep-k12", {"verdicts": {(0.042, 0.2): ("true", "true")}}),
])
def test_wrong_expected_value_fails_the_gate(name, wrong, tmp_path):
    result, report = run.measure(short(name, **wrong), seed=1, seconds=0,
                                 trace=False, tmp=tmp_path)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 1 + run.SETUP_PROBES
    assert report["failed_frac"] == pytest.approx(1 / (1 + run.SETUP_PROBES))
    assert report["problems"]


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-n5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
