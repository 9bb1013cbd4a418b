"""Benchmark for torusnls: end-to-end runs of four workloads, and a traced
per-layer split.

    python3 perfbench/run.py --workload dense-2d --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all

Each sample runs one torusnls command in a fresh interpreter (child.py) and
checks its output with the workload's gate.  Samples repeat until the next
one would end past --seconds.  With --trace 0 the result holds the
end-to-end metrics, medians over the samples; with --trace 1 untraced and
traced samples alternate, and the result holds the per-layer metrics,
medians over the traced samples, plus the tracing overhead.  The run stays
on one CPU, and end-to-end times are scaled to a reference speed of that CPU
measured while each sample runs (SpeedMeter).  A report with
the environment and every sample count is printed first; the last line of
standard output is the result, one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from spans import MODULES
from workloads import WORKLOADS, RunOutput, Workload, count_rows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
# every run ends within this many seconds, whatever --seconds says
RUN_LIMIT_S = 170.0
# untraced runs also start this many processes that stop where set-up ends,
# so setup_s is a median over more than the few samples of a long workload
SETUP_PROBES = 6
# The host's speed changes by up to 2x for seconds to minutes at a time, with
# no steal time reported.  SpeedMeter measures it on the samples' CPU while
# they run, and end-to-end times are scaled to the speed at which one meter
# burst takes REFERENCE_BURST_S of CPU time.
REFERENCE_BURST_S = 0.003
METER_PERIOD_S = 0.06
# A sample's time goes as the mean burst to this power: the slope of log
# wall time on log burst, fitted over 550 samples of both workloads in three
# sets of ten runs, was 1.20 to 1.43.
SPEED_EXPONENT = 1.3
# a sample's speed is the mean over the bursts from this long before it
# starts to this long after it ends
METER_MARGIN_S = 0.25

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

ACTIVITIES = ("step", "observe", "emit", "stability")

PER_LAYER = {
    "integrator.step_us": "us",
    "integrator.steps": "count",
    "diagnostics.observe_us": "us",
    "diagnostics.samples": "count",
    "spectral.mass_us": "us",
    "spectral.orbital_us": "us",
    "transforms.u_to_xi_us": "us",
    "diagnostics.super_actions_us": "us",
    "diagnostics.weighted_deviation_us": "us",
    "diagnostics.emit_s": "s",
    "diagnostics.emit_bytes": "bytes",
    "diagnostics.emit_rows": "count",
    "stability.check_assumption2_s": "s",
    "stability.vectors": "count",
    "stability.vectors_per_s": "1/s",
    "stability.early_exit_ms": "ms",
    "stability.full_ms": "ms",
    "stability.build_frequency_table_ms": "ms",
    "stability.check_assumption1_ms": "ms",
    "transforms.build_diagonalizers_ms": "ms",
    "cli.random_initial_datum_ms": "ms",
    "cli.sweep_overlap": "ratio",
    **{f"{m}.self_s": "s" for m in MODULES},
    **{f"{m}.calls": "count" for m in MODULES},
    **{f"share.{a}": "%" for a in ACTIVITIES},
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    "trace.purpose_flags": "count",
    "trace.spans": "count",
}


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def per_layer(sample: dict) -> dict[str, float]:
    """The per-layer metrics of one traced sample, from its span figures."""
    f = sample["layers"]
    wall = sample["wall_s"]
    samples = f["samples"]
    m = {
        "integrator.step_us": _per(f["step_self_s"], f["steps"], 1e6),
        "integrator.steps": f["steps"],
        "diagnostics.observe_us": _per(f["observe_s"], samples, 1e6),
        "diagnostics.samples": samples,
        "spectral.mass_us": _per(f["mass_s"], samples, 1e6),
        "spectral.orbital_us": _per(f["orbital_s"], samples, 1e6),
        "transforms.u_to_xi_us": _per(f["u_to_xi_s"], samples, 1e6),
        "diagnostics.super_actions_us": _per(f["super_actions_s"], samples, 1e6),
        "diagnostics.weighted_deviation_us": _per(f["weighted_deviation_s"], samples, 1e6),
        "diagnostics.emit_s": f["emit_s"],
        "diagnostics.emit_bytes": sample["emit_bytes"],
        "diagnostics.emit_rows": sample["emit_rows"],
        "stability.check_assumption2_s": f["check_assumption2_s"],
        "stability.vectors": f["vectors"],
        "stability.vectors_per_s": _per(f["vectors"], f["check_assumption2_s"]),
        "stability.early_exit_ms": _per(f["early_exit_s"], f["early_exits"], 1e3),
        "stability.full_ms": _per(f["full_s"], f["fulls"], 1e3),
        "stability.build_frequency_table_ms": f["build_frequency_table_s"] * 1e3,
        "stability.check_assumption1_ms": f["check_assumption1_s"] * 1e3,
        "transforms.build_diagonalizers_ms": f["build_diagonalizers_s"] * 1e3,
        "cli.random_initial_datum_ms": f["random_initial_datum_s"] * 1e3,
        "cli.sweep_overlap": _per(f["check_points_s"], f["sweep_wall_s"]),
        "share.step": 100.0 * f["step_self_s"] / wall,
        "share.observe": 100.0 * f["observe_s"] / wall,
        "share.emit": 100.0 * f["emit_s"] / wall,
        "share.stability": 100.0 * f["stability.self_s"] / wall,
        "trace.spans": f["spans"],
    }
    for mod in MODULES:
        m[f"{mod}.self_s"] = f[f"{mod}.self_s"]
        m[f"{mod}.calls"] = f[f"{mod}.calls"]
    return m


def purpose_flags(workload: Workload, shares_pct: dict[str, float]) -> dict:
    """Measured against predicted activity shares; a share off by more than
    0.05 + half the prediction contradicts the workload's stated purpose."""
    out = {}
    for activity, predicted in workload.predicted_shares.items():
        measured = shares_pct[f"share.{activity}"] / 100.0
        out[activity] = {
            "measured": round(measured, 4),
            "predicted": predicted,
            "flagged": abs(measured - predicted) > 0.05 + predicted / 2.0,
        }
    return out


def run_sample(workload: Workload, seed: int, mode: str, out_dir: Path,
               timeout: float) -> dict:
    """Run the workload once in a fresh interpreter and gate its output.

    mode is "run", "trace" or "setup"; a "setup" sample stops where set-up
    ends and has no output to gate.
    """
    out_dir.mkdir(parents=True)
    sample = {"mode": mode, "problems": [], "setup_s": None, "peak_rss_mb": None,
              "layers": None, "emit_bytes": 0, "emit_rows": 0, "missing_probes": []}
    try:
        cli_args = workload.command(seed, out_dir)
        spawned = sample["start"] = time.monotonic()
        cmd = [sys.executable, str(CHILD), repr(spawned), mode,
               ",".join(workload.main_loop), "--", *cli_args]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            sample["end"] = time.monotonic()
            sample["wall_s"] = sample["end"] - spawned
            sample["problems"].append(f"timed out after {timeout:.0f} s")
            return sample
        sample["end"] = time.monotonic()
        sample["wall_s"] = sample["end"] - spawned
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sample["problems"].append(
                f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return sample
        report = json.loads(lines[-1])
        for key in ("setup_s", "peak_rss_mb", "layers", "missing_probes"):
            sample[key] = report[key]
        if report["setup_s"] is None:
            sample["problems"].append("the main loop was never entered")
        if mode == "setup":
            return sample
        try:
            sample["problems"] += workload.gate.problems(
                RunOutput(report["code"], report["stdout"], out_dir))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            sample["problems"].append(f"unreadable output: {exc!r}")
        files = [p for p in out_dir.iterdir() if p.is_file()]
        sample["emit_bytes"] = sum(p.stat().st_size for p in files)
        sample["emit_rows"] = sum(count_rows(p) for p in files if p.suffix == ".csv")
        return sample
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


class SpeedMeter:
    """The host's speed on this process's CPU, measured while samples run.

    A thread wakes every METER_PERIOD_S and times a fixed burst on its own
    CPU clock, which leaves out any time it waited for the CPU, so a burst
    takes longer only when the CPU itself runs slower.  The burst does what
    the workloads spend their time on: small 2-D FFTs, and formatting floats
    as text.  Pinned to the samples' CPU, the meter takes about 5 % of it
    from them, the same share on every run.
    """

    field = np.random.default_rng(0).standard_normal((64, 64))
    values = field.ravel()[:1500].tolist()

    def __init__(self):
        self.bursts: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-meter",
                                        daemon=True)

    def __enter__(self) -> "SpeedMeter":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(METER_PERIOD_S):
            cpu = time.thread_time()
            field = self.field
            for _ in range(6):
                field = np.fft.ifft2(np.fft.fft2(field)).real
            ",".join(["%.17g" % x for x in self.values])
            self.bursts.append((time.monotonic(), time.thread_time() - cpu))

    def scale(self, start: float, end: float) -> float:
        """The factor from times taken during [start, end] to times at the
        reference speed: (REFERENCE_BURST_S / mean burst) ** SPEED_EXPONENT."""
        near = [b for t, b in self.bursts
                if start - METER_MARGIN_S <= t <= end + METER_MARGIN_S]
        if not near:
            return 1.0
        return (REFERENCE_BURST_S / statistics.fmean(near)) ** SPEED_EXPONENT


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            tmp: Path) -> tuple[dict, dict]:
    """Repeat samples for about `seconds`; return (result, report)."""
    start = time.monotonic()
    with SpeedMeter() as meter:
        probes = [] if trace else [
            run_sample(workload, seed, "setup", tmp / f"setup{i}", timeout=RUN_LIMIT_S / 4)
            for i in range(SETUP_PROBES)]
        probed = time.monotonic()
        samples: list[dict] = []
        modes = itertools.cycle(("run", "trace") if trace else ("run",))
        for i in itertools.count():
            elapsed = time.monotonic() - start
            samples.append(run_sample(workload, seed, next(modes), tmp / f"sample{i}",
                                      timeout=max(1.0, RUN_LIMIT_S - elapsed)))
            now = time.monotonic()
            per_sample = (now - probed) / len(samples)
            have_all = not trace or len(samples) >= 2
            if have_all and now - start + per_sample > seconds:
                break
            if now - start > RUN_LIMIT_S / 2:
                break
        # the bursts after the last sample ends are within its margin
        time.sleep(METER_MARGIN_S)
    for sample in probes + samples:
        sample["speed"] = meter.scale(sample["start"], sample["end"])
        for name in ("wall_s", "setup_s"):
            raw = sample[name]
            sample[f"ref_{name}"] = None if raw is None else raw * sample["speed"]

    failed = [s for s in probes + samples if s["problems"]]
    untraced = [s for s in samples if s["mode"] == "run"]
    traced = [s for s in samples if s["mode"] == "trace" and s["layers"] is not None]

    report: dict = {
        "workload": workload.name,
        "seed": seed,
        "samples": {"untraced": len(untraced), "traced": len(traced),
                    "setup_probes": len(probes)},
        "failed_frac": len(failed) / (len(samples) + len(probes)),
        "problems": [p for s in failed for p in s["problems"]][:10],
        "missing_probes": sorted({p for s in samples for p in s["missing_probes"]}),
        "end_to_end": {},
    }
    for name, unit in END_TO_END.items():
        key = f"ref_{name}" if name in ("wall_s", "setup_s") else name
        values = [s[key] for s in (untraced + probes if name == "setup_s" else untraced)
                  if s[key] is not None]
        report["end_to_end"][name] = {
            "median": _median(values), "min": min(values, default=None),
            "max": max(values, default=None), "n": len(values), "unit": unit}
    report["raw_wall_s"] = [round(s["wall_s"], 4) for s in untraced]
    report["speed"] = [round(s["speed"], 4) for s in untraced]
    if trace:
        rows = [per_layer(s) for s in traced]
        values = {name: _median(r[name] for r in rows) for name in PER_LAYER
                  if not name.startswith("trace.") or name == "trace.spans"}
        untraced_wall = _median(s["ref_wall_s"] for s in untraced)
        overhead = _median(s["ref_wall_s"] for s in traced) - untraced_wall
        values["trace.overhead_s"] = overhead
        values["trace.overhead_pct"] = _per(overhead, untraced_wall, 100.0)
        shares = purpose_flags(workload, values)
        values["trace.purpose_flags"] = sum(v["flagged"] for v in shares.values())
        report["shares"] = shares
        units = PER_LAYER
    else:
        values = {name: report["end_to_end"][name]["median"] for name in END_TO_END}
        units = END_TO_END
    result = {
        "correct": not failed,
        "attempted": len(samples) + len(probes),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, report


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _cpu_ticks() -> dict[int, tuple[str, int]]:
    """CPU ticks (user + system) of every visible process, read from /proc."""
    ticks = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue
        comm = text[text.index("(") + 1:text.rindex(")")]
        fields = text[text.rindex(")") + 2:].split()
        ticks[int(stat.parent.name)] = (comm, int(fields[11]) + int(fields[12]))
    return ticks


def environment(before: dict, elapsed: float) -> dict:
    """Core count, versions, load average, and other processes that were busy."""
    after = _cpu_ticks()
    hz = os.sysconf("SC_CLK_TCK")
    busy = []
    for pid, (comm, ticks) in after.items():
        used = (ticks - before.get(pid, (comm, 0))[1]) / hz
        if pid != os.getpid() and used > 0.05 * elapsed:
            busy.append({"pid": pid, "comm": comm, "cpu_s": used})
    return {
        "loadavg_end": _loadavg(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "other_busy_processes": busy,
    }


def pin_to_one_cpu() -> int | None:
    """Keep this process, and so every child it starts, on one CPU.

    The bursts then measure the CPU the samples run on, and the sweep's pool
    threads hand the interpreter lock over on one CPU instead of across two
    virtual CPUs that the host stops and starts independently.  Returns the
    CPU, or None where affinity cannot be set.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "torusnls" / "__init__.py").is_file():
        print(f"torusnls sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src", quiet=1)
    cpu = pin_to_one_cpu()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    # on SIGTERM, unwind: subprocess.run kills the running child and the
    # finally below removes the outputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    results = {}
    try:
        for name in names:
            loadavg_start, ticks, start = _loadavg(), _cpu_ticks(), time.monotonic()
            result, report = measure(WORKLOADS[name], args.seed, args.seconds,
                                     bool(args.trace), tmp)
            report["environment"] = {"loadavg_start": loadavg_start, "pinned_cpu": cpu,
                                     **environment(ticks, time.monotonic() - start)}
            print(json.dumps(report, indent=1))
            results[name] = result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp.parent.is_dir() and not any(tmp.parent.iterdir()):
            tmp.parent.rmdir()

    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        for name, result in results.items():
            print(json.dumps({"workload": name, **result}))
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
