"""In-process timings of the step kernel, the observer and emission, one JSON line.

    PYTHONPATH=src python3 tools/bench_layers.py [--repeats 7] [--calls 2000]
    PYTHONPATH=src python3 tools/bench_layers.py --baseline OTHER/src

Two figures per grid (d = 1, K = 16 and d = 2, K = 8; rho^2 = 0.4,
epsilon = 0.01, s = 5, carrier at the origin):

- observe_us: one observed sample as `integrate` delivers it, the
  numpy-ordered state wrapped into a SpectralField and handed to a
  TrajectoryRecorder which streams into a SpectrumWriter whose snapshot
  window covers the sample, less the writer's seconds, as `simulate`
  counts observe_s.  The recorder computes its observables per block of
  samples, so the loop feeds one recorder (built before the clock starts)
  --calls samples rounded down to whole blocks, then calls finalize(), as
  `simulate` feeds its one recorder, and the figure is per sample.  The
  block size is the current package's (`diagnostics._block_rows` of the
  grid), and the baseline side is fed blocks of the same size.  The
  figure includes the recorder's own clock (two perf_counter calls a
  sample); a package whose recorder keeps none had `simulate` make those
  calls outside the recorder, so they fall outside its figure;
- step_us: one step of each splitting variant, h = 0.04, from the
  package's initial datum, timed through the public `integrate` (so a
  baseline without the current stepper's methods runs the same loop): a run
  of --calls steps at cadence 1 with a no-op observer (`cadence1`, every
  step leaves the integrator's frame and is wrapped into a field) and at
  cadence 250 (`cadence250`), per step;
- emit_us_per_row: the two CSVs of a run of EMIT_STEPS Lie-Trotter
  steps observed every step (301 snapshots: 9,632 spectrum rows at d = 1,
  77,056 at d = 2), written into a temporary directory as the CLI writes
  them, per spectrum row: the coefficients of the samples a list observer
  collected go to a `SpectrumWriter` one recorder block at a time (blocks
  of the size observe_us uses, cut before the clock starts), which takes
  their |u_j|, then the writer is closed and `emit` writes a recorder's
  series of the same samples.  A baseline package whose `emit` takes the
  writer and closes it is driven through that signature, with the same work
  inside the clock.  Each side writes the run its own package integrated;
- format_ns_per_value: the emission kernel alone, a call of a
  `_serialize.FloatFormatter` of the spectrum writer's pass size
  (`diagnostics._EMIT_VALUES`) on all the magnitudes of that run, per
  value; the formatter is built before the clock starts.

and, for the non-resonance enumerator, one `check_assumption2` call at each
point of ENUM_POINTS: the four `sweep-k12` points that enumerate in full
(d = 1, K = 12, N = 5, c2 = 8, delta2 = 0.1, s2 = 25, lambda = -1) and the
`check` defaults (K = 16, h = 0.04, rho^2 = 0.4).  Its figures are ms per
call and vectors per second, n_vectors over the call's time.  And
datum_ms: one `cli.random_initial_datum` call at each grid of DATUM_GRIDS
(d = 2, K = 8: 512 normals, the dense-2d datum; d = 3, K = 16: 65,536),
the package's defaults otherwise.

Each loop times --calls calls (observe_us: --calls samples, rounded down to
whole blocks; emit_us_per_row: EMIT_CALLS runs' files; format_ns_per_value:
FORMAT_CALLS formatter calls; the enumerator: ENUM_CALLS calls; datum_ms:
DATUM_CALLS calls), so that no loop is shorter than a few tens of ms; a
figure is the best (and the median) over --repeats loops.  The loops run in
rounds: each round times every figure of the grid once on each side, after
one untimed round, so no figure is the first to run in a cold process and a
burst of load on the host spreads over several figures rather than taking
one figure's median.
With --baseline, the torusnls package under that src/ directory is loaded
as a second package in the same process, and its loops alternate with the
current package's, so both see the same host speed.  The host's speed also
changes between one loop and the next (two loops of the same code, back to
back, can differ by 30 %), so "ratio" gives, per figure, the median over
the rounds of the current side's time over the baseline's in the same
round: with --baseline src, the same code on both sides, it lies closer to
1 than the ratio of the two medians.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import inspect
import json
import math
import os
import statistics
import sys
import tempfile
import time

import numpy as np

GRIDS = ((1, 16), (2, 8))
EMIT_STEPS = 300
EMIT_CALLS = 8
FORMAT_CALLS = 10
STEP_CADENCES = (1, 250)
# (K, h, rho^2) at N = 5
ENUM_POINTS = ((12, 0.042, 0.4), (12, 0.05, 0.4), (12, 0.06, 0.2), (12, 0.06, 0.4),
               (16, 0.04, 0.4))
ENUM_CALLS = 3
DATUM_GRIDS = ((2, 8), (3, 16))
DATUM_CALLS = 50


def load_package(src: str, name: str) -> str:
    """Import the torusnls package found under src as a package called name."""
    root = os.path.join(src, "torusnls")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"), submodule_search_locations=[root]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return name


def emit_closes_writer(diagnostics) -> bool:
    """Whether the package's emit takes the SpectrumWriter and closes it
    (else the writer's opener closes it)."""
    return "spectrum" in inspect.signature(diagnostics.emit).parameters


def cases(pkg: str, d: int, K: int, block: int, out_dir: str) -> dict:
    """Figure name -> a factory taking --calls and returning (the loop to
    time, the number of calls, samples or rows it makes); a loop may return
    seconds its figure leaves out.  observe_us feeds each recorder block
    samples, emit_us_per_row streams the spectrum in blocks of as many
    snapshots and writes into out_dir, and format_ns_per_value formats the
    same magnitudes in one call."""
    cli = importlib.import_module(f"{pkg}.cli")
    serialize = importlib.import_module(f"{pkg}._serialize")
    diagnostics = importlib.import_module(f"{pkg}.diagnostics")
    integrator = importlib.import_module(f"{pkg}.integrator")
    stability = importlib.import_module(f"{pkg}.stability")

    config = cli.RunConfig(d=d, K=K)
    datum = cli.random_initial_datum(config)
    table = stability.build_frequency_table(
        config.h, config.rho, config.lam, config.ell, config.grid()
    )
    c = np.fft.ifftshift(datum.coeffs)  # the state as integrate holds it
    stepper = integrator._Stepper(datum.grid, config.step_scheme(), config.lam)

    def observe(calls):
        writer = diagnostics.SpectrumWriter(os.path.join(out_dir, f"{pkg}_obs.csv"),
                                            table.grid, ((0.0, 1.0),))
        recorder = diagnostics.TrajectoryRecorder(table, config.s, writer)
        samples = max(1, calls // block) * block

        def run():
            for _ in range(samples):
                recorder(1, stepper.wrap(c))
            recorder.finalize()
            writer.close()
            return writer.seconds

        return run, samples

    out = {"observe_us": observe}
    for variant in integrator.StepVariant:
        scheme = integrator.StepScheme(variant, config.h)
        for cadence in STEP_CADENCES:

            def steps(calls, scheme=scheme, cadence=cadence):
                def run():
                    integrator.integrate(datum, scheme, config.lam, calls,
                                         observer=lambda n, u: None, cadence=cadence)

                return run, calls

            out[f"step_us.{variant.value}.cadence{cadence}"] = steps

    samples = []
    integrator.integrate(datum, config.step_scheme(), config.lam, EMIT_STEPS,
                         observer=lambda n, u: samples.append((n, u)), cadence=1)
    recorder = diagnostics.TrajectoryRecorder(table, config.s)
    for n, u in samples:
        recorder(n, u)
    recorded = recorder.finalize()
    times = np.array([n * table.h for n, _ in samples])
    fields = np.stack([u.coeffs for _, u in samples])
    mags = np.abs(fields)
    blocks = [slice(first, first + block) for first in range(0, len(times), block)]
    spectrum = os.path.join(out_dir, f"{pkg}_spectrum.csv")
    series = os.path.join(out_dir, f"{pkg}_series.csv")
    closes = emit_closes_writer(diagnostics)

    def emit(calls):
        def run_once():
            writer = diagnostics.SpectrumWriter(spectrum, datum.grid, ((0.0, times[-1]),))
            for rows in blocks:
                writer.write(times[rows], fields[rows])
            if closes:
                diagnostics.emit(recorded, series, writer)
            else:
                writer.close()
                diagnostics.emit(recorded, series)

        def run():
            for _ in range(EMIT_CALLS):
                run_once()

        return run, EMIT_CALLS * mags.size

    out["emit_us_per_row"] = emit

    def format_values(calls):
        formatter = serialize.FloatFormatter(diagnostics._EMIT_VALUES)

        def run():
            for _ in range(FORMAT_CALLS):
                formatter(mags)

        # us per 1000 values: ns per value
        return run, FORMAT_CALLS * mags.size / 1e3

    out["format_ns_per_value"] = format_values
    return out


def enumerator_cases(pkg: str) -> dict:
    """Point name -> (the loop of ENUM_CALLS check_assumption2 calls, the
    calls' n_vectors)."""
    stability = importlib.import_module(f"{pkg}.stability")
    spectral = importlib.import_module(f"{pkg}.spectral")
    out = {}
    for K, h, rho2 in ENUM_POINTS:
        table = stability.build_frequency_table(h, math.sqrt(rho2), -1, (0,),
                                                spectral.Grid(K=K, d=1))

        def run(table=table):
            for _ in range(ENUM_CALLS):
                report = stability.check_assumption2(table, 5, 8.0, 0.1, 25.0)
            return report.n_vectors

        out[f"K{K}_h{h}_rho2_{rho2}"] = (run, run())
    return out


def datum_cases(pkg: str) -> dict:
    """Grid name -> the configuration whose initial datum is drawn."""
    cli = importlib.import_module(f"{pkg}.cli")
    return {f"d{d}_K{K}": (cli.random_initial_datum, cli.RunConfig(d=d, K=K))
            for d, K in DATUM_GRIDS}


def rounds(sides: list, names: list, time_one, repeats: int) -> dict:
    """side -> name -> the --repeats times of time_one(side, name), taken in
    rounds after one untimed round.  The side that goes first alternates
    from figure to figure within a round, and each round starts with the
    side that did not start the round before."""
    times = {side: {name: [] for name in names} for side in sides}
    for r in range(-1, repeats):  # round -1 warms up and is not kept
        for i, name in enumerate(names):
            order = sides if (r + i) % 2 == 0 else sides[::-1]
            for side in order:
                t = time_one(side, name)
                if r >= 0:
                    times[side][name].append(t)
    return times


def paired_ratios(times: dict) -> dict:
    """name -> the median over rounds of the current side's time over the
    baseline's in the same round."""
    return {name: statistics.median(c / b for c, b in zip(ts, times["baseline"][name]))
            for name, ts in times["current"].items()}


def loop_us(factory, calls: int) -> float:
    fn, n = factory(calls)
    t0 = time.perf_counter()
    left_out = fn() or 0.0
    return (time.perf_counter() - t0 - left_out) / n * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--calls", type=int, default=2000)
    parser.add_argument("--baseline", help="src/ directory of the checkout to compare with")
    args = parser.parse_args()

    sides = {"current": "torusnls"}
    if args.baseline:
        sides["baseline"] = load_package(args.baseline, "torusnls_baseline")
    result: dict = {side: {} for side in sides}
    if args.baseline:
        result["ratio"] = {}
    current = importlib.import_module("torusnls")
    with tempfile.TemporaryDirectory() as out_dir:
        for d, K in GRIDS:
            block = current.diagnostics._block_rows(current.Grid(K=K, d=d))
            grid_cases = {side: cases(pkg, d, K, block, out_dir) for side, pkg in sides.items()}
            times = rounds(
                list(sides), list(grid_cases["current"]),
                lambda side, name: loop_us(grid_cases[side][name], args.calls),
                args.repeats,
            )
            for side in sides:
                result[side][f"d{d}_K{K}"] = {
                    name: {"best": min(ts), "median": statistics.median(ts)}
                    for name, ts in times[side].items()
                }
            if args.baseline:
                result["ratio"][f"d{d}_K{K}"] = paired_ratios(times)
    enum_cases = {side: enumerator_cases(pkg) for side, pkg in sides.items()}

    def call_ms(side: str, name: str) -> float:
        t0 = time.perf_counter()
        enum_cases[side][name][0]()
        return (time.perf_counter() - t0) / ENUM_CALLS * 1e3

    times = rounds(list(sides), list(enum_cases["current"]), call_ms, args.repeats)
    if args.baseline:
        result["ratio"]["enumerator"] = paired_ratios(times)
    for side in sides:
        result[side]["enumerator"] = {
            name: {
                "n_vectors": enum_cases[side][name][1],
                "ms": {"best": min(ts), "median": statistics.median(ts)},
                "vectors_per_s": enum_cases[side][name][1] / statistics.median(ts) * 1e3,
            }
            for name, ts in times[side].items()
        }
    data = {side: datum_cases(pkg) for side, pkg in sides.items()}

    def datum_ms(side: str, name: str) -> float:
        draw, config = data[side][name]
        t0 = time.perf_counter()
        for _ in range(DATUM_CALLS):
            draw(config)
        return (time.perf_counter() - t0) / DATUM_CALLS * 1e3

    times = rounds(list(sides), list(data["current"]), datum_ms, args.repeats)
    if args.baseline:
        result["ratio"]["datum_ms"] = paired_ratios(times)
    for side in sides:
        result[side]["datum_ms"] = {
            name: {"best": min(ts), "median": statistics.median(ts)}
            for name, ts in times[side].items()
        }
    result["cpu_count"] = os.cpu_count()
    result["loadavg"] = list(os.getloadavg())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
