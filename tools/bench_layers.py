"""In-process timings of the step kernel, the observer and emission, one JSON line.

    PYTHONPATH=src python3 tools/bench_layers.py [--repeats 7] [--calls 2000]
    PYTHONPATH=src python3 tools/bench_layers.py --baseline OTHER/src

Two figures per grid (d = 1, K = 16 and d = 2, K = 8; rho^2 = 0.4,
epsilon = 0.01, s = 5, carrier at the origin):

- observe_us: one observed sample as `integrate` delivers it, the
  numpy-ordered state wrapped into a SpectralField and handed to a
  TrajectoryRecorder whose snapshot window covers the sample.  The recorder
  computes its observables per block of samples, so the loop feeds blocks
  of samples to fresh recorders (built before the clock starts), each
  followed by finalize(), and the figure is per sample.  The block size is
  the current package's (`diagnostics._block_rows` of the grid), and the
  baseline side is fed blocks of the same size;
- advance_us: one `_Stepper.advance` for each splitting variant, h = 0.04;
- emit_us_per_row: the output files of a recorded run of EMIT_STEPS
  Lie-Trotter steps observed every step with every sample in the snapshot
  window (301 snapshots: 9,632 spectrum rows at d = 1, 77,056 at d = 2),
  written into a temporary directory as the CLI writes them, per spectrum
  row: the snapshots go to a `SpectrumWriter` one recorder block at a
  time (blocks of the size observe_us uses, stacked before the clock
  starts), then `emit` writes the series and meta and closes the writer.
  A side whose package has no `SpectrumWriter` emits the whole run in one
  `emit`, as its CLI did.  Each side writes the run its own package
  recorded;
- format_ns_per_value: the emission kernel alone, one call of a
  `_serialize.FloatFormatter` of the spectrum writer's pass size
  (`diagnostics._EMIT_VALUES`) on all the magnitudes of that recorded run,
  per value; the formatter is built before the clock starts.

and, for the non-resonance enumerator, one `check_assumption2` call at each
point of ENUM_POINTS: the four `sweep-k12` points that enumerate in full
(d = 1, K = 12, N = 5, c2 = 8, delta2 = 0.1, s2 = 25, lambda = -1) and the
`check` defaults (K = 16, h = 0.04, rho^2 = 0.4).  Its figures are ms per
call and vectors per second, n_vectors over the call's time.  And
datum_ms: one `cli.random_initial_datum` call at each grid of DATUM_GRIDS
(d = 2, K = 8: 512 normals, the dense-2d datum; d = 3, K = 16: 65,536),
the package's defaults otherwise.

Each loop times --calls calls (observe_us: --calls samples, rounded down to
whole blocks; emit_us_per_row: one run's files; format_ns_per_value: one
formatter call; the enumerator: ENUM_CALLS calls; datum_ms: one call); a
figure is the best (and the median) over --repeats loops.  The loops run in
rounds: each round times every figure of the grid once on each side, after
one untimed round, so no figure is the first to run in a cold process and a
burst of load on the host spreads over several figures rather than taking
one figure's median.
With --baseline, the torusnls package under that src/ directory is loaded
as a second package in the same process, and its loops alternate with the
current package's, so both see the same host speed.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
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
# (K, h, rho^2) at N = 5
ENUM_POINTS = ((12, 0.042, 0.4), (12, 0.05, 0.4), (12, 0.06, 0.2), (12, 0.06, 0.4),
               (16, 0.04, 0.4))
ENUM_CALLS = 3
DATUM_GRIDS = ((2, 8), (3, 16))


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


def cases(pkg: str, d: int, K: int, block: int, out_dir: str) -> dict:
    """Figure name -> a factory taking --calls and returning (the loop to
    time, the number of calls, samples or rows it makes); observe_us feeds
    each recorder block samples, emit_us_per_row streams the spectrum in
    blocks of as many snapshots and writes into out_dir, and
    format_ns_per_value formats the same magnitudes in one call."""
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
        recorders = [
            diagnostics.TrajectoryRecorder(table, config.s, snapshot_windows=((0.0, 1.0),))
            for _ in range(max(1, calls // block))
        ]

        def run():
            for recorder in recorders:
                for _ in range(block):
                    recorder(1, stepper.wrap(c))
                recorder.finalize()

        return run, len(recorders) * block

    out = {"observe_us": observe}
    for variant in integrator.StepVariant:
        st = integrator._Stepper(
            datum.grid, integrator.StepScheme(variant, config.h), config.lam
        )

        def advance(calls, st=st):
            def run():
                for _ in range(calls):
                    st.advance(c)

            return run, calls

        out[f"advance_us.{variant.value}"] = advance

    recorder = diagnostics.TrajectoryRecorder(
        table, config.s, snapshot_windows=((0.0, math.inf),), metadata={"runid": pkg}
    )
    integrator.integrate(datum, config.step_scheme(), config.lam, EMIT_STEPS,
                         observer=recorder, cadence=1)
    recorded = recorder.finalize()
    snapshots = recorded.snapshots
    blocks = [
        ([t for t, _ in chunk], np.stack([m for _, m in chunk]))
        for chunk in (snapshots[i : i + block] for i in range(0, len(snapshots), block))
    ]
    streamed = dataclasses.replace(recorded, snapshots=())

    def emit(calls):
        def run():
            if not hasattr(diagnostics, "SpectrumWriter"):  # a checkout that emits at the end
                diagnostics.emit(recorded, out_dir)
                return
            path = os.path.join(out_dir, f"{pkg}_spectrum.csv")
            writer = diagnostics.SpectrumWriter(path, datum.grid)
            for times, mags in blocks:
                writer.write(times, mags)
            diagnostics.emit(streamed, out_dir, spectrum=writer)

        return run, len(snapshots) * datum.grid.size

    out["emit_us_per_row"] = emit
    mags = np.stack([m for _, m in snapshots])

    def format_values(calls):
        formatter = serialize.FloatFormatter(diagnostics._EMIT_VALUES)
        return (lambda: formatter(mags)), mags.size / 1e3  # us per 1000 values: ns per value

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
    rounds after one untimed round, the side that goes first alternating."""
    times = {side: {name: [] for name in names} for side in sides}
    for r in range(-1, repeats):  # round -1 warms up and is not kept
        order = sides if r % 2 == 0 else sides[::-1]
        for name in names:
            for side in order:
                t = time_one(side, name)
                if r >= 0:
                    times[side][name].append(t)
    return times


def loop_us(factory, calls: int) -> float:
    fn, n = factory(calls)
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) / n * 1e6


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
    enum_cases = {side: enumerator_cases(pkg) for side, pkg in sides.items()}

    def call_ms(side: str, name: str) -> float:
        t0 = time.perf_counter()
        enum_cases[side][name][0]()
        return (time.perf_counter() - t0) / ENUM_CALLS * 1e3

    times = rounds(list(sides), list(enum_cases["current"]), call_ms, args.repeats)
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
        draw(config)
        return (time.perf_counter() - t0) * 1e3

    times = rounds(list(sides), list(data["current"]), datum_ms, args.repeats)
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
