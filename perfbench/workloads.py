"""The four benchmark workloads and the correctness gate of each.

Every workload is one torusnls command line.  A gate reads what one run left
behind (exit code, standard output, output directory) and returns the list
of problems it found; an empty list means the run is correct.  README.md
next to this file says why each workload exists.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class RunOutput:
    code: int | None
    stdout: str
    out_dir: Path


@dataclass(frozen=True)
class CheckGate:
    """Both assumptions hold, with the exact vector count and tightest witness."""

    n_vectors: int
    tightest_lhs: float

    def problems(self, run: RunOutput) -> list[str]:
        if run.code != 0:
            return [f"exit code {run.code}, expected 0"]
        payload = json.loads(run.stdout)
        a1, a2 = payload["assumption1"], payload["assumption2"]
        found = []
        if not a1["holds"]:
            found.append("assumption 1 does not hold")
        if a2 == "skipped" or not a2["holds"]:
            found.append("assumption 2 does not hold")
            return found
        if a2["n_vectors"] != self.n_vectors:
            found.append(f"n_vectors {a2['n_vectors']}, expected {self.n_vectors}")
        lhs = None if a2["tightest"] is None else a2["tightest"]["lhs"]
        if lhs != self.tightest_lhs:
            found.append(f"tightest lhs {lhs!r}, expected {self.tightest_lhs!r}")
        return found


@dataclass(frozen=True)
class SimulationGate:
    """Mass kept, orbit kept within 10 epsilon, and the expected row counts."""

    samples: int
    spectrum_rows: int
    epsilon: float = 0.01
    max_mass_drift: float = 1e-12
    orbital_factor: float = 10.0

    def problems(self, run: RunOutput) -> list[str]:
        if run.code != 0:
            return [f"exit code {run.code}, expected 0"]
        series = list(run.out_dir.glob("*_series.csv"))
        spectrum = list(run.out_dir.glob("*_spectrum.csv"))
        if len(series) != 1 or len(spectrum) != 1:
            return [f"expected one series and one spectrum file in {run.out_dir.name}"]
        with open(series[0], newline="") as fh:
            rows = list(csv.DictReader(fh))
        found = []
        if len(rows) != self.samples:
            found.append(f"{len(rows)} samples, expected {self.samples}")
        if not rows:
            return found
        mass = [float(r["mass"]) for r in rows]
        drift = max(abs(m - mass[0]) for m in mass) / mass[0]
        if not drift <= self.max_mass_drift:
            found.append(f"relative mass drift {drift:.3e} > {self.max_mass_drift:g}")
        orbital = max(float(r["orbital_distance"]) for r in rows)
        if not orbital <= self.orbital_factor * self.epsilon:
            found.append(f"max orbital distance {orbital:.4g} > "
                         f"{self.orbital_factor:g} * epsilon = {self.orbital_factor * self.epsilon:g}")
        spectrum_rows = count_rows(spectrum[0])
        if spectrum_rows != self.spectrum_rows:
            found.append(f"{spectrum_rows} spectrum rows, expected {self.spectrum_rows}")
        return found


@dataclass(frozen=True)
class SweepGate:
    """The (assumption1, assumption2) verdict of every (h, rho2) point."""

    verdicts: dict

    def problems(self, run: RunOutput) -> list[str]:
        if run.code != 0:
            return [f"exit code {run.code}, expected 0"]
        with open(run.out_dir / "sweep_summary.csv", newline="") as fh:
            got = {(float(r["h"]), float(r["rho"])): (r["assumption1"], r["assumption2"])
                   for r in csv.DictReader(fh)}
        want = {(h, math.sqrt(rho2)): v for (h, rho2), v in self.verdicts.items()}
        if got == want:
            return []
        return [f"point {k}: verdicts {got.get(k)}, expected {want.get(k)}"
                for k in sorted(set(got) | set(want)) if got.get(k) != want.get(k)]


def count_rows(path: Path) -> int:
    """Data rows of a CSV file: its lines minus the header."""
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1


@dataclass(frozen=True)
class Workload:
    """One torusnls command line, its gate, and what its time should go to.

    main_loop names the torusnls.cli attributes whose first call ends
    set-up.  predicted_shares gives the expected share of wall time per
    activity (step, observe, emit, stability); a traced run whose measured
    share is off by more than 0.05 + half the prediction is flagged.
    """

    name: str
    why: str
    args: tuple[str, ...]
    gate: object
    main_loop: tuple[str, ...]
    predicted_shares: dict = field(default_factory=dict)

    def command(self, seed: int, out_dir: Path) -> list[str]:
        """The command line for one run: comma-separated --h and --rho2 axes
        are put in a seed-dependent order, and the seed goes to --seed."""
        args = list(self.args)
        rng = random.Random(seed)
        for flag in ("--h", "--rho2"):
            if flag in args:
                i = args.index(flag) + 1
                values = args[i].split(",")
                rng.shuffle(values)
                args[i] = ",".join(values)
        return args + ["--seed", str(seed), "--out", str(out_dir)]


SIMULATE_LOOP = ("integrate",)
SWEEP_LOOP = ("ThreadPoolExecutor", "_check_payload")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="check-n5",
            why="torusnls check at defaults (d=1, K=16, N=5): one full non-resonance "
                "enumeration of 1,884,960 combination vectors",
            args=("check",),
            gate=CheckGate(n_vectors=1884960, tightest_lhs=3.3611111111111112),
            main_loop=("check_assumption2",),
            predicted_shares={"stability": 0.99, "step": 0.0},
        ),
        Workload(
            name="fig1",
            why="the t = 1e4 preset run: 250,000 Lie-Trotter steps at K=16 with "
                "2,001 observer samples, dominated by the step kernel",
            args=("figures", "fig1"),
            gate=SimulationGate(samples=2001, spectrum_rows=82 * 32),
            main_loop=SIMULATE_LOOP,
            predicted_shares={"step": 0.90, "observe": 0.09, "emit": 0.001},
        ),
        Workload(
            name="dense-2d",
            why="2-D Strang nonlinear-outside run observed every step, writing about "
                "1.0 M spectrum rows: emission, observer and step kernel take about "
                "50, 25 and 15 %",
            args=("simulate", "--d", "2", "--K", "8", "--scheme",
                  "strang-nonlinear-outside", "--steps", "4000", "--cadence", "1"),
            gate=SimulationGate(samples=4001, spectrum_rows=4001 * 256),
            main_loop=SIMULATE_LOOP,
            predicted_shares={"emit": 0.50, "observe": 0.25, "step": 0.15},
        ),
        Workload(
            name="sweep-k12",
            why="3x3 (h, rho2) sweep at K=12, N=5 through the thread pool: full "
                "non-resonance enumerations, first-violation exits and assumption-1 "
                "rejections",
            args=("sweep", "--K", "12", "--N", "5",
                  "--h", "0.042,0.05,0.06", "--rho2", "0.2,0.4,0.6"),
            gate=SweepGate(verdicts={
                (0.042, 0.2): ("true", "false"),
                (0.042, 0.4): ("true", "true"),
                (0.042, 0.6): ("false", "skipped"),
                (0.05, 0.2): ("true", "false"),
                (0.05, 0.4): ("true", "true"),
                (0.05, 0.6): ("false", "skipped"),
                (0.06, 0.2): ("true", "true"),
                (0.06, 0.4): ("true", "true"),
                (0.06, 0.6): ("false", "skipped"),
            }),
            main_loop=SWEEP_LOOP,
            predicted_shares={"stability": 0.90, "step": 0.0},
        ),
    )
}
