"""Byte-for-byte comparison of the CLI's outputs with another checkout's, one JSON line.

    python3 tools/same_outputs.py --baseline OTHER/src

Runs a fixed set of torusnls commands with the package under this
checkout's src/ and again with the one under --baseline, each run in a fresh
temporary directory with --out out, and compares the exit codes, stdout,
stderr and every file the run wrote.  JSON (the check report on stdout and
*_meta.json) is compared with its numbers kept as written and with the
"timing" and "environment" keys left out at every depth, since those
measure the host; everything else is compared byte for byte.

Prints one JSON line, {"identical": ..., "commands": {name: [what differs]},
"differences": {name: {output: ...}}}, and exits 1 when any output differs.
"differences" sizes what differs: for a CSV with the same header and row
count, the largest absolute and relative difference per column; for other
text whose words other than its numbers match (stdout, JSON without the
volatile keys), the same over all its numbers, in order.  Relative is |a - b| / max(|a|, |b|); two NaNs
are equal.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = {
    "check-defaults": ("check",),
    "check-n2": ("check", "--N", "2", "--h", "0.042"),
    "check-2d-carrier": ("check", "--d", "2", "--K", "3", "--ell", "1,0", "--h", "0.05",
                         "--N", "3", "--exhaustive"),
    # exits 1 at its first small-divisor witness: a non-exhaustive witness's JSON
    "check-k12-witness": ("check", "--K", "12", "--N", "5", "--h", "0.042", "--rho2", "0.2"),
    # one frequency class: the head half of the meet-in-the-middle search is empty
    "check-k1-n3": ("check", "--K", "1", "--N", "3"),
    # exits 1 with 20 witnesses, complete resonances at a nonzero carrier among them
    "check-k8-ell3-exhaustive": ("check", "--K", "8", "--ell", "3", "--N", "4",
                                 "--exhaustive"),
    # the same with no small-divisor window: only the screen's floor, its bound
    # as delta2 goes to 0, keeps the six structural resonances
    "check-k8-ell3-structural": ("check", "--K", "8", "--ell", "3", "--N", "4",
                                 "--delta2", "1e-300", "--exhaustive"),
    # 9,173,504 vectors, 5,566 small divisors
    "check-n6": ("check", "--N", "6"),
    "sweep-k12": ("sweep", "--K", "12", "--N", "5",
                  "--h", "0.042,0.05,0.06", "--rho2", "0.2,0.4,0.6"),
    "dense-2d-300": ("simulate", "--d", "2", "--K", "8", "--scheme",
                     "strang-nonlinear-outside", "--steps", "300", "--cadence", "1"),
    # the other two step variants, one recentering at a nonzero carrier
    "lie-trotter-ell3-300": ("simulate", "--scheme", "lie-trotter", "--ell", "3",
                             "--steps", "300", "--cadence", "1"),
    "strang-linear-300": ("simulate", "--scheme", "strang-linear-outside",
                          "--steps", "300", "--cadence", "1"),
    # a 2K = 10 FFT, and a nonzero carrier's diagonalizers (linearly stable)
    "k5-ell2-300": ("simulate", "--K", "5", "--ell", "2", "--steps", "300",
                    "--cadence", "1"),
    # linearly unstable: no xi map, D is NaN throughout (transform_ok false)
    "rho2-0.6-300": ("simulate", "--rho2", "0.6", "--steps", "300", "--cadence", "1"),
    # 44 samples: ends on a partial block, the last one off the cadence
    "dense-2d-301-cadence7": ("simulate", "--d", "2", "--K", "8", "--scheme",
                              "strang-nonlinear-outside", "--steps", "301",
                              "--cadence", "7"),
    # the (1, -2) Jordan carrier on a 2K = 8 grid: no xi map either
    "ell-1-2-k4-200": ("simulate", "--d", "2", "--K", "4", "--ell", "1,-2",
                       "--steps", "200", "--cadence", "1"),
    # no perturbation: the spectrum holds exact zeros, which the float
    # formatter hands to format_float
    "epsilon-0-300": ("simulate", "--epsilon", "0", "--steps", "300", "--cadence", "1"),
    # three mode columns; 512 modes, so four snapshots per formatter pass, 16 passes
    "d3-k4-60": ("simulate", "--d", "3", "--K", "4", "--steps", "60", "--cadence", "1"),
    # horizon 480: two snapshot windows, the samples between t = 200 and 280
    # left out, and recorder blocks that straddle the gap
    "two-windows-12000-cadence10": ("simulate", "--steps", "12000", "--cadence", "10"),
    # 32,768 modes: one sample per recorder block, 16 formatter passes per snapshot
    "d3-k16-10": ("simulate", "--d", "3", "--K", "16", "--steps", "10", "--cadence", "1"),
    # a seed of three 32-bit words (2^65 + 5): SeedSequence hashes each into its pool
    "multiword-seed-60": ("simulate", "--K", "4", "--steps", "60", "--cadence", "1",
                          "--seed", "36893488147419103237"),
    # the Strang variants at a sparse cadence: most steps never leave the
    # integrator's frame
    "strang-nonlinear-2000-cadence50": ("simulate", "--scheme", "strang-nonlinear-outside",
                                        "--steps", "2000", "--cadence", "50"),
    "strang-linear-2000-cadence50": ("simulate", "--scheme", "strang-linear-outside",
                                     "--steps", "2000", "--cadence", "50"),
}

# keys whose values measure the host rather than the computation
VOLATILE = frozenset(("timing", "environment"))


def run(src: Path, args: tuple[str, ...], workdir: Path) -> dict:
    """Run one command in workdir; return name -> bytes of everything it produced."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "torusnls", *args, "--out", "out"],
        cwd=workdir, env=env, capture_output=True, timeout=600,
    )
    out = {"returncode": str(proc.returncode).encode(), "stdout": proc.stdout,
           "stderr": proc.stderr}
    for path in sorted((workdir / "out").rglob("*")):  # none when the run wrote nothing
        if path.is_file():
            out[str(path.relative_to(workdir))] = path.read_bytes()
    return out


def comparable(name: str, data: bytes):
    """The bytes, or for JSON the document without VOLATILE keys, numbers as text."""
    if name == "stdout" or name.endswith(".json"):
        try:
            return json.loads(
                data,
                object_pairs_hook=lambda pairs: [p for p in pairs if p[0] not in VOLATILE],
                parse_float=str, parse_int=str, parse_constant=str,
            )
        except ValueError:
            pass
    return data


NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|nan|NaN|inf|Infinity)")


def _spread(pairs) -> dict:
    """The largest absolute and relative difference over (a, b) pairs."""
    worst = {"abs": 0.0, "rel": 0.0}
    for a, b in pairs:
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        diff = abs(a - b)
        worst["abs"] = max(worst["abs"], diff)
        worst["rel"] = max(worst["rel"], diff / max(abs(a), abs(b)))
    return worst


def difference(name: str, a: bytes, b: bytes):
    """How far two differing outputs are apart, or None when they do not line up."""
    if name.endswith(".csv"):
        rows_a = list(csv.reader(io.StringIO(a.decode())))
        rows_b = list(csv.reader(io.StringIO(b.decode())))
        if not rows_a or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
            return None
        try:
            return {col: _spread((float(x[i]), float(y[i]))
                                 for x, y in zip(rows_a[1:], rows_b[1:]))
                    for i, col in enumerate(rows_a[0])}
        except ValueError:
            return None
    a, b = (c if isinstance(c, bytes) else json.dumps(c).encode()
            for c in (comparable(name, a), comparable(name, b)))
    if NUMBER.split(a) != NUMBER.split(b):
        return None
    return _spread(zip(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b))))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="src/ directory of the checkout to compare with")
    args = parser.parse_args()
    baseline = Path(args.baseline).resolve()

    differs: dict[str, list[str]] = {}
    sizes: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, command in COMMANDS.items():
            outputs = []
            for side, src in (("current", SRC), ("baseline", baseline)):
                workdir = Path(tmp) / side / name
                workdir.mkdir(parents=True)
                outputs.append(run(src, command, workdir))
            current, base = outputs
            differs[name] = [
                key for key in sorted(set(current) | set(base))
                if key not in current or key not in base
                or comparable(key, current[key]) != comparable(key, base[key])
            ]
            sizes[name] = {key: difference(key, current[key], base[key])
                           for key in differs[name] if key in current and key in base}
    identical = not any(differs.values())
    print(json.dumps({"identical": identical, "commands": differs,
                      "differences": {k: v for k, v in sizes.items() if v}}))
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
