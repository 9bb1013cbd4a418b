"""Command-line harness: assumption checks, simulations, parameter sweeps,
and the three preset long-time experiments.

Subcommands: check, simulate, sweep, figures.  Configuration comes from the
RunConfig defaults, overridden by an optional JSON file (--config), overridden
by flags; the CLI only parses, and RunConfig checks.  Every run is fully
reproducible from config plus seed (counter-based PRNG).  Exit codes:
0 ok, 1 assumption failed, 2 config error, 3 blow-up.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from ._serialize import dumps, format_float, write_csv
from .diagnostics import (
    SpectrumWriter,
    TrajectoryRecorder,
    default_snapshot_windows,
    detect_instability,
    emit,
)
from .errors import BlowUpError, ConfigError, MassDeficitError, ObserverError, TorusNLSError
from .integrator import StepScheme, StepVariant, integrate
from .spectral import Grid, Mode, SpectralField, mod_reduce
from .stability import (
    build_frequency_table,
    cfl_max_h,
    check_assumption1,
    check_assumption2,
)

__all__ = [
    "RunConfig",
    "random_initial_datum",
    "cmd_check",
    "cmd_simulate",
    "cmd_sweep",
    "cmd_figures",
    "main",
    "entrypoint",
]

_SCHEMES = tuple(v.value for v in StepVariant)

# Threshold factor for the instability verdict; matches the orbital-distance
# envelope 10*epsilon used by the stable-run criterion.
_THRESHOLD_FACTOR = 10.0

# Default run length in time units: n_steps = round(_HORIZON / h) when unset.
_HORIZON = 1e4


@dataclass(frozen=True)
class RunConfig:
    """Fully validated experiment configuration: every default, derived value
    and check of a run lives here.

    rho2 is the squared plane-wave amplitude.  Left unset (None), ell is the
    origin of the d-dimensional grid, n_steps is round(_HORIZON / h) and s2 is 5N;
    ell is always reduced mod 2K into the grid.
    """

    d: int = 1
    K: int = 16
    ell: Mode | None = None
    lam: int = -1
    rho2: float = 0.4
    h: float = 0.04
    scheme: str = StepVariant.LIE_TROTTER.value
    n_steps: int | None = None
    s: float = 5.0
    epsilon: float = 0.01
    seed: int = 1
    N: int = 5
    c2: float = 8.0
    delta2: float = 0.1
    s2: float | None = None
    out: str = "out"
    cadence: int | None = None
    exhaustive: bool = False

    @property
    def rho(self) -> float:
        return math.sqrt(self.rho2)

    @property
    def horizon(self) -> float:
        return self.n_steps * self.h

    def grid(self) -> Grid:
        return Grid(K=self.K, d=self.d)

    def step_scheme(self) -> StepScheme:
        return StepScheme(variant=StepVariant(self.scheme), h=self.h)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.d < 1 or self.K < 1:
            raise ConfigError(f"d and K must be positive, got d={self.d} K={self.K}")
        # numpy indexes the (2K)^d coefficients with np.intp.  Every d > 64
        # overflows it (and numpy's axis limit); refusing those first keeps
        # the exact power below 4096 bits.
        limit = np.iinfo(np.intp).max
        if self.d > 64 or (2 * min(self.K, limit)) ** self.d > limit:
            raise ConfigError(
                f"d = {self.d} with K = {self.K} gives (2K)^d coefficients, "
                f"more than numpy can index ({limit})"
            )
        if self.lam not in (-1, 1):
            raise ConfigError(f"lambda must be +1 or -1, got {self.lam}")
        if self.h <= 0.0:
            raise ConfigError(f"h must be positive, got {self.h}")
        if self.rho2 <= 0.0:
            raise ConfigError(f"rho2 must be positive, got {self.rho2}")
        if self.ell is None:
            object.__setattr__(self, "ell", (0,) * self.d)
        if len(self.ell) != self.d:
            raise ConfigError(f"ell {self.ell} does not have d={self.d} components")
        object.__setattr__(self, "ell", mod_reduce(self.ell, self.grid()))
        if self.n_steps is None:
            steps = _HORIZON / self.h
            if not math.isfinite(steps):
                raise ConfigError(
                    f"h = {self.h} is too small: the default horizon {_HORIZON:g} "
                    "would take infinitely many steps"
                )
            object.__setattr__(self, "n_steps", round(steps))
        if self.n_steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.n_steps}")
        if self.s < 0.0:
            raise ConfigError(f"s must be nonnegative, got {self.s}")
        if self.epsilon < 0.0:
            raise ConfigError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.N < 1:
            raise ConfigError(f"N must be >= 1, got {self.N}")
        if self.N > sys.float_info.max / 5.0:  # an exact int-float comparison
            raise ConfigError("N is too large: s2 = 5N must be a finite float")
        if self.s2 is None:
            object.__setattr__(self, "s2", 5.0 * self.N)
        if self.c2 <= 0.0 or self.delta2 <= 0.0 or self.s2 <= 0.0:
            raise ConfigError("c2, delta2 and s2 must be positive")
        if self.cadence is not None and self.cadence < 1:
            raise ConfigError(f"cadence must be >= 1, got {self.cadence}")
        if self.scheme not in _SCHEMES:
            raise ConfigError(
                f"scheme must be one of {', '.join(_SCHEMES)}, got {self.scheme!r}"
            )


# Config-file and flag keys are the RunConfig field names, except these two;
# the step count may also be given as a horizon.
_KEY_OF_FIELD = {"lam": "lambda", "n_steps": "steps"}
_FIELD_OF_KEY = {key: name for name, key in _KEY_OF_FIELD.items()}
_CONFIG_KEYS = frozenset(
    [_KEY_OF_FIELD.get(f.name, f.name) for f in fields(RunConfig)] + ["horizon"]
)
# the field annotations are strings (postponed evaluation); ell is parsed apart,
# and the horizon is a float key without a field
_FIELD_TYPES = {f.name: f.type.removesuffix(" | None") for f in fields(RunConfig)}
_FIELD_TYPES["horizon"] = "float"
_CASTS = {"int": int, "float": float, "str": str, "bool": bool}


def _coerce(key: str, kind: str, value):
    """value as a `kind` ("int", "float", "str" or "bool"); ConfigError names key.

    Only a bool kind takes a bool, or its spelling (bool() would turn "false"
    into True), and an int kind takes no fraction (int() would drop it).
    """
    if kind == "bool" and value in ("true", "false"):
        value = value == "true"
    expected = "true or false" if kind == "bool" else kind
    if (kind == "bool") != isinstance(value, bool) or (
        kind == "int" and isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigError(f"{key} must be {expected}, got {value!r}")
    try:
        return _CASTS[kind](value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be {expected}, got {value!r}") from exc


def _parse_ell(raw) -> Mode | None:
    """Carrier mode from an int, a sequence or a comma-separated string.

    Each component follows the int-field rule of _coerce.  A scalar 0 is the
    origin in any dimension, so it leaves ell unset (None).
    """
    if isinstance(raw, str):
        raw = [p for p in raw.split(",") if p.strip()]
    elif not isinstance(raw, (list, tuple)):
        raw = [raw]
    comps = tuple(_coerce("ell components", "int", c) for c in raw)
    return None if comps == (0,) else comps


def _cast(name: str, value):
    """Coerce a config value to the type of its RunConfig field (or the horizon)."""
    if name == "ell":
        return _parse_ell(value)
    return _coerce(_KEY_OF_FIELD.get(name, name), _FIELD_TYPES[name], value)


def build_config(file_values: dict | None, overrides: dict) -> RunConfig:
    """Merge config-file values and flag overrides into a RunConfig.

    Flags beat the file, and a None value counts as unset, so RunConfig's
    default applies.  A horizon T gives steps = round(T / h).
    """
    merged = {}
    for source in (file_values or {}, overrides):
        unknown = set(source) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(
            (_FIELD_OF_KEY.get(k, k), v) for k, v in source.items() if v is not None
        )
    horizon = merged.pop("horizon", None)
    if horizon is not None and "n_steps" in merged:
        raise ConfigError("give either steps or horizon, not both")

    config = RunConfig(**{name: _cast(name, v) for name, v in merged.items()})
    if horizon is not None:
        steps = _cast("horizon", horizon) / config.h
        if not math.isfinite(steps):
            raise ConfigError(
                f"horizon {horizon!r} over h = {config.h} gives no finite step count"
            )
        config = replace(config, n_steps=round(steps))
    return config


def random_initial_datum(config: RunConfig) -> SpectralField:
    """Random field with carrier mass rho and non-carrier H^s distance epsilon.

    Draws i.i.d. complex standard normals per mode (real/imaginary pairs in
    grid storage order) from the package's own Philox4x64-10 + ziggurat
    stream (torusnls._philox), which equals numpy >= 2.0's
    Generator(Philox(seed)).standard_normal without importing numpy.random;
    zeros the carrier slot, damps each coefficient by |j - ell|^-(s+1)
    (mod-reduced offset), rescales the non-carrier block so the recentered
    H^s norm is exactly epsilon, and sets the carrier coefficient to the
    positive real number restoring total mass rho^2.  Bit-reproducible for a
    given seed, whatever the numpy version.
    Raises ConfigError, before drawing, unless epsilon < rho.
    """
    if config.epsilon >= config.rho:
        raise ConfigError(
            f"epsilon = {config.epsilon} must stay below rho = {config.rho} "
            "(carrier mass budget)"
        )
    # the sampler loads on first use; check and sweep never draw a datum
    from ._philox import standard_normal

    grid = config.grid()
    pairs = standard_normal(config.seed, 2 * grid.size).reshape(grid.shape + (2,))
    c = pairs[..., 0] + 1j * pairs[..., 1]

    carrier = grid.index_of(config.ell)
    c[carrier] = 0.0

    if config.epsilon == 0.0:
        c[...] = 0.0
    else:
        minus_ell = tuple(-c for c in config.ell)
        dist2 = grid.shift(grid.mode_norm2, minus_ell).astype(np.float64)
        dist2[carrier] = 1.0
        c *= dist2 ** (-(config.s + 1.0) / 2.0)
        norm_s = math.sqrt(float(np.sum(dist2**config.s * np.abs(c) ** 2)))
        c *= config.epsilon / norm_s

    rad = config.rho2 - float(np.sum(np.abs(c) ** 2))
    if rad < 0.0:
        raise MassDeficitError(
            f"non-carrier mass exceeds the budget rho^2 = {config.rho2}"
        )
    c[carrier] = math.sqrt(rad)
    return SpectralField(grid, c)


def _check_payload(config: RunConfig) -> tuple[dict, bool]:
    grid = config.grid()
    # the certified step bound is only defined for order N >= 2
    cfl = cfl_max_h(config.d, config.K, config.rho, config.N) if config.N >= 2 else None
    table = build_frequency_table(config.h, config.rho, config.lam, config.ell, grid)
    a1 = check_assumption1(table)
    payload: dict = {
        "parameters": {
            "d": config.d,
            "K": config.K,
            "ell": config.ell,
            "lambda": config.lam,
            "rho2": config.rho2,
            "h": config.h,
            "N": config.N,
            "c2": config.c2,
            "delta2": config.delta2,
            "s2": config.s2,
        },
        "cfl_max_h": cfl,
        "cfl_satisfied": None if cfl is None else config.h <= cfl,
        "assumption1": asdict(a1),
        "max_growth": table.max_growth(),
    }
    if a1.holds:
        start = time.perf_counter()
        a2 = check_assumption2(
            table,
            N=config.N,
            c2=config.c2,
            delta2=config.delta2,
            s2=config.s2,
            exhaustive=config.exhaustive,
        )
        elapsed = time.perf_counter() - start
        payload["assumption2"] = asdict(a2)
        payload["timing"] = {
            "assumption2_s": elapsed,
            "vectors_per_s": a2.n_vectors / elapsed,
        }
        ok = a2.holds
    else:
        payload["assumption2"] = "skipped"
        payload["timing"] = None
        ok = False
    return payload, ok


def _environment() -> dict:
    """The Python and numpy versions and the core count of this process."""
    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def cmd_check(config: RunConfig) -> int:
    """Run CFL, linear-stability, and non-resonance checks; print a JSON report.

    The report ends with an "environment" block, as in simulate's meta JSON.
    """
    payload, ok = _check_payload(config)
    payload["environment"] = _environment()
    print(dumps(payload))
    return 0 if ok else 1


def _run_id(config: RunConfig) -> str:
    return f"nls_{config.scheme}_h{config.h:g}_K{config.K}_seed{config.seed}"


def _make_out_dir(out: str) -> None:
    """Create the output directory before any work; ConfigError when it
    cannot be made (--out names a file, or a path under one)."""
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out!r} cannot be a directory: {exc.strerror}") from exc


def cmd_simulate(config: RunConfig, runid: str | None = None) -> int:
    """Integrate a random initial datum and emit trajectory diagnostics.

    The output directory is made before the first step.  The spectrum CSV
    is written while the run goes on: the recorder streams each block's
    snapshots into a SpectrumWriter, and emit closes it.  On an exception
    other than a blow-up the writer is closed too, and the rows written so
    far stay behind.

    The meta JSON records the run's timing (time.perf_counter, in process):
    wall_s, step_s (integration minus observer time), steps_per_s (steps
    over step_s), observe_s (the observer's calls plus the recorder's
    finalize, which computes the last block of samples, less the time the
    spectrum writer took in them) and emit_s (both CSVs, the streamed
    spectrum rows included); and its environment: the Python and numpy
    versions and the core count.
    """
    started = time.perf_counter()
    runid = runid or _run_id(config)
    datum = random_initial_datum(config)
    table = build_frequency_table(
        config.h, config.rho, config.lam, config.ell, config.grid()
    )
    _make_out_dir(config.out)
    with SpectrumWriter(os.path.join(config.out, f"{runid}_spectrum.csv"), table.grid) as spectrum:
        recorder = TrajectoryRecorder(
            table,
            config.s,
            snapshot_windows=default_snapshot_windows(config.horizon),
            metadata={
                "runid": runid,
                "scheme": config.scheme,
                "epsilon": config.epsilon,
                "seed": config.seed,
                "n_steps": config.n_steps,
                "cadence": config.cadence,
                "version": __version__,
            },
            spectrum=spectrum,
        )
        observe_s = 0.0

        def observe(n: int, u: SpectralField) -> None:
            nonlocal observe_s
            t0 = time.perf_counter()
            try:
                recorder(n, u)
            finally:
                observe_s += time.perf_counter() - t0

        blown_up: BlowUpError | None = None
        integrate_start = time.perf_counter()
        try:
            integrate(
                datum,
                config.step_scheme(),
                config.lam,
                config.n_steps,
                observer=observe,
                cadence=config.cadence,
            )
        except ObserverError as exc:
            if isinstance(exc.cause, BlowUpError):
                blown_up = exc.cause
            else:
                raise
        step_s = time.perf_counter() - integrate_start - observe_s
        steps = config.n_steps if blown_up is None else blown_up.step

        finalize_start = time.perf_counter()
        diag = recorder.finalize()  # computes the last block of samples
        observe_s += time.perf_counter() - finalize_start
        observe_s -= spectrum.seconds  # counted in emit_s
        if blown_up is not None:
            diag.metadata["blow_up_step"] = blown_up.step
            diag.metadata["blow_up_time"] = blown_up.time
        if diag.times.size and config.epsilon > 0.0:
            inst = detect_instability(
                diag.times, diag.orbital_distance, config.epsilon, _THRESHOLD_FACTOR
            )
            diag.metadata["instability"] = asdict(inst)
        diag.metadata["environment"] = _environment()
        diag.metadata["timing"] = {
            "steps_per_s": steps / step_s if step_s > 0.0 else None,
            "step_s": step_s,
            "observe_s": observe_s,
        }
        emit(diag, config.out, started, spectrum)

    if blown_up is not None:
        print(
            f"{runid}: blow-up at step {blown_up.step} "
            f"(t = {format_float(blown_up.time)}); partial output in {config.out}"
        )
        return 3
    if diag.times.size:
        print(
            f"{runid}: {config.n_steps} steps done; "
            f"max orbital distance {format_float(float(np.max(diag.orbital_distance)))} "
            f"(epsilon = {format_float(config.epsilon)}); output in {config.out}"
        )
    else:
        print(f"{runid}: no samples recorded; output in {config.out}")
    return 0


def _parse_axis(raw: str | None, name: str) -> list[float]:
    """The values of a comma-separated --h or --rho2 flag; none when it is unset."""
    if raw is None:
        return []
    try:
        values = [float(p) for p in raw.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {name} axis from {raw!r}") from exc
    if not values:
        raise ConfigError(f"--{name} gives no values: {raw!r}")
    return values


def cmd_sweep(config: RunConfig, h_axis: str | None, rho2_axis: str | None) -> int:
    """Run the assumption checks over a grid of (h, rho2) points, one by one.

    Writes <out>/sweep_summary.csv with one row per grid point
    (h, rho, assumption1, c1, assumption2, max_growth); per-point failures
    are recorded in the row and the sweep continues.
    """
    hs = _parse_axis(h_axis, "h") or [config.h]
    rho2s = _parse_axis(rho2_axis, "rho2") or [config.rho2]
    points = [(h, r2) for h in hs for r2 in rho2s]

    def one(point: tuple[float, float]) -> dict:
        h, rho2 = point
        row = {
            "h": h,
            "rho": math.sqrt(rho2) if rho2 >= 0.0 else math.nan,
            "assumption1": "error",
            "c1": math.nan,
            "assumption2": "error",
            "max_growth": math.nan,
        }
        try:
            cfg = replace(config, h=h, rho2=rho2)
            payload, _ = _check_payload(cfg)
            row["assumption1"] = payload["assumption1"]["holds"]
            row["c1"] = payload["assumption1"]["c1_certified"]
            a2 = payload["assumption2"]
            row["assumption2"] = (
                "skipped" if a2 == "skipped" else a2["holds"]
            )
            row["max_growth"] = payload["max_growth"]
        except TorusNLSError:
            pass
        return row

    _make_out_dir(config.out)
    rows = [one(p) for p in points]

    out_path = os.path.join(config.out, "sweep_summary.csv")
    columns = ("h", "rho", "assumption1", "c1", "assumption2", "max_growth")
    write_csv(out_path, columns, ([row[k] for k in columns] for row in rows))
    print(f"sweep: {len(rows)} points -> {out_path}")
    return 0


_FIGURE_PRESETS = {
    "fig1": {"h": 0.04},
    "fig2": {"h": 0.044},
    "fig3": {"h": 0.042},
}


def cmd_figures(config: RunConfig, which: str) -> int:
    """Run one of the three preset long-time experiments (fig1/fig2/fig3).

    The preset fixes h and runs to the default horizon t = _HORIZON, so a
    configured step count or horizon is ignored.
    """
    if which not in _FIGURE_PRESETS:
        raise ConfigError(f"unknown figure preset {which!r}")
    preset = _FIGURE_PRESETS[which]
    cfg = replace(config, h=preset["h"], n_steps=None)
    return cmd_simulate(cfg, runid=which)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--h", help="time step (comma list in sweep)")
    p.add_argument("--rho2", help="squared carrier amplitude (comma list in sweep)")
    p.add_argument("--K", type=int, help="modes per axis half-width")
    p.add_argument("--d", type=int, help="spatial dimension")
    p.add_argument("--ell", help="carrier mode, comma-separated components")
    p.add_argument("--lambda", dest="lambda", type=int, choices=(-1, 1),
                   help="nonlinearity sign: +1 defocusing, -1 focusing")
    p.add_argument("--scheme", choices=_SCHEMES, help="splitting variant")
    p.add_argument("--steps", type=int, help="number of time steps")
    p.add_argument("--horizon", type=float, help="final time T; steps = round(T/h)")
    p.add_argument("--s", type=float, help="Sobolev exponent")
    p.add_argument("--epsilon", type=float, help="initial orbital distance")
    p.add_argument("--seed", type=int, help="PRNG seed")
    p.add_argument("--N", type=int, help="non-resonance order bound")
    p.add_argument("--c2", type=float, help="non-resonance constant c2")
    p.add_argument("--delta2", type=float, help="small-divisor threshold delta2")
    p.add_argument("--s2", type=float, help="non-resonance exponent s2 (default 5N)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--cadence", type=int, help="observer cadence in steps")
    p.add_argument("--exhaustive", action="store_const", const=True, default=None,
                   help="keep enumerating after the first violation")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = None
    if args.config is not None:
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"cannot parse config file {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")

    overrides = {key: getattr(args, key) for key in _CONFIG_KEYS}
    for key in ("h", "rho2"):
        raw = overrides[key]
        axis = _parse_axis(raw, key)
        if len(axis) > 1 and args.command != "sweep":
            raise ConfigError(f"--{key} takes one value outside sweep, got {raw!r}")
        # a sweep axis of several points leaves the base config's value alone
        overrides[key] = axis[0] if len(axis) == 1 else None
    return build_config(file_values, overrides)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="torusnls",
        description=(
            "Split-step Fourier simulation and plane-wave stability analysis "
            "for the cubic nonlinear Schrodinger equation on a torus."
        ),
    )
    parser.add_argument("--version", action="version", version=f"torusnls {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run CFL, linear-stability and non-resonance checks")
    _add_common_flags(p_check)
    p_sim = sub.add_parser("simulate", help="integrate a random datum and emit diagnostics")
    _add_common_flags(p_sim)
    p_sweep = sub.add_parser("sweep", help="assumption checks over an (h, rho2) grid")
    _add_common_flags(p_sweep)
    p_fig = sub.add_parser("figures", help="preset long-time experiments")
    p_fig.add_argument("which", choices=sorted(_FIGURE_PRESETS))
    _add_common_flags(p_fig)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching the config-error code
        return int(exc.code or 0)

    try:
        config = _config_from_args(args)
        if args.command == "check":
            return cmd_check(config)
        if args.command == "simulate":
            return cmd_simulate(config)
        if args.command == "sweep":
            return cmd_sweep(config, args.h, args.rho2)
        if args.command == "figures":
            return cmd_figures(config, args.which)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
