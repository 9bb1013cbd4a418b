"""Trajectory observables: orbital distance, super-actions, instability
detection, and file emission.

The super-actions I_m = sum_{n(l)=m} |xi_l|^2 collect the diagonalized
actions over modes with equal coupling index n(l); near-conservation of the
weighted deviation D = sum_m max(1,m)^s |I_m - I_m(0)| is the long-time
stability diagnostic.  Orbital distance is the H^s norm of the field with
the carrier mode removed.

TrajectoryRecorder takes the run's plane-wave context as one FrequencyTable
(grid, carrier, h, rho, lambda): it builds the diagonalizers from that table
and writes those parameters into the metadata from it.  It copies each
observed field into a block buffer made when the recorder is built, and
computes the observables per block of samples, through the public
functions: each takes a batch (leading axis B) as it takes one field
(SpectralField.mass, sobolev_norm, project_away, u_to_xi, super_actions,
weighted_deviation), in one pass per block, so a block gives the bits a
sample at a time gives.  The buffer's first rows are the block's batch, and
the shown rows' magnitudes go into a second reused buffer, so a block
allocates no array of its own size for them.  Two traps would break those
bits: a batch gathered with rows[:, idx] is not C-contiguous, and a row sum
over it adds in sequence instead of pairwise (Grid.shift gathers with
take(idx, axis=1)); and np.arctan2 differs from math.atan2 in the last bit
on SIMD hosts (u_to_xi takes the carrier angle with math.atan2 per row).
Every complex product also keeps its operand order, since numpy's SIMD
complex multiply is not symmetric in its operands.

File emission writes three artifacts per run id: a series CSV
(t, mass, orbital_distance, D), a long-format spectrum CSV of per-mode
magnitudes inside configured time windows, and a JSON metadata sidecar.
All floats are written with 17 significant digits.  Spectrum rows are
formatted by one SpectrumWriter, the only way snapshots leave a recorder:
the recorder streams each block's snapshots into it while the run goes on
and keeps none of them, so the run's memory does not grow with its length;
emit writes the series and metadata and closes that writer.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._serialize import FloatFormatter, dumps, format_float
from .errors import (
    BlowUpError,
    ClassSetMismatchError,
    DomainError,
    NotLinearlyStableError,
)
from .spectral import Grid, SpectralField, project_away, sobolev_norm
from .stability import FrequencyTable
from .transforms import DiagonalizerSet, XiField, _xi_undefined, build_diagonalizers, u_to_xi

__all__ = [
    "SuperActionSet",
    "InstabilityReport",
    "TrajectoryDiagnostics",
    "TrajectoryRecorder",
    "super_actions",
    "weighted_deviation",
    "detect_instability",
    "default_snapshot_windows",
    "SpectrumWriter",
    "emit",
]

# SpectrumWriter formats the magnitudes this many at a time (whole snapshots
# where they fit), as emit formats the series' values
_EMIT_VALUES = 2048

# TrajectoryRecorder computes its kept samples' observables in one pass per
# block of _BLOCK_ROWS samples, fewer on a grid of more than 256 modes so a
# block holds at most _BLOCK_ENTRIES coefficients
_BLOCK_ROWS = 64
_BLOCK_ENTRIES = 64 * 256


def _block_rows(grid: Grid) -> int:
    """Samples per block of a TrajectoryRecorder on this grid."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_ENTRIES // grid.size))


@dataclass(frozen=True, eq=False)
class SuperActionSet:
    """Per-class action sums I_m, keyed by the coupling index m = n(j).

    Classes are sorted ascending; the values partition the total action,
    sum_m I_m = sum_j |xi_j|^2.  values is a read-only float64 array,
    (classes,) for one set and (B, classes) for a batch of sets
    (super_actions of a batch), one row per set; values whose last axis
    does not hold one value per class raise ClassSetMismatchError.
    """

    ms: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        # a read-only view, so an array passed in stays writable for its owner
        values = np.asarray(self.values, dtype=np.float64).view()
        if values.ndim not in (1, 2) or values.shape[-1] != len(self.ms):
            raise ClassSetMismatchError(
                f"values of shape {values.shape} for {len(self.ms)} classes {self.ms}: "
                "the last axis must hold one value per class"
            )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def super_actions(xi: XiField) -> SuperActionSet:
    """Group |xi_j|^2 over nonzero modes by the coupling index n(j).

    A batch of xi maps gives a batch of sets: values holds one row per map.
    The sums are one bincount over all rows, with row b's classes offset by
    b times (classes + 1): a bin adds its weights in storage order, as a
    bincount of the row alone does.  The extra class per row holds the
    origin, dropped.
    """
    table = xi.ctx.table
    ms, index = table.coupling_classes
    rows = xi.xi.reshape(-1, table.grid.size)
    n, width = len(rows), len(ms) + 1
    bins = index + width * np.arange(n)[:, None]
    weights = np.abs(rows)
    np.square(weights, out=weights)
    sums = np.bincount(bins.reshape(-1), weights=weights.reshape(-1), minlength=n * width)
    values = sums.reshape(n, width)[:, :-1]
    return SuperActionSet(ms=ms, values=values if xi.xi.ndim > xi.grid.d else values[0])


@lru_cache(maxsize=16)
def _class_weights(ms: tuple[int, ...], s: float) -> np.ndarray:
    w = np.array([float(max(1, m)) ** s for m in ms])
    w.flags.writeable = False
    return w


def weighted_deviation(
    now: SuperActionSet, initial: SuperActionSet, s: float
) -> float | np.ndarray:
    """D = sum_m max(1, m)^s |I_m - I_m(0)|.

    The weights are computed once per class set and s.  The terms are
    formed elementwise in float64 and summed strictly left to right over
    the classes by np.add.accumulate (each partial sum rounded, as a
    Python left fold rounds it), so D depends neither on numpy's pairwise
    summation nor on the compensated sum() of Python 3.12 and later.  An
    empty class set gives 0.0.  now may be a batch of sets (super_actions
    of a batch); D is then an array with one value per row.
    """
    if now.ms != initial.ms:
        raise ClassSetMismatchError(
            f"class sets differ: {now.ms} vs {initial.ms}"
        )
    terms = _class_weights(now.ms, s) * np.abs(now.values - initial.values)
    if now.ms:
        d = np.add.accumulate(terms, axis=-1)[..., -1]
    else:
        d = np.zeros(terms.shape[:-1])
    return float(d) if d.ndim == 0 else d


@dataclass(frozen=True)
class InstabilityReport:
    """Threshold verdict with onset time and fitted exponential growth rate.

    onset_time is the first sample time where the distance exceeds twice
    epsilon (NaN if never); growth_rate is the least-squares slope of
    log(distance) per unit time over samples with distance in
    [2*epsilon, 50*epsilon] (NaN when fewer than two samples fall there).
    """

    verdict: bool
    onset_time: float
    growth_rate: float
    threshold_factor: float
    epsilon: float


def detect_instability(
    times, distances, epsilon: float, threshold_factor: float
) -> InstabilityReport:
    """Flag orbital-distance growth beyond threshold_factor * epsilon.

    Raising threshold_factor never flips a false verdict to true.
    """
    t = np.asarray(times, dtype=np.float64)
    v = np.asarray(distances, dtype=np.float64)
    if t.size == 0 or t.shape != v.shape:
        raise DomainError("need a nonempty series of equal-length times and distances")
    if not (epsilon > 0.0 and threshold_factor > 0.0):
        raise DomainError("epsilon and threshold_factor must be positive")

    verdict = bool(np.nanmax(v) > threshold_factor * epsilon)

    crossed = np.flatnonzero(v > 2.0 * epsilon)
    onset = float(t[crossed[0]]) if crossed.size else math.nan

    window = (v >= 2.0 * epsilon) & (v <= 50.0 * epsilon)
    if np.count_nonzero(window) >= 2:
        rate = float(np.polyfit(t[window], np.log(v[window]), 1)[0])
    else:
        rate = math.nan
    return InstabilityReport(
        verdict=verdict,
        onset_time=onset,
        growth_rate=rate,
        threshold_factor=float(threshold_factor),
        epsilon=float(epsilon),
    )


@dataclass(frozen=True, eq=False)
class TrajectoryDiagnostics:
    """Sampled observables of one trajectory plus run metadata.

    deviation is NaN throughout when the diagonalizing transform is
    unavailable (linearly unstable parameters) and at samples where the
    transform failed; metadata["transform_ok"] records which.
    """

    grid: Grid
    times: np.ndarray
    mass: np.ndarray
    orbital_distance: np.ndarray
    deviation: np.ndarray
    metadata: dict

    def __post_init__(self):
        for name in ("times", "mass", "orbital_distance", "deviation"):
            getattr(self, name).flags.writeable = False


class SpectrumWriter:
    """The spectrum CSV of one run, written a batch of snapshots at a time.

    Columns t, j, abs_uj (j1, ..., jd for d > 1), one row per mode in
    storage order for each snapshot.  Building one does nothing else: the
    first write builds the FloatFormatter and the parts list of a snapshot's
    rows (per mode its time prefix, its ",j," label and its cell), opens
    path (whose directory must exist) and writes the header; close() after
    no write leaves the header alone.  write() formats the magnitudes
    _EMIT_VALUES at a time, as many whole snapshots as fit (a larger
    snapshot alone, in passes of _EMIT_VALUES), and each snapshot's rows
    take its cells in one formatting call and are one join of the parts
    list; the formatter gives format_float's bytes, so a file does not
    depend on how its snapshots were batched.  seconds is the
    time.perf_counter total spent in write() and close().  As a context
    manager it is closed on exit, after an exception too.
    """

    def __init__(self, path: str, grid: Grid):
        self.path = path
        self.grid = grid
        self.seconds = 0.0
        self._fh = None
        self._formatter: FloatFormatter | None = None
        self._parts: list[bytes] = []

    def _file(self):
        """The open file, its header written; made at the first call."""
        if self._fh is None:
            d = self.grid.d
            mode_cols = ["j"] if d == 1 else [f"j{i + 1}" for i in range(d)]
            self._fh = open(self.path, "wb")
            self._fh.write(",".join(["t", *mode_cols, "abs_uj"]).encode() + b"\n")
        return self._fh

    def write(self, times, mags: np.ndarray) -> None:
        """Append the rows of the snapshots at times (floats); mags is one
        array with a leading snapshot axis, mags[i] the grid-shaped
        magnitudes of snapshot i.  After close() it raises ValueError, as a
        closed file does."""
        if not len(times):
            return
        start = time.perf_counter()
        size = self.grid.size
        if self._formatter is None:
            self._formatter = FloatFormatter(_EMIT_VALUES)
            # three parts per row, the time prefix, the label and the cell;
            # each prefix after the first also ends the row before
            self._parts = [b""] * (3 * size) + [b"\n"]
            self._parts[1::3] = [f",{','.join(map(str, j))},".encode() for j in self.grid.modes()]
        parts = self._parts
        fh = self._file()
        per_pass = max(1, _EMIT_VALUES // size)
        for first in range(0, len(times), per_pass):
            cells = self._formatter(mags[first : first + per_pass])
            for i, t in enumerate(times[first : first + per_pass]):
                prefix = format_float(float(t)).encode()
                parts[0] = prefix
                parts[3:-1:3] = [b"\n" + prefix] * (size - 1)
                parts[2::3] = cells[i * size : (i + 1) * size]
                fh.write(b"".join(parts))
        self.seconds += time.perf_counter() - start

    def close(self) -> None:
        """Finish the file (the header alone if nothing was written); a
        second close does nothing."""
        start = time.perf_counter()
        self._file().close()
        self.seconds += time.perf_counter() - start

    def __enter__(self) -> SpectrumWriter:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TrajectoryRecorder:
    """Observer callback accumulating diagnostics during integration.

    Samples arrive at the integrator's cadence; each records time, mass,
    orbital distance, super-action deviation (relative to the first sample
    whose xi map succeeds), and a mode-magnitude snapshot when the time falls
    inside one of the snapshot windows.  Pass the instance as the observer
    to integrate(), then call finalize().  The snapshots go to the
    SpectrumWriter spectrum as each block is computed, and none is kept;
    snapshot windows without a writer raise DomainError here, and a
    recorder without windows computes no magnitudes.

    A call checks the field and copies it into the next row of the block
    buffer: a field of another shape raises DomainError and one with
    non-finite values BlowUpError, both at once and in that order, and
    neither is copied.
    The observables are computed per block of kept samples (64 of them, or
    fewer on a grid of more than 256 modes, so a block holds at most 16384
    coefficients), each public function once over the buffer's filled rows
    as a batch: SpectralField.mass, sobolev_norm of project_away, u_to_xi,
    super_actions, weighted_deviation and the snapshot magnitudes, which go
    into a magnitude buffer of the same rows.  Both buffers are made when
    the recorder is built and reused by every block.  Each row
    gets the bits the function gives the sample alone (the module docstring
    names the two traps that would break this).  finalize() computes the
    last, partial block (and streams its snapshots); after a BlowUpError it
    returns the samples before it.

    table is the frequency table of the run's plane wave; when its
    parameters are not linearly stable the deviation is NaN throughout
    (transform_ok false), and a sample whose xi map fails (mass off the
    rho^2 budget, zero carrier) has D = NaN.  s, the Sobolev exponent of
    the orbital distance and the class weights, must be finite and
    nonnegative (DomainError).
    """

    def __init__(
        self,
        table: FrequencyTable,
        s: float,
        snapshot_windows: tuple[tuple[float, float], ...] = (),
        metadata: dict | None = None,
        spectrum: SpectrumWriter | None = None,
    ):
        if not (s >= 0.0 and math.isfinite(s)):
            raise DomainError(f"s must be finite and nonnegative, got {s!r}")
        self.table = table
        self.s = float(s)
        self.windows = tuple((float(a), float(b)) for a, b in snapshot_windows)
        self.metadata = dict(metadata or {})
        if self.windows and spectrum is None:
            raise DomainError(
                f"snapshot windows {self.windows} need a SpectrumWriter (spectrum) to stream into"
            )
        self.spectrum = spectrum

        self._ctx: DiagonalizerSet | None
        try:
            self._ctx = build_diagonalizers(table)
        except NotLinearlyStableError:
            self._ctx = None

        grid = table.grid
        block = _block_rows(grid)
        self._sa0: SuperActionSet | None = None
        # the block's samples: their times and fields in the first _rows rows
        self._times = np.empty(block)
        self._fields = np.empty((block, *grid.shape), dtype=complex)
        self._rows = 0
        # the shown rows' |u_j|, in its first rows; none without windows
        self._mags = np.empty((block, *grid.shape)) if self.windows else None
        # one (4, rows) float64 array per block: times, mass, orbital distance
        # and deviation, 32 bytes a sample
        self._series: list[np.ndarray] = []

    def __call__(self, n: int, u: SpectralField) -> None:
        table = self.table
        t = n * table.h
        if u.coeffs.shape != table.grid.shape:
            raise DomainError(
                f"field shape {u.coeffs.shape} != grid shape {table.grid.shape}"
            )
        # a finite sum has finite terms; an overflowing one gets the full check
        total = u.coeffs.sum()
        finite = math.isfinite(total.real) and math.isfinite(total.imag)
        if not finite and not np.isfinite(u.coeffs).all():
            raise BlowUpError(n, t)
        row = self._rows
        self._times[row] = t
        self._fields[row] = u.coeffs
        self._rows = row + 1
        if self._rows == len(self._fields):
            self._flush()

    def _flush(self) -> None:
        """Compute the kept samples' observables, each function once over the block."""
        rows, self._rows = self._rows, 0
        if not rows:
            return
        table = self.table
        times = self._times[:rows]
        u = SpectralField._adopt(table.grid, self._fields[:rows])
        mass = u.mass()
        orbital = sobolev_norm(project_away(u, table.ell), self.s)
        self._series.append(np.stack((times, mass, orbital, self._deviations_of(u, mass))))
        if not self.windows:  # no snapshot, and perhaps no writer to take one
            return
        shown = np.zeros(rows, dtype=bool)
        for lo, hi in self.windows:
            shown |= (lo <= times) & (times <= hi)
        k = int(np.count_nonzero(shown))
        if k:
            # a block wholly inside the windows needs no boolean-index copy
            fields = u.coeffs if k == rows else u.coeffs[shown]
            self.spectrum.write(times[shown].tolist(), np.abs(fields, out=self._mags[:k]))

    def _deviations_of(self, u: SpectralField, mass: np.ndarray) -> np.ndarray:
        """D of each row of the batch u; NaN without a xi map or where it fails."""
        out = np.full(len(mass), math.nan)
        if self._ctx is None:
            return out
        table = self.table
        grid = table.grid
        carrier = u.coeffs[(slice(None), *grid.index_of(table.ell))]
        ok = np.flatnonzero(_xi_undefined(table, mass, carrier) == 0)
        if ok.size == 0:
            return out
        if ok.size < len(mass):
            u = SpectralField._adopt(grid, u.coeffs[ok])
        sa = super_actions(u_to_xi(u, self._ctx))
        if self._sa0 is None:
            self._sa0 = SuperActionSet(ms=sa.ms, values=sa.values[0])
        out[ok] = weighted_deviation(sa, self._sa0, self.s)
        return out

    def finalize(self) -> TrajectoryDiagnostics:
        self._flush()
        table = self.table
        meta = dict(self.metadata)
        meta.setdefault("h", table.h)
        meta.setdefault("K", table.grid.K)
        meta.setdefault("d", table.grid.d)
        meta.setdefault("ell", table.ell)
        meta.setdefault("lambda", table.lam)
        meta.setdefault("rho", table.rho)
        meta.setdefault("s", self.s)
        meta["transform_ok"] = self._ctx is not None
        meta["snapshot_windows"] = self.windows
        # one array in place of the blocks, so a second call returns the same
        self._series = [np.concatenate(self._series, axis=1) if self._series
                        else np.empty((4, 0))]
        times, mass, orbital, deviation = self._series[0]
        return TrajectoryDiagnostics(
            grid=table.grid,
            times=times,
            mass=mass,
            orbital_distance=orbital,
            deviation=deviation,
            metadata=meta,
        )


def default_snapshot_windows(horizon: float, width: float = 200.0) -> tuple:
    """Two windows of the given width at the start and end of the horizon."""
    if horizon <= 2.0 * width:
        return ((0.0, float(horizon)),)
    return ((0.0, width), (float(horizon) - width, float(horizon)))


def _write_series(path: str, diag: TrajectoryDiagnostics, formatter: FloatFormatter) -> None:
    """The series CSV, formatter.size values (a quarter as many rows) per pass;
    its temporaries are gone when it returns."""
    columns = (diag.times, diag.mass, diag.orbital_distance, diag.deviation)
    per_chunk = formatter.size // len(columns)
    with open(path, "wb") as fh:
        fh.write(b"t,mass,orbital_distance,D\n")
        for first in range(0, len(diag.times), per_chunk):
            rows = np.column_stack([a[first : first + per_chunk] for a in columns])
            fh.write(b"%b,%b,%b,%b\n" * len(rows) % tuple(formatter(rows)))


def emit(
    diag: TrajectoryDiagnostics,
    path: str,
    spectrum: SpectrumWriter,
    started: float | None = None,
) -> None:
    """Write <runid>_series.csv and <runid>_meta.json, and close spectrum.

    path is the output directory (created if missing); the run id comes from
    diag.metadata["runid"] (default "run").  spectrum is the SpectrumWriter
    the recorder of diag streamed its snapshots into; closing it finishes
    the spectrum CSV (the header alone if no snapshot was written).  Files
    are comma-separated with LF line endings; floats carry 17 significant
    digits so a parse recovers them bit-exactly.  An empty trajectory
    produces a header-only series CSV.

    The series' four columns are formatted by _serialize.FloatFormatter,
    512 rows (2048 values) per pass: whole-array passes that give the bytes
    format_float gives, with the values they cannot place exactly (zero,
    non-finite, magnitude outside [1e-280, 1e280), or within 2^-30 of a
    rounding tie) handed to format_float one at a time.  The spectrum
    writer formats its rows in the same way.

    started, a time.perf_counter() reading taken when the run began, adds to
    the metadata's "timing" block wall_s (seconds from started to the meta
    write) and emit_s (seconds spent writing the two CSVs, spectrum.seconds
    from before this call included).
    """
    csv_start = time.perf_counter()
    streamed_s = spectrum.seconds
    runid = str(diag.metadata.get("runid", "run"))
    os.makedirs(path, exist_ok=True)

    _write_series(os.path.join(path, f"{runid}_series.csv"), diag, FloatFormatter(_EMIT_VALUES))
    spectrum.close()

    meta = diag.metadata
    if started is not None:
        now = time.perf_counter()
        meta = {
            **meta,
            "timing": {
                "wall_s": now - started,
                **meta.get("timing", {}),
                "emit_s": now - csv_start + streamed_s,
            },
        }
    meta_path = os.path.join(path, f"{runid}_meta.json")
    with open(meta_path, "w", newline="\n") as fh:
        fh.write(dumps(meta) + "\n")
