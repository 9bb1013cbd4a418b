"""Super-actions, instability detection, trajectory recording, and emission."""

import cmath
import csv
import dataclasses
import itertools
import math
import os
import sys
import time
import tracemalloc

import numpy as np
import pytest

from torusnls import (
    BlowUpError,
    ClassSetMismatchError,
    DomainError,
    NotLinearlyStableError,
    ZeroCarrierModeError,
    Grid,
    SpectralField,
    SpectrumWriter,
    StepScheme,
    StepVariant,
    SuperActionSet,
    TrajectoryRecorder,
    build_diagonalizers,
    build_frequency_table,
    default_snapshot_windows,
    detect_instability,
    emit,
    integrate,
    project_away,
    sobolev_norm,
    super_actions,
    u_to_xi,
    weighted_deviation,
)
from torusnls._serialize import FloatFormatter, format_float, write_csv
from torusnls.diagnostics import _BLOCK_ROWS, TrajectoryDiagnostics, _block_rows
from torusnls.spectral import _row_sums

RHO = math.sqrt(0.4)
H = 0.04
ALL = ((0.0, 1e3),)  # a snapshot window holding every sample of these runs


@pytest.fixture
def table16(grid16):
    return build_frequency_table(H, RHO, -1, (0,), grid16)


@pytest.fixture
def diag16(table16):
    return build_diagonalizers(table16)


def test_super_actions_partition(grid16, make_datum, diag16):
    u = make_datum(grid16, (0,), RHO, 0.01, seed=1)
    xi = u_to_xi(u, diag16)
    sa = super_actions(xi)
    total = float(np.sum(np.abs(xi.xi) ** 2))
    assert sum(sa.values) == pytest.approx(total, rel=1e-14)
    assert list(sa.ms) == sorted(sa.ms)


def test_super_actions_group_negated_modes(grid16, diag16):
    # modes j and -j share n(j) = |j|^2, so their actions land in one class
    c = np.zeros(grid16.shape, dtype=complex)
    c[grid16.index_of((3,))] = 0.1
    c[grid16.index_of((-3,))] = 0.2
    from torusnls import XiField

    xi = XiField(ctx=diag16, xi=c, theta=0.0)
    sa = super_actions(xi)
    by_m = dict(zip(sa.ms, sa.values))
    assert by_m[9] == pytest.approx(0.01 + 0.04, rel=1e-14)


@pytest.mark.parametrize("d, ell", [(1, (0,)), (2, (1, -2))])
def test_super_actions_match_unique_bincount(make_datum, d, ell):
    grid = Grid(K=16 if d == 1 else 5, d=d)
    ctx = build_diagonalizers(build_frequency_table(H, RHO, -1, ell, grid))
    labels = ctx.table.n[grid.nonzero]
    for seed in (1, 2):  # the second call reuses the context's class labels
        xi = u_to_xi(make_datum(grid, ell, RHO, 0.01, seed=seed), ctx)
        ms, inverse = np.unique(labels, return_inverse=True)
        sums = np.bincount(inverse, weights=(np.abs(xi.xi) ** 2)[grid.nonzero])
        sa = super_actions(xi)
        assert sa.ms == tuple(int(m) for m in ms)
        assert sa.values.tolist() == [float(v) for v in sums]


def test_weighted_deviation_hand_value():
    a = SuperActionSet(ms=(1, 4), values=(0.2, 0.3))
    b = SuperActionSet(ms=(1, 4), values=(0.2, 0.3 + 1e-8))
    assert weighted_deviation(a, b, 5.0) == pytest.approx(4.0**5 * 1e-8, rel=1e-12)
    assert weighted_deviation(a, a, 5.0) == 0.0


def test_weighted_deviation_zero_class_uses_unit_weight():
    a = SuperActionSet(ms=(0, 1), values=(0.5, 0.5))
    b = SuperActionSet(ms=(0, 1), values=(0.6, 0.5))
    assert weighted_deviation(a, b, 5.0) == pytest.approx(0.1, rel=1e-12)


def left_fold(terms):
    """The terms summed strictly left to right, each partial sum rounded (the
    builtin sum() is compensated from Python 3.12 on)."""
    total = 0.0
    for t in terms:
        total += t
    return total


def test_weighted_deviation_matches_scalar_sum():
    # reference: the scalar formula, Python pow and abs, in a left fold; the
    # elementwise float64 terms summed by numpy must give the same float
    def scalar(now, initial, s):
        return left_fold(
            float(max(1, m)) ** s * abs(a - b)
            for m, a, b in zip(now.ms, now.values.tolist(), initial.values.tolist())
        )

    rng = np.random.default_rng(7)
    for trial in range(60):
        n = int(rng.integers(1, 40))
        ms = np.sort(rng.choice(300, size=n, replace=False))
        if trial % 2 == 0:
            ms[0] = 0
        ms = tuple(int(m) for m in ms)
        scale = 10.0 ** rng.uniform(-12, 0, size=n)
        a = SuperActionSet(ms=ms, values=tuple((scale * rng.random(n)).tolist()))
        b = SuperActionSet(ms=ms, values=tuple((scale * rng.random(n)).tolist()))
        for s in (0.0, 1.5, 5.0, 25.0):
            assert weighted_deviation(a, b, s) == scalar(a, b, s)
            assert weighted_deviation(b, a, s) == scalar(b, a, s)


def test_weighted_deviation_sums_left_to_right():
    # terms (1e16, 1, 1): each 1 is half an ulp of 1e16 and rounds away (ties
    # to even), so the left fold gives 1e16; Python 3.12's compensated sum()
    # gives 1.0000000000000002e16
    a = SuperActionSet(ms=(0, 1, 2), values=(1e16, 1.0, 1.0))
    b = SuperActionSet(ms=(0, 1, 2), values=(0.0, 0.0, 0.0))
    assert left_fold([1e16, 1.0, 1.0]) == 1e16
    assert weighted_deviation(a, b, 0.0) == 1e16
    batch = SuperActionSet(ms=a.ms, values=[a.values, b.values])
    assert weighted_deviation(batch, b, 0.0).tolist() == [1e16, 0.0]


def test_weighted_deviation_of_no_classes_is_zero():
    empty = SuperActionSet(ms=(), values=())
    assert weighted_deviation(empty, empty, 5.0) == 0.0
    batch = SuperActionSet(ms=(), values=np.empty((3, 0)))
    assert weighted_deviation(batch, empty, 5.0).tolist() == [0.0, 0.0, 0.0]


def test_super_action_set_checks_its_shape():
    # one value per class on the last axis, or ClassSetMismatchError naming
    # both lengths; a 1-value set on two classes used to broadcast silently
    for values in ((0.3,), (0.1, 0.2, 0.3), [(0.1,), (0.2,)], 0.3):
        with pytest.raises(ClassSetMismatchError, match="2 classes") as err:
            SuperActionSet(ms=(1, 4), values=values)
        assert str(np.shape(values)) in str(err.value)
    given = np.array([0.2, 0.3])
    sa = SuperActionSet(ms=(1, 4), values=given)
    assert sa.values.dtype == np.float64 and not sa.values.flags.writeable
    assert given.flags.writeable  # the caller's array is left as it was


def test_super_actions_and_deviation_of_a_batch(grid16, make_datum, diag16):
    # a batch of xi maps gives one set of values per row and one D per row,
    # each bit for bit what the row alone gives
    fields = [make_datum(grid16, (0,), RHO, 0.01, seed=seed) for seed in range(5)]
    batch = super_actions(u_to_xi(SpectralField.stack(grid16, [u.coeffs for u in fields]), diag16))
    alone = [super_actions(u_to_xi(u, diag16)) for u in fields]
    assert batch.ms == alone[0].ms
    assert batch.values.tolist() == [sa.values.tolist() for sa in alone]
    devs = weighted_deviation(batch, alone[0], 5.0)
    assert devs.tolist() == [weighted_deviation(sa, alone[0], 5.0) for sa in alone]
    assert devs[0] == 0.0


def test_weighted_deviation_class_mismatch():
    a = SuperActionSet(ms=(1, 4), values=(0.2, 0.3))
    b = SuperActionSet(ms=(1, 9), values=(0.2, 0.3))
    with pytest.raises(ClassSetMismatchError):
        weighted_deviation(a, b, 5.0)


def test_detect_instability_growing_series():
    t = np.arange(0.0, 10.5, 0.5)
    eps = 0.01
    v = eps * np.exp(0.3 * t)
    r = detect_instability(t, v, eps, 10.0)
    assert r.verdict
    assert r.onset_time == 2.5  # first sample above 2*eps
    assert r.growth_rate == pytest.approx(0.3, abs=1e-9)


def test_detect_instability_stable_series():
    t = np.linspace(0.0, 100.0, 50)
    v = 0.01 * (1.0 + 0.1 * np.sin(t))
    r = detect_instability(t, v, 0.01, 10.0)
    assert not r.verdict
    assert math.isnan(r.onset_time)
    assert math.isnan(r.growth_rate)


def test_detect_instability_factor_monotonic():
    t = np.arange(0.0, 10.5, 0.5)
    v = 0.01 * np.exp(0.3 * t)
    flagged = detect_instability(t, v, 0.01, 10.0).verdict
    relaxed = detect_instability(t, v, 0.01, 1e6).verdict
    assert flagged and not relaxed


def test_detect_instability_ignores_nan_samples():
    t = np.array([0.0, 1.0, 2.0])
    v = np.array([0.01, np.nan, 0.5])
    assert detect_instability(t, v, 0.01, 10.0).verdict


def test_detect_instability_validation():
    with pytest.raises(DomainError):
        detect_instability(np.array([]), np.array([]), 0.01, 10.0)
    with pytest.raises(DomainError):
        detect_instability(np.array([0.0]), np.array([1.0, 2.0]), 0.01, 10.0)
    with pytest.raises(DomainError):
        detect_instability(np.array([0.0]), np.array([1.0]), 0.0, 10.0)
    for eps, factor in ((math.nan, 10.0), (0.01, math.nan)):
        with pytest.raises(DomainError):
            detect_instability(np.array([0.0]), np.array([1.0]), eps, factor)


def test_default_snapshot_windows():
    assert default_snapshot_windows(1e4) == ((0.0, 200.0), (9800.0, 10000.0))
    assert default_snapshot_windows(300.0) == ((0.0, 300.0),)


def _reference_spectrum(grid, snapshots):
    """The spectrum CSV of (t, magnitudes) snapshots, rendered one cell at a
    time with format_float."""
    cols = ["j"] if grid.d == 1 else [f"j{i + 1}" for i in range(grid.d)]
    lines = [["t", *cols, "abs_uj"]]
    for t, mags in snapshots:
        for j, m in zip(grid.modes(), mags.reshape(-1)):
            lines.append([format_float(float(t)), *map(str, j), format_float(float(m))])
    return "".join(",".join(line) + "\n" for line in lines)


def _windowed(samples, h, windows):
    """(t, |u_j|) of each (n, u) sample whose time n * h lies in a window."""
    return [(n * h, np.abs(u.coeffs)) for n, u in samples
            if any(lo <= n * h <= hi for lo, hi in windows)]


def _record(table, samples, out, windows=ALL, runid="run", recorder=TrajectoryRecorder):
    """Feed the (n, u) samples, up to a BlowUpError, to a recorder (of the
    given class) whose writer streams the snapshots in windows into
    out/<runid>_spectrum.csv; close the writer, emit the series into
    out/<runid>_series.csv and return the run's diagnostics."""
    out.mkdir(parents=True, exist_ok=True)
    with SpectrumWriter(str(out / f"{runid}_spectrum.csv"), table.grid, windows) as writer:
        rec = recorder(table, s=5.0, spectrum=writer)
        try:
            for n, u in samples:
                rec(n, u)
        except BlowUpError:
            pass
        diag = rec.finalize()
    emit(diag, str(out / f"{runid}_series.csv"))
    return diag


def test_recorder_series(grid16, table16, make_datum, tmp_path):
    u = make_datum(grid16, (0,), RHO, 0.01, seed=2)
    path = tmp_path / "series_spectrum.csv"
    with SpectrumWriter(str(path), grid16, ((0.0, 100.0),)) as writer:
        rec = TrajectoryRecorder(table16, s=5.0, spectrum=writer)
        integrate(u, StepScheme(StepVariant.LIE_TROTTER, H), -1, 100,
                  observer=rec, cadence=10)
        d = rec.finalize()
    assert d.times.shape == (11,)
    assert d.times[0] == 0.0
    assert d.times[-1] == pytest.approx(100 * H, rel=1e-14)
    assert d.deviation[0] == 0.0
    assert np.all(np.isfinite(d.deviation))
    assert np.all(np.abs(d.mass - 0.4) < 1e-13)
    rows = path.read_bytes().decode().splitlines()
    assert len(rows) == 1 + 11 * 32  # every sample a snapshot of 32 modes
    assert rows[1].startswith("0,-16,") and rows[-1].startswith("4,15,")
    assert d.transform_ok is True
    # the snapshots leave through the writer alone, and the run's metadata
    # is its caller's (cmd_simulate builds the meta JSON)
    assert [f.name for f in dataclasses.fields(TrajectoryDiagnostics)] == [
        "times", "mass", "orbital_distance", "deviation", "transform_ok"]
    # an s that would make every distance and D NaN is refused up front, as
    # is one whose weights overflow (256^128 at d = 1, K = 16)
    for bad in (math.nan, math.inf, -1.0, 128.0):
        with pytest.raises(DomainError, match="s must be"):
            TrajectoryRecorder(table16, s=bad)
    # a field on another grid is refused, not recorded with D = NaN, and
    # before its values are checked: a non-finite one too
    other = make_datum(Grid(K=8), (0,), RHO, 0.01, seed=2)
    for c in (other.coeffs, np.full(other.coeffs.shape, np.nan, dtype=complex)):
        with pytest.raises(DomainError, match="shape"):
            rec(101, SpectralField(other.grid, c))


@pytest.mark.parametrize("d, K, ell, stable", [
    (1, 16, (3,), True),
    # mode (0, -4) is its own partner about this carrier (q2 = 0): no xi map
    (2, 4, (1, -2), False),
    (2, 8, (0, 0), True),
])
def test_recorder_sample_matches_public_composition(make_datum, d, K, ell, stable):
    # the recorder recenters once and sums the mass once per sample; each
    # recorded value must equal, bit for bit, the public functions composed
    grid = Grid(K=K, d=d)
    table = build_frequency_table(H, RHO, -1, ell, grid)
    rec = TrajectoryRecorder(table, s=5.0)
    fields = []

    def observe(n, u):
        fields.append(u)
        rec(n, u)

    integrate(make_datum(grid, ell, RHO, 0.01, seed=3),
              StepScheme(StepVariant.STRANG_NONLINEAR_OUTSIDE, H), -1, 20,
              observer=observe, cadence=5)
    got = rec.finalize()
    assert got.transform_ok is stable
    assert len(fields) == got.times.size == 5
    for i, u in enumerate(fields):
        assert got.mass[i] == u.mass()
        assert got.orbital_distance[i] == sobolev_norm(project_away(u, ell), 5.0)
    if stable:
        ctx = build_diagonalizers(table)
        sa0 = super_actions(u_to_xi(fields[0], ctx))
        for i, u in enumerate(fields):
            assert got.deviation[i] == weighted_deviation(
                super_actions(u_to_xi(u, ctx)), sa0, 5.0
            )
        assert got.deviation[-1] > 0.0
    else:
        assert np.all(np.isnan(got.deviation))


def _trajectory(make_datum, grid, ell, steps):
    """The fields integrate hands its observer over `steps` steps at cadence 1."""
    fields = []
    integrate(make_datum(grid, ell, RHO, 0.01, seed=3),
              StepScheme(StepVariant.STRANG_NONLINEAR_OUTSIDE, H), -1, steps,
              observer=lambda n, u: fields.append(u), cadence=1)
    return fields


def _public_composition(table, fields, s):
    """The recorder's series, one sample at a time from the public functions;
    D is NaN where u_to_xi fails and relative to the first sample where it
    does not."""
    try:
        ctx = build_diagonalizers(table)
    except NotLinearlyStableError:
        ctx = None
    actions = []
    for u in fields:
        try:
            actions.append(None if ctx is None else super_actions(u_to_xi(u, ctx)))
        except (DomainError, ZeroCarrierModeError):
            actions.append(None)
    sa0 = next((sa for sa in actions if sa is not None), None)
    return {
        "mass": [u.mass() for u in fields],
        "orbital_distance": [sobolev_norm(project_away(u, table.ell), s) for u in fields],
        "deviation": [math.nan if sa is None else weighted_deviation(sa, sa0, s)
                      for sa in actions],
    }


def _assert_same_bits(got, fields, table, out, s=5.0, windows=ALL):
    """got's series equal the public functions' bit for bit, and the spectrum
    streamed into out/run_spectrum.csv holds the |u_j| of every field inside
    the windows."""
    want = _public_composition(table, fields, s)
    assert got.times.size == len(fields)
    for name in ("mass", "orbital_distance", "deviation"):
        assert getattr(got, name).tobytes() == np.asarray(want[name]).tobytes(), name
    assert (out / "run_spectrum.csv").read_bytes().decode() == _reference_spectrum(
        table.grid, _windowed(enumerate(fields), table.h, windows))


@pytest.mark.parametrize("d, K, ell", [
    (1, 16, (3,)),
    (1, 5, (2,)),  # rows of 2K = 10 and 2K = 6 leave numpy's SIMD loops a remainder
    (1, 3, (0,)),
    (2, 3, (1, 0)),
    (2, 5, (0, 0)),
    (2, 8, (0, 0)),
    (2, 16, (0, 0)),  # 1024 modes: blocks of 16 samples
])
def test_recorder_blocks_match_public_composition(make_datum, d, K, ell, tmp_path):
    # 150 samples: full blocks and a partial one (two and a partial at 64
    # samples per block), computed per block, each value equal bit for bit
    # to the per-sample public functions
    grid = Grid(K=K, d=d)
    rows = _block_rows(grid)
    assert rows == (16 if grid.size == 1024 else _BLOCK_ROWS)
    assert 150 > 2 * rows and 150 % rows
    table = build_frequency_table(H, RHO, -1, ell, grid)
    fields = _trajectory(make_datum, grid, ell, 149)
    got = _record(table, enumerate(fields), tmp_path)
    _assert_same_bits(got, fields, table, tmp_path)
    if got.transform_ok:
        assert got.deviation[0] == 0.0 and np.all(np.isfinite(got.deviation))


def test_recorder_blocks_nan_only_at_failed_rows(grid16, table16, make_datum, tmp_path):
    # a mass off the budget (block 0) and a zero carrier of the right mass
    # (block 1) give D = NaN at those rows alone
    fields = _trajectory(make_datum, grid16, (0,), 99)
    fields[30] = SpectralField(grid16, 2.0 * fields[30].coeffs)
    c = fields[70].coeffs.copy()
    c[grid16.index_of(0)] = 0.0
    fields[70] = SpectralField(grid16, c * (RHO / math.sqrt(float(np.sum(np.abs(c) ** 2)))))
    assert abs(fields[70].mass() - RHO**2) < 1e-12
    got = _record(table16, enumerate(fields), tmp_path)
    _assert_same_bits(got, fields, table16, tmp_path)
    assert np.flatnonzero(np.isnan(got.deviation)).tolist() == [30, 70]


def test_recorder_blocks_reference_in_a_later_block(grid16, table16, make_datum, tmp_path):
    # no sample of the first block passes the mass check, so the D reference
    # is the first sample of the second block
    fields = _trajectory(make_datum, grid16, (0,), 99)
    rows = _block_rows(grid16)
    fields[:rows] = [SpectralField(grid16, 1.5 * u.coeffs) for u in fields[:rows]]
    got = _record(table16, enumerate(fields), tmp_path)
    _assert_same_bits(got, fields, table16, tmp_path)
    assert np.all(np.isnan(got.deviation[:rows]))
    assert got.deviation[rows] == 0.0
    assert np.all(got.deviation[rows + 1:] > 0.0)


def test_recorder_blocks_blow_up_mid_block(grid16, table16, make_datum, tmp_path):
    # the BlowUpError comes at the non-finite sample itself; finalize then
    # returns exactly the samples before it, the kept ones computed
    fields = _trajectory(make_datum, grid16, (0,), 99)
    bad = fields[90].coeffs.copy()
    bad[3] = np.inf
    with SpectrumWriter(str(tmp_path / "run_spectrum.csv"), grid16, ALL) as writer:
        rec = TrajectoryRecorder(table16, s=5.0, spectrum=writer)
        for n, u in enumerate(fields[:90]):
            rec(n, u)
        with pytest.raises(BlowUpError) as info:
            rec(90, SpectralField(grid16, bad))
        assert info.value.step == 90
        got = rec.finalize()
    _assert_same_bits(got, fields[:90], table16, tmp_path)
    assert got.times[-1] == 89 * H


class _PoisonedRecorder(TrajectoryRecorder):
    """A recorder that checks it computes each block in the field buffer it
    was built with, and its writer the magnitudes in the buffer the writer
    was built with, and fills both with NaN after each block, so a row read
    before it is written again shows in every output."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._built = (self._fields, self.spectrum._mags)

    def _flush(self):
        super()._flush()
        assert self._fields is self._built[0] and self.spectrum._mags is self._built[1]
        self._fields.fill(math.nan)
        self.spectrum._mags.fill(math.nan)


def test_recorder_buffer_two_full_blocks_then_a_partial_one(make_datum, tmp_path):
    # the last block fills 22 of 64 rows; the 42 after them hold the second
    # block's samples (NaN here), which neither the series nor the spectrum
    # may read
    grid = Grid(K=8, d=2)
    table = build_frequency_table(H, RHO, -1, (0, 0), grid)
    fields = _trajectory(make_datum, grid, (0, 0), 149)
    assert len(fields) == 2 * _block_rows(grid) + 22
    got = _record(table, enumerate(fields), tmp_path, recorder=_PoisonedRecorder)
    _assert_same_bits(got, fields, table, tmp_path)
    assert np.all(np.isfinite(got.deviation))


def test_recorder_buffer_blow_up_in_the_second_block(grid16, table16, make_datum, tmp_path):
    # the non-finite sample is refused before it is copied, and finalize
    # computes the 26 rows before it, not the rows the first block left
    fields = _trajectory(make_datum, grid16, (0,), 99)
    bad = fields[90].coeffs.copy()
    bad[5] = np.nan
    samples = [*enumerate(fields[:90]), (90, SpectralField(grid16, bad)),
               *enumerate(fields[91:], 91)]
    got = _record(table16, samples, tmp_path, recorder=_PoisonedRecorder)
    _assert_same_bits(got, fields[:90], table16, tmp_path)
    assert np.all(np.isfinite(got.orbital_distance))


def test_recorder_buffer_window_over_part_of_a_later_block(grid16, table16, make_datum,
                                                            tmp_path):
    # the window shows samples 80 ... 100 of 150: rows 16 ... 36 of the
    # second block, whose magnitudes go into the first 21 rows of the
    # writer's magnitude buffer; no other block shows a sample
    fields = _trajectory(make_datum, grid16, (0,), 149)
    windows = ((80 * H, 100 * H),)
    got = _record(table16, enumerate(fields), tmp_path, windows, recorder=_PoisonedRecorder)
    _assert_same_bits(got, fields, table16, tmp_path, windows=windows)
    assert len(_windowed(enumerate(fields), H, windows)) == 21


def _block_sized_operations(call, nbytes):
    """How many operations inside call() allocate at least nbytes above the
    traced memory where they start: tracemalloc's peak is read and reset
    before every bytecode instruction of every Python frame that call()
    runs, so one numpy call or array operator counts once, however it frees
    its arrays."""
    count = 0
    last = 0

    def trace(frame, event, arg):
        nonlocal count, last
        frame.f_trace_opcodes = True
        current, peak = tracemalloc.get_traced_memory()
        count += peak - last >= nbytes
        tracemalloc.reset_peak()
        last = current
        return trace

    previous = sys.gettrace()
    tracemalloc.start()
    try:
        last = tracemalloc.get_traced_memory()[0]
        sys.settrace(trace)
        try:
            call()
        finally:
            sys.settrace(previous)
    finally:
        tracemalloc.stop()
    return count


def test_recorder_block_allocations(make_datum, tmp_path):
    # after the first block, the call that completes the second computes a
    # full block (64 samples of 256 modes, all shown), and 12 of its
    # operations allocate an array of at least 64 * 256 float64 values:
    # |u| in SpectralField.mass (twice: u_to_xi sums the mass again), in
    # sobolev_norm and in super_actions, and super_actions' bin index; the
    # gathers project_away and u_to_xi return and u_to_xi's partner gather;
    # and numpy's 8192-element iteration buffer in four complex ufunc calls
    # of u_to_xi (the three broadcast products written into an operand, and
    # the sum with the strided partner).  The block and its magnitudes go
    # into the recorder's and the writer's buffers, and every square of |u|
    # is taken in place; stacking the block, allocating its magnitudes and
    # squaring |u| into new arrays made 19.
    grid = Grid(K=8, d=2)
    table = build_frequency_table(H, RHO, -1, (0, 0), grid)
    rows = _block_rows(grid)
    fields = _trajectory(make_datum, grid, (0, 0), 2 * rows - 1)
    with SpectrumWriter(str(tmp_path / "run_spectrum.csv"), grid, ALL) as writer:
        rec = TrajectoryRecorder(table, s=5.0, spectrum=writer)
        for n, u in enumerate(fields[:-1]):
            rec(n, u)
        n = len(fields) - 1
        count = _block_sized_operations(lambda: rec(n, fields[n]), rows * grid.size * 8)
        got = rec.finalize()
    assert got.times.size == 2 * rows
    assert count == 12


@pytest.mark.parametrize("d, K, ell", [(1, 16, (3,)), (1, 5, (2,)), (2, 3, (1, 0)),
                                       (2, 5, (-2, 1)), (2, 8, (0, 0)), (3, 2, (1, 0, 1))])
def test_batched_sums_over_gathered_rows_equal_row_sums(rng, d, K, ell):
    # a row of the batched gather is summed pairwise, like the 1-D sum of
    # that row alone; magnitudes spread over 12 decades make the order count
    grid = Grid(K=K, d=d)
    rows = rng.standard_normal((_BLOCK_ROWS, *grid.shape)) * 10.0 ** rng.integers(
        -6, 6, size=(_BLOCK_ROWS, *grid.shape))
    gathered = grid.shift(rows, ell)
    sums = _row_sums(grid, gathered)
    for i in range(_BLOCK_ROWS):
        one = grid.shift(rows[i], ell)
        assert np.array_equal(gathered[i], one)
        assert sums[i] == one.reshape(-1).sum() == one.sum()


def test_recorder_snapshot_windows_filter(grid16, table16, make_datum, tmp_path):
    samples = _observed(make_datum, grid16, 100, 10)
    windows = ((0.0, 0.1),)  # only the first sample qualifies
    d = _record(table16, samples, tmp_path, windows)
    assert d.times.shape == (11,)
    shown = _windowed(samples, H, windows)
    assert [t for t, _ in shown] == [0.0]
    assert (tmp_path / "run_spectrum.csv").read_bytes().decode() == _reference_spectrum(
        grid16, shown)


def test_recorder_blow_up(grid16, table16):
    rec = TrajectoryRecorder(table16, s=5.0)
    c = np.zeros(grid16.shape, dtype=complex)
    c[grid16.index_of((0,))] = RHO
    rec(0, SpectralField(grid16, c))
    c[grid16.index_of((1,))] = np.nan
    with pytest.raises(BlowUpError) as info:
        rec(5, SpectralField(grid16, c))
    assert info.value.step == 5
    assert info.value.time == pytest.approx(5 * H, rel=1e-14)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf),
                                 complex(np.nan, 1.0)])
def test_recorder_raises_at_one_non_finite_coefficient(grid16, table16, bad):
    rec = TrajectoryRecorder(table16, s=5.0)
    c = np.zeros(grid16.shape, dtype=complex)
    c[grid16.index_of((0,))] = RHO
    rec(0, SpectralField(grid16, c))
    c[grid16.index_of((2,))] = bad
    with pytest.raises(BlowUpError) as info:
        rec(3, SpectralField(grid16, c))
    assert info.value.step == 3


@pytest.mark.filterwarnings("ignore:overflow encountered in reduce:RuntimeWarning")
def test_recorder_accepts_finite_coefficients_whose_sum_overflows(grid16, table16):
    # the cheap check sums the coefficients; an overflowing sum of finite
    # values gets the full check, which passes, and only a later
    # non-finite sample raises
    c = np.full(grid16.shape, complex(1e308, -1e308))
    assert not cmath.isfinite(c.sum())
    rec = TrajectoryRecorder(table16, s=5.0)
    rec(0, SpectralField(grid16, c))
    c[5] = complex(1e308, np.nan)
    with pytest.raises(BlowUpError) as info:
        rec(1, SpectralField(grid16, c))
    assert info.value.step == 1


def test_recorder_without_linear_stability(grid16, make_datum):
    # h = 0.042 has unstable modes: the transform is disabled, the
    # orbital distance is still recorded
    u = make_datum(grid16, (0,), RHO, 0.01, seed=2)
    rec = TrajectoryRecorder(
        build_frequency_table(0.042, RHO, -1, (0,), grid16), s=5.0
    )
    integrate(u, StepScheme(StepVariant.LIE_TROTTER, 0.042), -1, 50,
              observer=rec, cadence=10)
    d = rec.finalize()
    assert d.transform_ok is False
    assert np.all(np.isnan(d.deviation))
    assert np.all(np.isfinite(d.orbital_distance))


def test_emit_files(grid16, table16, make_datum, tmp_path):
    samples = _observed(make_datum, grid16, 20, 10)
    d = _record(table16, samples, tmp_path, ((0.0, 100.0),), runid="unit")

    series = list(csv.reader(open(tmp_path / "unit_series.csv")))
    assert series[0] == ["t", "mass", "orbital_distance", "D"]
    assert len(series) == 1 + 3  # steps 0, 10, 20
    # 17 significant digits give bit-exact float round trips
    assert float(series[1][1]) == d.mass[0]
    assert float(series[-1][2]) == d.orbital_distance[-1]

    spectrum = list(csv.reader(open(tmp_path / "unit_spectrum.csv")))
    assert spectrum[0] == ["t", "j", "abs_uj"]
    assert len(spectrum) == 1 + 3 * 32
    assert spectrum[1][1] == "-16"
    assert float(spectrum[1][2]) == np.abs(samples[0][1].coeffs)[0]

    # the meta JSON is cmd_simulate's
    assert sorted(os.listdir(tmp_path)) == ["unit_series.csv", "unit_spectrum.csv"]


def test_emit_series_matches_write_csv_with_failed_xi_rows(grid16, table16, make_datum, tmp_path):
    # the series, formatted 512 rows per pass, equals write_csv's cell-by-cell
    # text, NaN in D included (rows 30 and 70 fail the xi map, as in the
    # recorder test); the run repeated 11 times ends on a partial pass
    fields = _trajectory(make_datum, grid16, (0,), 99)
    fields[30] = SpectralField(grid16, 2.0 * fields[30].coeffs)
    c = fields[70].coeffs.copy()
    c[grid16.index_of(0)] = 0.0
    fields[70] = SpectralField(grid16, c * (RHO / math.sqrt(float(np.sum(np.abs(c) ** 2)))))
    rec = TrajectoryRecorder(table16, s=5.0)
    for n, u in enumerate(fields):
        rec(n, u)
    d = rec.finalize()
    assert np.flatnonzero(np.isnan(d.deviation)).tolist() == [30, 70]
    columns = ("times", "mass", "orbital_distance", "deviation")
    long = dataclasses.replace(d, **{k: np.tile(getattr(d, k), 11) for k in columns})
    for diag, nans in ((d, 2), (long, 22)):
        emit(diag, str(tmp_path / "nan_series.csv"))
        reference = tmp_path / "reference.csv"
        write_csv(str(reference), ("t", "mass", "orbital_distance", "D"),
                  zip(*(getattr(diag, k).tolist() for k in columns)))
        got = (tmp_path / "nan_series.csv").read_bytes()
        assert got == reference.read_bytes()
        assert got.count(b",NaN\n") == nans


def test_emit_empty_trajectory(table16, tmp_path):
    assert _record(table16, [], tmp_path, runid="empty").times.size == 0
    series = open(tmp_path / "empty_series.csv").read()
    assert series == "t,mass,orbital_distance,D\n"
    spectrum = open(tmp_path / "empty_spectrum.csv").read()
    assert spectrum == "t,j,abs_uj\n"


def test_emit_2d_mode_columns(grid2d, make_datum, tmp_path):
    u = make_datum(grid2d, (0, 0), RHO, 0.005, seed=7)
    with SpectrumWriter(str(tmp_path / "two_spectrum.csv"), grid2d, ((0.0, 10.0),)) as writer:
        rec = TrajectoryRecorder(
            build_frequency_table(0.02, RHO, -1, (0, 0), grid2d), s=2.0, spectrum=writer
        )
        integrate(u, StepScheme(StepVariant.LIE_TROTTER, 0.02), -1, 5,
                  observer=rec, cadence=5)
        diag = rec.finalize()
    emit(diag, str(tmp_path / "two_series.csv"))
    spectrum = list(csv.reader(open(tmp_path / "two_spectrum.csv")))
    assert spectrum[0] == ["t", "j1", "j2", "abs_uj"]
    assert spectrum[1][1:3] == ["-2", "-2"]


@pytest.mark.parametrize("d, ell", [(1, (3,)), (2, (1, -2))])
def test_emit_spectrum_text_of_recorded_run(make_datum, tmp_path, d, ell):
    grid = Grid(K=16 if d == 1 else 4, d=d)
    samples = []
    integrate(make_datum(grid, ell, RHO, 0.01, seed=4),
              StepScheme(StepVariant.STRANG_NONLINEAR_OUTSIDE, H), -1, 30,
              observer=lambda n, u: samples.append((n, u)), cadence=1)
    windows = ((0.0, 0.5),)
    _record(build_frequency_table(H, RHO, -1, ell, grid), samples, tmp_path, windows,
            runid="ref")
    shown = _windowed(samples, H, windows)
    assert len(shown) == 13  # t = 0, 0.04, ..., 0.48
    text = (tmp_path / "ref_spectrum.csv").read_bytes().decode()
    assert text == _reference_spectrum(grid, shown)


def test_emit_spectrum_text_of_non_finite_snapshot(tmp_path):
    # real coefficients, so each |u_j| is the value itself, NaN and inf too
    grid = Grid(K=2, d=1)
    snapshots = [(0.1 + 0.2, np.array([np.nan, np.inf, 0.0, 0.1 + 0.2])),
                 (0.5, np.array([1e-300, 2.5, 1 / 3, 7.0]))]
    times = np.array([t for t, _ in snapshots])
    diag = TrajectoryDiagnostics(
        times=times,
        mass=np.array([0.4, 0.4]),
        orbital_distance=np.array([0.01, 0.01]),
        deviation=np.array([0.0, 0.0]),
        transform_ok=True,
    )
    writer = SpectrumWriter(str(tmp_path / "odd_spectrum.csv"), grid, ALL)
    writer.write(times, np.stack([m for _, m in snapshots]).astype(complex))
    writer.close()
    emit(diag, str(tmp_path / "odd_series.csv"))
    text = (tmp_path / "odd_spectrum.csv").read_bytes().decode()
    assert text == _reference_spectrum(grid, snapshots)
    assert "0.30000000000000004,-2,NaN\n0.30000000000000004,-1,Infinity\n" in text


def _observed(make_datum, grid, steps, cadence):
    """(n, u) of every sample integrate hands its observer."""
    samples = []
    integrate(make_datum(grid, (0,) * grid.d, RHO, 0.01, seed=5),
              StepScheme(StepVariant.STRANG_NONLINEAR_OUTSIDE, H), -1, steps,
              observer=lambda n, u: samples.append((n, u)), cadence=cadence)
    return samples


def _streamed_spectrum(tmp_path, grid, windows, samples):
    """Feed samples, up to a BlowUpError, to a recorder that streams its
    spectrum into a SpectrumWriter; assert the file equals the reference
    rendering of the windowed samples before the first non-finite one, and
    return those samples' times."""
    table = build_frequency_table(H, RHO, -1, (0,) * grid.d, grid)
    diag = _record(table, samples, tmp_path, windows)
    kept = list(itertools.takewhile(lambda s: np.isfinite(s[1].coeffs).all(), samples))
    assert diag.times.size == len(kept)
    shown = _windowed(kept, H, windows)
    assert (tmp_path / "run_spectrum.csv").read_bytes().decode() == _reference_spectrum(
        grid, shown)
    return [t for t, _ in shown]


def test_streamed_spectrum_ends_on_a_partial_block(grid16, make_datum, tmp_path):
    samples = _observed(make_datum, grid16, 1000, 7)
    times = _streamed_spectrum(tmp_path, grid16, ALL, samples)
    assert len(times) == len(samples) == 144  # blocks of 64, 64 and 16
    assert times[-1] == 1000 * H  # the last sample is off the cadence


def test_streamed_spectrum_of_blocks_straddling_a_window_gap(grid16, make_datum, tmp_path):
    # block 0 holds t = 0 ... 2.52: the first window, the gap and the second
    # window's first sample; block 1 the rest of the second window
    samples = _observed(make_datum, grid16, 200, 1)
    times = _streamed_spectrum(tmp_path, grid16, ((0.0, 1.0), (2.5, 3.5)), samples)
    assert times[:26] == [n * H for n in range(26)]
    assert times[26] == 63 * H and times[-1] == 87 * H


def test_streamed_spectrum_of_a_grid_of_more_than_256_modes(make_datum, tmp_path):
    grid = Grid(K=4, d=3)
    assert _block_rows(grid) == 32
    samples = _observed(make_datum, grid, 40, 1)
    assert len(_streamed_spectrum(tmp_path, grid, ALL, samples)) == 41


def test_streamed_spectrum_after_a_blow_up_mid_block(grid16, make_datum, tmp_path):
    samples = _observed(make_datum, grid16, 99, 1)
    samples[90] = (90, SpectralField(grid16, np.full(grid16.shape, np.nan, dtype=complex)))
    times = _streamed_spectrum(tmp_path, grid16, ALL, samples)
    assert len(times) == 90  # a block of 64, then 26 in finalize()


def test_streamed_spectrum_of_an_empty_trajectory(grid16, tmp_path):
    assert _streamed_spectrum(tmp_path, grid16, ALL, []) == []
    assert (tmp_path / "run_spectrum.csv").read_bytes() == b"t,j,abs_uj\n"


def test_spectrum_writer_closes_once_and_then_refuses_rows(grid2, tmp_path):
    path = tmp_path / "w_spectrum.csv"
    with SpectrumWriter(str(path), grid2, ALL) as writer:
        writer.write(np.array([0.5]), np.array([[1.0, -2.0, 0.0, 0.25j]]))
    writer.close()
    assert path.read_bytes() == b"t,j,abs_uj\n0.5,-2,1\n0.5,-1,2\n0.5,0,0\n0.5,1,0.25\n"
    with pytest.raises(ValueError, match="closed"):
        writer.write(np.array([1.0]), np.zeros((1, 4), dtype=complex))


def test_recorder_seconds_count_calls_finalize_and_writer(table16, make_datum, tmp_path,
                                                          monkeypatch):
    # the recorder's clock runs in each call and in finalize(), and holds the
    # writer's: its rows are formatted (slowly here) inside finalize()
    real_format = FloatFormatter.__call__

    def slow_format(self, values):
        time.sleep(0.05)
        return real_format(self, values)

    monkeypatch.setattr(FloatFormatter, "__call__", slow_format)
    with SpectrumWriter(str(tmp_path / "clock_spectrum.csv"), table16.grid, ALL) as writer:
        rec = TrajectoryRecorder(table16, s=5.0, spectrum=writer)
        assert rec.seconds == 0.0
        for n, u in _observed(make_datum, table16.grid, 3, 1):
            before = rec.seconds
            rec(n, u)
            assert rec.seconds > before
        before = rec.seconds
        rec.finalize()
        assert rec.seconds > before
        assert rec.seconds >= writer.seconds >= 0.05


def _traced_peak_of_streamed_run(make_datum, grid, steps, out):
    table = build_frequency_table(H, RHO, -1, (0,) * grid.d, grid)
    datum = make_datum(grid, (0,) * grid.d, RHO, 0.01, seed=6)
    scheme = StepScheme(StepVariant.STRANG_NONLINEAR_OUTSIDE, H)
    tracemalloc.start()
    try:
        with SpectrumWriter(str(out), grid, ALL) as writer:
            rec = TrajectoryRecorder(table, s=5.0, spectrum=writer)
            integrate(datum, scheme, -1, steps, observer=rec, cadence=1)
            rec.finalize()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_run_memory_is_flat_in_run_length(make_datum, tmp_path):
    # every sample is a snapshot of 256 magnitudes (2 KB); a recorder that
    # kept them would grow by 1.8 MB from 256 to 1024 steps, while the
    # series' four columns grow by about 0.1 MB.  A first short run builds
    # the caches (formatter tables, FFT plans) that neither measured run holds.
    grid = Grid(K=8, d=2)
    _, short, long = [
        _traced_peak_of_streamed_run(make_datum, grid, steps, tmp_path / f"{steps}.csv")
        for steps in (64, 256, 1024)
    ]
    assert (tmp_path / "1024.csv").stat().st_size > 1025 * 256 * 20
    assert long - short <= 0.25e6


def _traced_series_of_streamed_run(make_datum, grid, steps, out):
    """Traced memory held after a streamed run of the given length, before
    finalize: what the recorder keeps of its series."""
    table = build_frequency_table(H, RHO, -1, (0,) * grid.d, grid)
    datum = make_datum(grid, (0,) * grid.d, RHO, 0.01, seed=6)
    scheme = StepScheme(StepVariant.LIE_TROTTER, H)
    with SpectrumWriter(str(out), grid, ALL) as writer:
        rec = TrajectoryRecorder(table, s=5.0, spectrum=writer)
        tracemalloc.start()
        try:
            integrate(datum, scheme, -1, steps, observer=rec, cadence=1)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        diag = rec.finalize()
    assert len(diag.times) == steps + 1
    return held


def test_recorder_series_take_32_bytes_a_sample(make_datum, tmp_path):
    # the four series are float64 arrays, one (4, rows) array per block: the
    # growth from 256 to 4096 samples is 32 bytes a sample plus each block's
    # array header (38 measured), where lists of Python floats took 136.  A
    # first short run builds the caches (formatter tables, FFT plans) that
    # neither measured run holds.
    grid = Grid(K=4, d=1)
    _, short, long = [
        _traced_series_of_streamed_run(make_datum, grid, steps, tmp_path / f"{steps}.csv")
        for steps in (64, 256, 4096)
    ]
    assert (long - short) / (4096 - 256) < 40.0
