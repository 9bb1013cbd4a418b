"""Spectral grids and fields on the d-dimensional torus.

A field is represented by its Fourier coefficients u_j on the mode set
{-K, ..., K-1}^d, stored in lexicographic order of the shifted index j + K
per axis (array position p corresponds to mode j = p - K along each axis).
numpy's FFT routines use the 0..2K-1 ordering instead.  The bijection between
the two is a cyclic shift by K along every axis, its own inverse since the axes
have even length: np.fft.fftshift and ifftshift compute it, and so does
Grid.shift by the origin position.  The integrator (integrator.py) keeps its
state in numpy order and converts at its boundary with `_Stepper.reorder`,
a Grid.shift: `_Stepper.__init__` reorders the |j|^2 table, `_Stepper.wrap`
converts back for every field it hands out, and `step` and `integrate`
convert the input field once.

Grid owns this layout: it alone knows where mode 0 (origin, nonzero), mode
-j (negation) and mode j + ell (shift) sit, so the plane-wave reduction
(recenter at the carrier, pair j with -j, drop the zero mode) is written
with its members and never with raw index arithmetic.  A shift is one gather
through a flat index cached per ell, so a recentering costs one pass over
the coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError

Mode = tuple[int, ...]

__all__ = [
    "Mode",
    "Grid",
    "SpectralField",
    "PlaneWaveSpec",
    "as_mode",
    "mod_reduce",
    "sobolev_norm",
    "project_away",
]


def as_mode(j: int | Sequence[int], d: int) -> Mode:
    """Normalize a mode index to a length-d tuple of ints."""
    if isinstance(j, (int, np.integer)):
        if d != 1:
            raise DomainError(f"scalar mode index {int(j)} for d={d}")
        return (int(j),)
    t = tuple(int(c) for c in j)
    if len(t) != d:
        raise DomainError(f"mode index {t} has length {len(t)}, expected {d}")
    return t


# gather indices Grid.shift keeps per grid; a run shifts by two to four distinct ell
_SHIFT_CACHE = 8


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Fourier collocation grid with modes {-K, ..., K-1}^d."""

    K: int
    d: int = 1

    def __post_init__(self):
        if self.K < 1:
            raise DomainError(f"K must be >= 1, got {self.K}")
        if self.d < 1:
            raise DomainError(f"d must be >= 1, got {self.d}")

    @property
    def n_axis(self) -> int:
        return 2 * self.K

    @property
    def shape(self) -> tuple[int, ...]:
        return (2 * self.K,) * self.d

    @property
    def size(self) -> int:
        return (2 * self.K) ** self.d

    @cached_property
    def axis_modes(self) -> np.ndarray:
        """Mode numbers along one axis, in storage order: -K, ..., K-1."""
        return _read_only(np.arange(-self.K, self.K))

    @cached_property
    def mode_norm2(self) -> np.ndarray:
        """|j|^2 for every mode, shaped like the coefficient array (int64)."""
        axes = np.ix_(*[self.axis_modes**2 for _ in range(self.d)])
        out = np.zeros(self.shape, dtype=np.int64)
        for a in axes:
            out = out + a
        return _read_only(out)

    @cached_property
    def origin(self) -> tuple[int, ...]:
        """Array position of mode 0."""
        return (self.K,) * self.d

    @cached_property
    def nonzero(self) -> np.ndarray:
        """Boolean mask over the grid, False only at mode 0."""
        mask = np.ones(self.shape, dtype=bool)
        mask[self.origin] = False
        return _read_only(mask)

    @cached_property
    def negation(self) -> tuple[np.ndarray, ...]:
        """Index with a[grid.negation] at j equal to a[mod_reduce(-j)]."""
        neg = _read_only((self.n_axis - np.arange(self.n_axis)) % self.n_axis)
        return np.ix_(*([neg] * self.d))

    @cached_property
    def _shift_index(self) -> dict:
        return {}

    def shift(self, a: np.ndarray, ell: Sequence[int]) -> np.ndarray:
        """New array whose entry at j is a[mod_reduce(j + ell)] (recentering at ell).

        a is one array of the grid's shape or a batch (B, *shape) of them,
        each shifted alike.  One gather through a flat index: the np.roll of
        the positions, built once per ell and cached on the grid (read-only;
        at most _SHIFT_CACHE of them, the cache is emptied when full).  A
        batch is gathered with `take(idx, axis=1)` over rows of length size,
        which returns C-contiguous rows; `rows[:, idx]` does not, and a row
        sum over its result then adds in sequence instead of pairwise, which
        changes last bits.
        """
        ell = tuple(ell)
        idx = self._shift_index.get(ell)
        if idx is None:
            if len(ell) != self.d:
                raise DomainError(f"ell {ell} has length {len(ell)}, expected {self.d}")
            positions = np.arange(self.size).reshape(self.shape)
            idx = np.roll(positions, tuple(-c for c in ell), axis=tuple(range(self.d)))
            if len(self._shift_index) >= _SHIFT_CACHE:
                self._shift_index.clear()
            self._shift_index[ell] = idx = _read_only(idx)
        if a.shape == self.shape:
            return a.take(idx)
        if a.shape[1:] != self.shape:
            raise DomainError(f"array shape {a.shape} != grid shape {self.shape}")
        return a.reshape(len(a), self.size).take(idx.reshape(-1), axis=1).reshape(a.shape)

    def mode_at(self, mask: np.ndarray) -> Mode:
        """First mode in storage order where mask is set."""
        pos = np.unravel_index(int(np.argmax(mask.reshape(-1))), self.shape)
        return tuple(int(p) - self.K for p in pos)

    @cached_property
    def _sobolev_weights(self) -> dict:
        return {}

    def sobolev_weights(self, s: float) -> np.ndarray:
        """max-style H^s weights: |j|^(2s) off the origin, 1 at j = 0.

        Computed once per s and cached on the grid (read-only).
        """
        w = self._sobolev_weights.get(s)
        if w is None:
            n2 = self.mode_norm2.astype(float)
            w = np.ones(self.shape)
            nz = n2 > 0
            w[nz] = np.power(n2[nz], s)
            w = self._sobolev_weights[s] = _read_only(w)
        return w

    def weights_finite(self, s: float) -> bool:
        """Whether (d K^2)^s, the largest |j|^(2s) on the grid, is a finite float."""
        try:
            return math.isfinite(float(self.d * self.K**2) ** s)
        except OverflowError:
            return False

    def index_of(self, j: int | Sequence[int]) -> tuple[int, ...]:
        """Array position of mode j (shifted by +K per axis)."""
        m = as_mode(j, self.d)
        for c in m:
            if not -self.K <= c < self.K:
                raise DomainError(f"mode {m} outside {{-K, ..., K-1}}^d with K={self.K}")
        return tuple(c + self.K for c in m)

    def modes(self) -> Iterable[Mode]:
        """All modes in storage (lexicographic shifted) order."""
        for pos in np.ndindex(*self.shape):
            yield tuple(p - self.K for p in pos)


def mod_reduce(v: int | Sequence[int], grid: Grid) -> Mode:
    """Reduce an integer vector entrywise into {-K, ..., K-1} modulo 2K."""
    m = as_mode(v, grid.d)
    K = grid.K
    return tuple((c + K) % (2 * K) - K for c in m)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Immutable Fourier-coefficient representation of a grid function.

    coeffs has the grid's shape.  SpectralField.stack makes a batch of B
    fields instead, coeffs shaped (B, *grid.shape), one field per row:
    mass, sobolev_norm and project_away (and transforms.u_to_xi) take it as
    they take one field, computing every row in one pass, and return an
    array (B,) where one field gives a float.  Each row has the bits the
    field alone gives.
    """

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != self.grid.shape:
            raise DomainError(f"coefficient shape {c.shape} != grid shape {self.grid.shape}")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _adopt(cls, grid: Grid, c: np.ndarray) -> "SpectralField":
        """The field (or batch) over c itself, made read-only, without the copy.

        For a complex128 array of the grid's shape, or (B, *grid.shape), that
        the caller has just made and keeps no other reference to.
        """
        f = object.__new__(cls)
        object.__setattr__(f, "grid", grid)
        object.__setattr__(f, "coeffs", _read_only(c))
        return f

    @classmethod
    def stack(cls, grid: Grid, rows) -> "SpectralField":
        """The batch of the fields whose coefficients are rows, in one copy."""
        c = np.stack(rows).astype(np.complex128, copy=False)
        if c.shape[1:] != grid.shape:
            raise DomainError(f"row shape {c.shape[1:]} != grid shape {grid.shape}")
        return cls._adopt(grid, c)

    @classmethod
    def zero(cls, grid: Grid) -> "SpectralField":
        return cls(grid, np.zeros(grid.shape, dtype=np.complex128))

    @classmethod
    def from_modes(cls, grid: Grid, amplitudes: dict) -> "SpectralField":
        c = np.zeros(grid.shape, dtype=np.complex128)
        for j, a in amplitudes.items():
            c[grid.index_of(j)] = a
        return cls(grid, c)

    @property
    def batched(self) -> bool:
        """Whether this is a batch from SpectralField.stack."""
        return self.coeffs.ndim > self.grid.d

    def coeff(self, j: int | Sequence[int]) -> complex:
        return complex(self.coeffs[self.grid.index_of(j)])

    def mass(self) -> float | np.ndarray:
        """Discrete L2 mass sum_j |u_j|^2 (Parseval: (2K)^-d sum_x |u(x)|^2)."""
        a = np.abs(self.coeffs)
        return self._each(_row_sums(self.grid, np.square(a, out=a)))

    def _each(self, values: np.ndarray) -> float | np.ndarray:
        """Per-row values (B,) as returned: the array for a batch, a float for one field."""
        return values if self.batched else float(values[0])


def _row_sums(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Sum of each field's entries of a real array of the grid's shape, or
    (B, *grid.shape), as an array (B,).

    Each row of the (B, size) view is summed pairwise, with the bits of the
    1-D sum of that row alone, if its rows are C-contiguous; a row gathered
    with rows[:, idx] is not, and is summed in sequence (Grid.shift).
    """
    return a.reshape(-1, grid.size).sum(axis=1)


def sobolev_norm(f: SpectralField, s: float) -> float | np.ndarray:
    """H^s norm: (|u_0|^2 + sum_{j != 0} |j|^(2s) |u_j|^2)^(1/2).

    s = 0 gives the square root of the discrete mass.  A batch gives the
    norm of each row.
    """
    grid = f.grid
    a = np.abs(f.coeffs)
    np.square(a, out=a)
    np.multiply(grid.sobolev_weights(s), a, out=a)
    return f._each(np.sqrt(_row_sums(grid, a)))


def project_away(f: SpectralField, ell: int | Sequence[int]) -> SpectralField:
    """Remove the carrier coefficient at ell and shift the spectrum by ell.

    The result has coefficient u_{mod(j+ell)} at index j for j != 0 and zero
    at the origin, so its H^s norm measures everything away from the carrier.
    A batch gives the batch of each row's projection.
    """
    grid = f.grid
    out = grid.shift(f.coeffs, as_mode(ell, grid.d))
    out[(..., *grid.origin)] = 0.0
    return SpectralField._adopt(grid, out)


@dataclass(frozen=True)
class PlaneWaveSpec:
    """Plane wave rho * e^{i(ell.x - omega t)} advanced exactly by the splitting."""

    rho: float
    ell: Mode
    lam: float

    def __post_init__(self):
        if not (self.rho >= 0 and math.isfinite(self.rho)):
            raise DomainError(f"rho must be nonnegative and finite, got {self.rho!r}")
        if self.lam not in (-1.0, 1.0):
            raise DomainError(f"lam must be -1 or +1, got {self.lam!r}")
        object.__setattr__(self, "ell", tuple(int(c) for c in self.ell))

    @property
    def omega(self) -> float:
        """Nonlinear dispersion relation |ell|^2 + lam * rho^2."""
        return float(sum(c * c for c in self.ell)) + self.lam * self.rho**2

    def field(self, grid: Grid, t: float = 0.0) -> SpectralField:
        """The plane wave at time t as a spectral field on `grid`."""
        c = np.zeros(grid.shape, dtype=np.complex128)
        c[grid.index_of(self.ell)] = self.rho * np.exp(-1j * self.omega * t)
        return SpectralField(grid, c)
