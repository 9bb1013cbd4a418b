"""Splitting integrators for i u_t = -Laplace(u) + lam |u|^2 u on the torus.

Both partial flows are exact: the linear flow multiplies coefficient j by
e^{-i |j|^2 t}, the nonlinear flow multiplies each collocation value by
e^{-i lam |u(x)|^2 t}. Either composition order conserves the discrete mass
exactly (up to rounding) because the nonlinear factor is unimodular.

`step` is the raw one-step map. `integrate` follows each step with a
projection onto the initial mass (Hairer-Lubich-Wanner, Geometric Numerical
Integration, IV.4): the state is rescaled by sqrt(m0/m). In exact arithmetic
the factor is 1; in floating point it stops FFT rounding from random-walking
the mass, which the nonlinear phase lam |u|^2 would otherwise integrate into
a phase drift growing linearly in t.

Between steps the state stays in numpy's FFT order; `_Stepper.reorder`, one
Grid.shift gather, converts at the boundary (spectral.py describes the two
orders).  A nonlinear substep calls the pocketfft gufuncs that np.fft.ifft
and np.fft.fft call, with the arguments they pass, once per axis, last axis
first, exactly as np.fft.ifftn and fftn do, so its result equals theirs bit
for bit without their argument handling.  The transforms, the phase and the
Strang products write into work arrays the stepper allocates once; a step
allocates only the array it returns.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ObserverError
from .spectral import Grid, SpectralField

__all__ = [
    "StepVariant",
    "StepScheme",
    "step",
    "integrate",
]

Observer = Callable[[int, SpectralField], None]


class StepVariant(str, enum.Enum):
    LIE_TROTTER = "lie-trotter"
    STRANG_LINEAR_OUTSIDE = "strang-linear-outside"
    STRANG_NONLINEAR_OUTSIDE = "strang-nonlinear-outside"


@dataclass(frozen=True)
class StepScheme:
    """A splitting variant together with its step size."""

    variant: StepVariant
    h: float

    def __post_init__(self):
        known = tuple(v.value for v in StepVariant)
        if self.variant not in known:  # members of the str enum equal their values
            raise DomainError(f"variant must be one of {known}, got {self.variant!r}")
        object.__setattr__(self, "variant", StepVariant(self.variant))
        if not (self.h > 0 and math.isfinite(self.h)):
            raise DomainError(f"step size h must be positive and finite, got {self.h!r}")


class _Stepper:
    """Precomputed one-step map working on numpy-ordered coefficient arrays.

    numpy's FFT order puts mode 0 at position 0 along each axis, storage
    order puts it at K; `reorder` converts either way (see spectral.py).
    `advance` takes states of `shape` (the grid's by default; a leading
    batch axis transforms like one field) and never writes to its input.
    """

    def __init__(self, grid: Grid, scheme: StepScheme, lam: float,
                 shape: tuple[int, ...] | None = None):
        # numpy.fft loads on first use; runs that never step do not pay for it
        from numpy.fft import _pocketfft_umath as pocketfft

        self.grid = grid
        self.scheme = scheme
        self.lam = lam
        h = scheme.h
        n2 = self.reorder(grid.mode_norm2)
        self._lin_full = np.exp(-1j * h * n2)
        self._lin_half = np.exp(-1j * (h / 2) * n2)
        self._size = grid.size
        shape = grid.shape if shape is None else tuple(shape)
        # np.fft.ifft/fft's gufunc calls on the last d axes, last first (the
        # order ifftn/fftn use): the inverse scales by 1/n, the forward by 1
        axes = range(len(shape) - 1, len(shape) - grid.d - 1, -1)
        self._inverse = [(pocketfft.ifft, np.reciprocal(shape[a], dtype=np.float64),
                          [(a,), (), (a,)]) for a in axes]
        self._forward = [(pocketfft.fft, 1, [(a,), (), (a,)]) for a in axes]
        # two complex work arrays, each transform reading one and writing the
        # other, and |v|^2
        self._work = (np.empty(shape, dtype=complex), np.empty(shape, dtype=complex))
        self._abs2 = np.empty(shape)

    def reorder(self, a: np.ndarray) -> np.ndarray:
        """Storage order <-> numpy order: a shift by K along every axis."""
        return self.grid.shift(a, self.grid.origin)

    def _spare(self, c: np.ndarray) -> np.ndarray:
        """The work array that c is not."""
        a, b = self._work
        return b if c is a else a

    def _transform(self, calls, c: np.ndarray) -> np.ndarray:
        """Apply the 1-D transforms in turn, each into the work array c is not."""
        for ufunc, fct, axes in calls:
            c = ufunc(c, fct, axes=axes, out=self._spare(c))
        return c

    def _nl(self, c: np.ndarray, t: float) -> np.ndarray:
        """fftn(phase * ifftn(c) * size) in a work array, not yet divided by size."""
        vals = self._transform(self._inverse, c)
        np.multiply(vals, self._size, out=vals)
        r = np.abs(vals, out=self._abs2)
        np.square(r, out=r)
        # the phase goes to the work array the values are not in; the complex
        # products keep the operand order of vals *= np.exp(-1j*lam*t * r)
        phase = np.multiply(-1j * self.lam * t, r, out=self._spare(vals))
        np.exp(phase, out=phase)
        np.multiply(vals, phase, out=vals)
        return self._transform(self._forward, vals)

    def advance(self, c: np.ndarray) -> np.ndarray:
        h = self.scheme.h
        v = self.scheme.variant
        if v is StepVariant.LIE_TROTTER:
            out = self._nl(c, h) / self._size
            out *= self._lin_full
        elif v is StepVariant.STRANG_LINEAR_OUTSIDE:
            half = np.multiply(c, self._lin_half, out=self._work[0])
            out = self._nl(half, h) / self._size
            out *= self._lin_half
        else:
            mid = self._nl(c, h / 2)
            np.divide(mid, self._size, out=mid)
            np.multiply(mid, self._lin_full, out=mid)
            out = self._nl(mid, h / 2) / self._size
        return out

    def wrap(self, c: np.ndarray) -> SpectralField:
        """The field of a numpy-ordered state; the reorder gather is its only copy."""
        return SpectralField._adopt(self.grid, self.reorder(c))


def _mass(c: np.ndarray) -> float:
    return float(np.vdot(c, c).real)


def step(f: SpectralField, scheme: StepScheme, lam: float) -> SpectralField:
    """Advance one time step with the given splitting variant (no mass projection)."""
    st = _Stepper(f.grid, scheme, lam, f.coeffs.shape)
    return st.wrap(st.advance(st.reorder(f.coeffs)))


def integrate(
    f0: SpectralField,
    scheme: StepScheme,
    lam: float,
    n_steps: int,
    observer: Observer | None = None,
    cadence: int | None = None,
) -> SpectralField:
    """Run n_steps of the splitting, reporting states to an observer.

    The observer is called with (step index, field) at step 0, every
    `cadence` steps, and at the final step. The default cadence is
    ceil(n_steps / 2000). An exception inside the observer aborts the run,
    wrapped in ObserverError with the step recorded; whatever the observer
    accumulated up to that point is intact.

    After every step the coefficients are rescaled to the initial mass
    m0 = sum |c|^2, so the observed mass (the `mass` column of the series
    CSV) is constant to rounding. The rescale is skipped while m0 or the
    current mass is zero or non-finite: a zero field stays zero and a
    non-finite state reaches the observer unchanged. Iterate `step` for the
    unprojected scheme.
    """
    if n_steps < 0:
        raise DomainError(f"n_steps must be >= 0, got {n_steps}")
    if cadence is None:
        cadence = max(1, math.ceil(n_steps / 2000))
    if cadence < 1:
        raise DomainError(f"cadence must be >= 1, got {cadence}")
    if f0.batched:
        raise DomainError("integrate advances one field, not a batch")

    def notify(n: int, field: SpectralField):
        try:
            observer(n, field)
        except Exception as exc:  # noqa: BLE001: flagged and re-raised with context
            raise ObserverError(n, exc) from exc

    st = _Stepper(f0.grid, scheme, lam)
    c = st.reorder(f0.coeffs)
    m0 = _mass(c)
    project = 0.0 < m0 < math.inf
    if observer is not None:
        notify(0, f0)
    for n in range(1, n_steps + 1):
        c = st.advance(c)
        if project:
            m = _mass(c)
            if 0.0 < m < math.inf:
                c *= math.sqrt(m0 / m)
        if observer is not None and (n % cadence == 0 or n == n_steps):
            notify(n, st.wrap(c))
    return st.wrap(c) if n_steps > 0 else f0
