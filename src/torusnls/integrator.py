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
orders).  A nonlinear substep calls np.fft.ifft and np.fft.fft once per axis,
last axis first, exactly as np.fft.ifftn and fftn do, so its result equals
theirs bit for bit without their argument handling.
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
    """

    def __init__(self, grid: Grid, scheme: StepScheme, lam: float):
        self.grid = grid
        self.scheme = scheme
        self.lam = lam
        h = scheme.h
        n2 = self.reorder(grid.mode_norm2)
        self._lin_full = np.exp(-1j * h * n2)
        self._lin_half = np.exp(-1j * (h / 2) * n2)
        self._size = grid.size
        # the last d axes, last first: the order np.fft.ifftn and fftn use
        self._axes = tuple(range(-1, -grid.d - 1, -1))

    def reorder(self, a: np.ndarray) -> np.ndarray:
        """Storage order <-> numpy order: a shift by K along every axis."""
        return self.grid.shift(a, self.grid.origin)

    def _nl(self, c: np.ndarray, t: float) -> np.ndarray:
        # ifftn(c) * size, the phase, then fftn(vals) / size, with the 1-D
        # transforms called directly (the n-D wrappers only add overhead)
        for axis in self._axes:
            c = np.fft.ifft(c, axis=axis)
        vals = c * self._size
        vals *= np.exp(-1j * self.lam * t * np.abs(vals) ** 2)
        for axis in self._axes:
            vals = np.fft.fft(vals, axis=axis)
        return vals / self._size

    def advance(self, c: np.ndarray) -> np.ndarray:
        h = self.scheme.h
        v = self.scheme.variant
        if v is StepVariant.LIE_TROTTER:
            return self._nl(c, h) * self._lin_full
        if v is StepVariant.STRANG_LINEAR_OUTSIDE:
            return self._nl(c * self._lin_half, h) * self._lin_half
        return self._nl(self._nl(c, h / 2) * self._lin_full, h / 2)

    def wrap(self, c: np.ndarray) -> SpectralField:
        """The field of a numpy-ordered state; the reorder gather is its only copy."""
        return SpectralField._adopt(self.grid, self.reorder(c))


def _mass(c: np.ndarray) -> float:
    return float(np.vdot(c, c).real)


def step(f: SpectralField, scheme: StepScheme, lam: float) -> SpectralField:
    """Advance one time step with the given splitting variant (no mass projection)."""
    st = _Stepper(f.grid, scheme, lam)
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
