"""Splitting integrators for i u_t = -Laplace(u) + lam |u|^2 u on the torus.

Both partial flows are exact: the linear flow multiplies coefficient j by
e^{-i |j|^2 t}, the nonlinear flow multiplies each collocation value by
e^{-i lam |u(x)|^2 t}. Either composition order conserves the discrete mass
exactly (up to rounding) because the nonlinear factor is unimodular.

The three splittings are conjugate: Strang linear-outside is
L(h/2)^-1∘(L∘N)∘L(h/2) and Strang nonlinear-outside is
N(h/2)∘(L∘N)∘N(h/2)^-1, with L∘N the Lie-Trotter step (Hairer-Lubich-Wanner,
Geometric Numerical Integration, II.5).  So every variant runs one step
kernel, L(h)∘N(h), in its own frame: `integrate` enters the frame once, and
leaves it only to hand a state to the observer and at the end.  A Strang run
of n steps thus costs n Lie-Trotter steps plus one frame map per observed
sample; its states differ from the step-by-step composition at rounding
level, while Lie-Trotter's keep their bits.

`step` is the raw one-step map, leave∘kernel∘enter. `integrate` follows each
kernel step with a projection of the frame state onto the initial mass
(Hairer-Lubich-Wanner, IV.4): the state is rescaled by sqrt(m0/m). In exact
arithmetic the factor is 1; in floating point it stops FFT rounding from
random-walking the mass, which the nonlinear phase lam |u|^2 would otherwise
integrate into a phase drift growing linearly in t.

Between steps the state stays in numpy's FFT order; `_Stepper.reorder`, one
Grid.shift gather, converts at the boundary (spectral.py describes the two
orders).  A nonlinear substep calls the pocketfft gufuncs that np.fft.ifft
and np.fft.fft call, with the arguments they pass, once per axis, last axis
first, exactly as np.fft.ifftn and fftn do, so its result equals theirs bit
for bit without their argument handling.  The transforms, the phase and the
frame maps write into work arrays the stepper allocates once; a kernel step
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
    """One step kernel, L(h)∘N(h), and the variant's pair of frame maps:
    n steps of the variant are leave∘kernel^n∘enter, with

        variant                    enter          leave
        lie-trotter                identity       identity
        strang-linear-outside      ×L(h/2)        ×L(-h/2)
        strang-nonlinear-outside   N(-h/2)        N(h/2)

    States are numpy-ordered coefficient arrays of `shape` (the grid's by
    default; a leading batch axis transforms like one field); numpy's FFT
    order puts mode 0 at position 0 along each axis, storage order puts it
    at K, and `reorder` converts either way (see spectral.py).  `enter` and
    `kernel` return new arrays and never write to their input.  `leave` may
    return its input or a work array, valid until the stepper's next call.

    For nonlinear-outside, `leave(w)` also stashes the next kernel step's
    transform of w: from w's grid values v and N(h/2)'s phase p it forms
    its own product v·p and the kernel's v·p² (N(h) = N(h/2)∘N(h/2)) in
    one (2, *shape) pair, and transforms both with one forward call per
    axis, dividing its own row by n along each axis and the kernel's by 1.
    The stash is keyed on the array w: if the next kernel call gets that
    same array, unchanged, it only divides the row by the grid size and
    applies L(h); any other array it transforms.  Either way that call
    drops the stash, and a later leave replaces it.  The kernel always
    forms N(h)'s phase as the square of N(h/2)'s, and the batched forward
    call gives each row the bits of a call on that row alone, so a kernel
    step has the same bits whether or not `leave` ran first.
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
        self._lin = np.exp(-1j * h * n2)
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
        self._halved = scheme.variant is StepVariant.STRANG_NONLINEAR_OUTSIDE
        self._t = h / 2 if self._halved else h  # the time of the kernel's phase
        self._stash = None  # (w, the kernel's transformed row) after a leave(w)
        if scheme.variant is StepVariant.STRANG_LINEAR_OUTSIDE:
            self._lin_enter = np.exp(-1j * (h / 2) * n2)
            self._lin_leave = np.exp(1j * (h / 2) * n2)
        elif self._halved:
            # leave's own pair of (2, *shape) arrays, so the work arrays'
            # values and phase survive it: row 0 leave's product, row 1 the
            # kernel's.  One forward call per axis transforms both, row 0
            # divided by n along each axis as the inverse is (in place of a
            # pass dividing by size), row 1 by 1 as the kernel's transform is
            pair = (2, *shape)
            self._leave_work = (np.empty(pair, dtype=complex), np.empty(pair, dtype=complex))
            per_row = (2,) + (1,) * (len(shape) - 1)
            self._leave_forward = [
                (pocketfft.fft,
                 np.array([np.reciprocal(shape[a], dtype=np.float64), 1.0]).reshape(per_row),
                 [(a + 1,), (), (a + 1,)])
                for a in axes
            ]

    def reorder(self, a: np.ndarray) -> np.ndarray:
        """Storage order <-> numpy order: a shift by K along every axis."""
        return self.grid.shift(a, self.grid.origin)

    def _spare(self, c: np.ndarray) -> np.ndarray:
        """The work array that c is not."""
        a, b = self._work
        return b if c is a else a

    def _transform(self, calls, c: np.ndarray, pair=None) -> np.ndarray:
        """Apply the 1-D transforms in turn, each into the array of the pair
        (the work arrays by default) that it does not read."""
        a, b = self._work if pair is None else pair
        for ufunc, fct, axes in calls:
            c = ufunc(c, fct, axes=axes, out=b if c is a else a)
        return c

    def _values(self, c: np.ndarray, t: float) -> np.ndarray:
        """v = ifftn(c) * size in a work array, returned, and N(t)'s phase
        e^{-i lam t |v|^2} in the other."""
        vals = self._transform(self._inverse, c)
        np.multiply(vals, self._size, out=vals)
        r = np.abs(vals, out=self._abs2)
        np.square(r, out=r)
        phase = np.multiply(-1j * self.lam * t, r, out=self._spare(vals))
        np.exp(phase, out=phase)
        return vals

    def _flow(self, vals: np.ndarray) -> np.ndarray:
        """fftn(v * phase) in a work array, not yet divided by size; the
        complex product keeps the operand order of vals *= phase."""
        np.multiply(vals, self._spare(vals), out=vals)
        return self._transform(self._forward, vals)

    def enter(self, c: np.ndarray) -> np.ndarray:
        """The variant's state mapped into the kernel's frame."""
        if self._halved:
            return self._flow(self._values(c, -self.scheme.h / 2)) / self._size
        if self.scheme.variant is StepVariant.STRANG_LINEAR_OUTSIDE:
            return c * self._lin_enter
        return c

    def kernel(self, w: np.ndarray) -> np.ndarray:
        """One Lie-Trotter step L(h)∘N(h) of a frame state."""
        stash, self._stash = self._stash, None
        if stash is not None and stash[0] is w:
            out = stash[1] / self._size
        else:
            vals = self._values(w, self._t)
            if self._halved:
                phase = self._spare(vals)
                np.multiply(phase, phase, out=phase)  # N(h) = N(h/2)∘N(h/2)
            out = self._flow(vals) / self._size
        out *= self._lin
        return out

    def leave(self, w: np.ndarray) -> np.ndarray:
        """A frame state mapped back to the variant's state."""
        if self._halved:
            vals = self._values(w, self._t)
            phase = self._spare(vals)
            prod = self._leave_work[0]
            # the complex products keep the operand order of _flow's
            np.multiply(vals, phase, out=prod[0])
            np.multiply(phase, phase, out=phase)
            np.multiply(vals, phase, out=prod[1])
            out = self._transform(self._leave_forward, prod, self._leave_work)
            self._stash = (w, out[1])
            return out[0]
        if self.scheme.variant is StepVariant.STRANG_LINEAR_OUTSIDE:
            return np.multiply(w, self._lin_leave, out=self._work[0])
        return w

    def wrap(self, c: np.ndarray) -> SpectralField:
        """The field of a numpy-ordered state; the reorder gather is its only copy."""
        return SpectralField._adopt(self.grid, self.reorder(c))


def _mass(c: np.ndarray) -> float:
    return float(np.vdot(c, c).real)


def step(f: SpectralField, scheme: StepScheme, lam: float) -> SpectralField:
    """Advance one time step with the given splitting variant (no mass projection).

    The step is the stepper's leave∘kernel∘enter: bit for bit the composition
    for Lie-Trotter, within rounding of it for the Strang variants.
    """
    st = _Stepper(f.grid, scheme, lam, f.coeffs.shape)
    return st.wrap(st.leave(st.kernel(st.enter(st.reorder(f.coeffs)))))


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

    The run steps in the variant's frame (see the module docstring) and
    leaves it only where the observer is called and for the returned field,
    so the cadence changes no bit of the trajectory. After every step the
    frame state is rescaled to the initial mass m0 = sum |c|^2, so the
    observed mass (the `mass` column of the series CSV) is constant to
    rounding. The rescale is skipped while m0 or the current mass is zero or
    non-finite: a zero field stays zero and a non-finite state reaches the
    observer unchanged. Iterate `step` for the unprojected scheme.
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
    if n_steps == 0:
        return f0
    w = st.enter(c)
    for n in range(1, n_steps + 1):
        w = st.kernel(w)
        if project:
            m = _mass(w)
            if 0.0 < m < math.inf:
                w *= math.sqrt(m0 / m)
        if observer is not None and (n % cadence == 0 or n == n_steps):
            notify(n, st.wrap(st.leave(w)))
    return st.wrap(st.leave(w))
