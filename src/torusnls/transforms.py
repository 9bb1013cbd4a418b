"""Variable chain u -> v -> w -> xi around a plane wave, and its inverse.

Relative to a carrier mode ell with amplitude rho, the chain is

    v_j = u_{ell+j mod 2K}          (recentering)
    w_j = v_j * exp(-i*theta)       (theta = polar angle of v_0, w_0 := 0)
    xi_j = S00_j w_j + S01_j conj(w_{-j mod 2K})

where the symplectic matrices S_j diagonalize the per-mode linearized
propagation blocks: with their eigenvalues lambda± = Re(alpha) ±
i*sgn(Im(alpha))*sqrt(1 - Re(alpha)^2),

    S_j^{-1} = [[beta, lambda- - conj(alpha)], [lambda+ - alpha, conj(beta)]]
               / sqrt(|beta|^2 - |lambda+ - alpha|^2)

and S_j is its adjugate (det = 1).  Under linear stability the normalizer
|beta|^2 - |lambda+ - alpha|^2 = 2q(|Im alpha| - q) with q = sqrt(1 - Re^2)
is positive for rho > 0.  In xi variables one split step acts diagonally,
xi_j -> exp(-i*omega_j*h)*xi_j, up to terms quadratic in the perturbation.

The zero-mode polar data (theta, a) is retained so the chain is exactly
invertible; the carrier modulus is recomputed on inversion from the mass
budget a = sqrt(rho^2 - sum|w_j|^2).

The plane-wave context (grid, carrier ell, h, rho, lambda and the per-mode
alpha, beta, q2) is a FrequencyTable from stability.build_frequency_table;
build_diagonalizers(table) reads it and DiagonalizerSet.table keeps it, so
the parameters are validated once, where the table is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    MassDeficitError,
    NotLinearlyStableError,
    ZeroCarrierModeError,
)
from .spectral import Grid, Mode, SpectralField
from .stability import FrequencyTable

__all__ = [
    "DiagonalizerSet",
    "XiField",
    "build_diagonalizers",
    "u_to_xi",
    "xi_to_u",
]


@dataclass(frozen=True)
class DiagonalizerSet:
    """Per-mode symplectic diagonalizers S_j and their inverses.

    Both matrices have the conjugate-swap row structure
    [[a, b], [conj(b), conj(a)]], so only the first rows are stored:
    S_j = [[s00, s01], ...], S_j^{-1} = [[t00, t01], ...].  The origin slot
    holds the identity.  degenerate_coupling marks the rho = 0 limit where
    the linear part is already diagonal and S_j := identity by convention.
    """

    table: FrequencyTable
    s00: np.ndarray
    s01: np.ndarray
    t00: np.ndarray
    t01: np.ndarray
    degenerate_coupling: bool

    def __post_init__(self):
        for name in ("s00", "s01", "t00", "t01"):
            getattr(self, name).flags.writeable = False


def build_diagonalizers(table: FrequencyTable) -> DiagonalizerSet:
    """Assemble S_j, S_j^{-1} for all nonzero modes from a frequency table.

    Requires linear stability: every half-angle margin q2 = 1 - Re(alpha_j)^2
    must be positive (exactly when check_assumption1 holds) and every
    normalizer 2q(|Im alpha| - q) positive; otherwise NotLinearlyStableError
    names the offending mode.  rho = 0 degenerates the
    coupling (beta = 0) and yields identity matrices with the
    degenerate_coupling flag set.
    """
    grid = table.grid
    if table.rho == 0.0:
        ident = np.ones(grid.shape, dtype=np.complex128)
        zeros = np.zeros(grid.shape, dtype=np.complex128)
        return DiagonalizerSet(
            table=table,
            s00=ident,
            s01=zeros,
            t00=ident,
            t01=zeros,
            degenerate_coupling=True,
        )

    nonzero = grid.nonzero
    alpha = table.alpha
    beta = table.beta
    q2 = table.q2
    bad = nonzero & (q2 <= 0.0)
    if np.any(bad):
        j = grid.mode_at(bad)
        raise NotLinearlyStableError(
            f"mode {j}: eigenvalues off the unit circle (half-angle margin "
            f"q2 = {float(q2[grid.index_of(j)])})"
        )
    q = np.sqrt(np.where(nonzero, q2, 1.0))
    im = alpha.imag
    # |im| - q = |beta|^2 / (|im| + q) exactly (the block has det 1); the
    # quotient form avoids the ~rho^4 cancellation in the rho -> 0 limit
    gap = np.abs(beta) ** 2 / (np.abs(im) + q)
    norm = 2.0 * q * gap
    bad = nonzero & (norm <= 0.0)
    if np.any(bad):
        j = grid.mode_at(bad)
        raise NotLinearlyStableError(
            f"mode {j}: diagonalizer normalizer "
            f"{float(norm[grid.index_of(j)])} <= 0"
        )

    sg = np.where(im >= 0.0, 1.0, -1.0)
    rn = np.sqrt(np.where(nonzero, norm, 1.0))

    # lam_minus - conj(alpha) = i*sg*(|im| - q), written through `gap`
    t00 = beta / rn
    t01 = 1j * sg * gap / rn
    s00 = np.conj(beta) / rn
    s01 = -t01

    origin = grid.origin
    s00[origin] = 1.0
    s01[origin] = 0.0
    t00[origin] = 1.0
    t01[origin] = 0.0

    return DiagonalizerSet(
        table=table,
        s00=s00,
        s01=s01,
        t00=t00,
        t01=t01,
        degenerate_coupling=False,
    )


@dataclass(frozen=True)
class XiField:
    """Diagonalized perturbation variables plus the retained zero-mode polar data.

    xi is stored on the full grid (origin slot zero); theta and a are the
    polar angle and modulus of the recentered carrier coefficient, so the
    transform chain is exactly invertible.
    """

    ctx: DiagonalizerSet
    xi: np.ndarray
    theta: float
    a: float

    def __post_init__(self):
        self.xi.flags.writeable = False

    @property
    def grid(self) -> Grid:
        return self.ctx.table.grid

    @property
    def ell(self) -> Mode:
        return self.ctx.table.ell


def u_to_xi(u: SpectralField, ctx: DiagonalizerSet) -> XiField:
    """Transform a field near the plane wave into diagonalized variables.

    The field's mass must match the context's rho^2 budget (the inverse
    recomputes the carrier modulus from that budget).
    """
    grid = ctx.table.grid
    if u.grid != grid:
        raise DomainError("field grid does not match the diagonalizer grid")
    return _recentered_to_xi(grid.shift(u.coeffs, ctx.table.ell), u.mass(), ctx)


def _recentered_to_xi(v: np.ndarray, mass: float, ctx: DiagonalizerSet) -> XiField:
    """u_to_xi from the recentered coefficients v_j = u_{ell+j} and the mass of u.

    Lets a caller that already holds v and the mass (TrajectoryRecorder)
    skip a second shift and a second pass over |u_j|^2.  v is not modified.
    """
    table = ctx.table
    grid = table.grid
    rho2 = table.rho * table.rho
    if abs(mass - rho2) > 1e-6 * max(rho2, 1.0):
        raise DomainError(
            f"field mass {mass} does not match the context budget rho^2 = {rho2}"
        )

    origin = grid.origin
    v0 = complex(v[origin])
    a = abs(v0)
    if a == 0.0:
        raise ZeroCarrierModeError(
            "carrier coefficient is zero; polar angle undefined"
        )
    theta = math.atan2(v0.imag, v0.real)
    w = v * np.exp(-1j * theta)
    w[origin] = 0.0

    xi = ctx.s00 * w + ctx.s01 * np.conj(w[grid.negation])
    xi[origin] = 0.0
    return XiField(ctx=ctx, xi=xi, theta=theta, a=a)


def xi_to_u(xi: XiField) -> SpectralField:
    """Invert the transform chain; exact inverse of u_to_xi.

    The carrier modulus is recomputed from a = sqrt(rho^2 - sum|w_j|^2);
    MassDeficitError if the non-carrier block exceeds the budget.
    """
    ctx = xi.ctx
    grid = xi.grid
    origin = grid.origin

    w = ctx.t00 * xi.xi + ctx.t01 * np.conj(xi.xi[grid.negation])
    w[origin] = 0.0

    rho2 = ctx.table.rho * ctx.table.rho
    rad = rho2 - float(np.sum(np.abs(w) ** 2))
    if rad < 0.0:
        raise MassDeficitError(
            f"non-carrier mass exceeds the budget rho^2 = {rho2} by {-rad}"
        )
    a = math.sqrt(rad)

    v = w * np.exp(1j * xi.theta)
    v[origin] = a * np.exp(1j * xi.theta)
    return SpectralField(grid, grid.shift(v, tuple(-c for c in xi.ell)))
