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

and S_j is its adjugate (det = 1).  Only S_j is stored; xi_to_u applies
S_j^{-1} as the adjugate of S_j.  Under linear stability the normalizer
|beta|^2 - |lambda+ - alpha|^2 = 2q(|Im alpha| - q) with q = sqrt(1 - Re^2)
is positive for rho > 0.  In xi variables one split step acts diagonally,
xi_j -> exp(-i*omega_j*h)*xi_j, up to terms quadratic in the perturbation.

The carrier's polar angle theta is retained so the chain is exactly
invertible; its modulus is not, since the inverse recomputes it from the mass
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


@dataclass(frozen=True, eq=False)
class DiagonalizerSet:
    """Per-mode symplectic diagonalizers S_j.

    S_j has the conjugate-swap row structure [[a, b], [conj(b), conj(a)]], so
    only its first row is stored: S_j = [[s00, s01], ...].  The origin slot
    holds the identity, and so does every slot in the rho = 0 limit, where
    the linear part is already diagonal.
    """

    table: FrequencyTable
    s00: np.ndarray
    s01: np.ndarray

    def __post_init__(self):
        for name in ("s00", "s01"):
            getattr(self, name).flags.writeable = False


def build_diagonalizers(table: FrequencyTable) -> DiagonalizerSet:
    """Assemble S_j for all nonzero modes from a frequency table.

    Requires linear stability: every half-angle margin q2 = 1 - Re(alpha_j)^2
    must be positive (exactly when check_assumption1 holds) and every
    normalizer 2q(|Im alpha| - q) positive; otherwise NotLinearlyStableError
    names the offending mode.  rho = 0 degenerates the coupling (beta = 0)
    and yields identity matrices.
    """
    grid = table.grid
    if table.rho == 0.0:
        return DiagonalizerSet(
            table=table,
            s00=np.ones(grid.shape, dtype=np.complex128),
            s01=np.zeros(grid.shape, dtype=np.complex128),
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

    # S_j^{-1}'s off-diagonal lam_minus - conj(alpha) = i*sg*(|im| - q),
    # written through `gap`; its adjugate S_j negates it
    t01 = 1j * sg * gap / rn
    s00 = np.conj(beta) / rn
    s01 = -t01

    origin = grid.origin
    s00[origin] = 1.0
    s01[origin] = 0.0

    return DiagonalizerSet(
        table=table,
        s00=s00,
        s01=s01,
    )


@dataclass(frozen=True, eq=False)
class XiField:
    """Diagonalized perturbation variables plus the carrier's polar angle.

    xi is stored on the full grid (origin slot zero); theta is the polar
    angle of the recentered carrier coefficient, so the transform chain is
    exactly invertible.  u_to_xi of a batch gives a batch: xi shaped
    (B, *grid.shape) and theta an array (B,).
    """

    ctx: DiagonalizerSet
    xi: np.ndarray
    theta: float | np.ndarray

    def __post_init__(self):
        self.xi.flags.writeable = False
        if isinstance(self.theta, np.ndarray):
            self.theta.flags.writeable = False

    @property
    def grid(self) -> Grid:
        return self.ctx.table.grid

    @property
    def ell(self) -> Mode:
        return self.ctx.table.ell


def u_to_xi(u: SpectralField, ctx: DiagonalizerSet) -> XiField:
    """Transform a field near the plane wave into diagonalized variables.

    The field's mass must match the context's rho^2 budget (DomainError;
    the inverse recomputes the carrier modulus from that budget), and its
    recentered carrier coefficient must be nonzero (ZeroCarrierModeError).
    A batch (SpectralField.stack) is mapped row by row in one pass; its
    first row that fails raises that row's error.

    theta is math.atan2 per row: np.arctan2 differs from it in the last bit
    for some arguments on some hosts (SIMD), and D would then move.
    """
    table = ctx.table
    grid = table.grid
    if u.grid != grid:
        raise DomainError("field grid does not match the diagonalizer grid")
    v = grid.shift(u.coeffs, table.ell).reshape(-1, *grid.shape)  # a fresh array
    origin = (slice(None), *grid.origin)
    mass = np.atleast_1d(u.mass())
    undefined = _xi_undefined(table, mass, v[origin])
    if undefined.any():
        i = int(np.flatnonzero(undefined)[0])
        if undefined[i] == 1:
            raise DomainError(
                f"field mass {float(mass[i])} does not match the context budget "
                f"rho^2 = {table.rho * table.rho}"
            )
        raise ZeroCarrierModeError("carrier coefficient is zero; polar angle undefined")
    carrier = v[origin].tolist()
    thetas = np.array([math.atan2(c.imag, c.real) for c in carrier])
    w = np.multiply(v, np.exp(-1j * thetas).reshape((-1,) + (1,) * grid.d), out=v)
    w[origin] = 0.0

    # xi = s00 w + s01 conj(w_{-j}), formed in place: a block's temporaries
    # are large enough that each fresh one costs page faults.  The products
    # keep their operand order: numpy's SIMD complex multiply is not
    # symmetric in its operands to the last bit.
    partner = w[(slice(None), *grid.negation)]
    np.conjugate(partner, out=partner)
    np.multiply(ctx.s01, partner, out=partner)
    xi = np.multiply(ctx.s00, w, out=w)
    xi += partner
    xi[origin] = 0.0
    if u.batched:
        return XiField(ctx=ctx, xi=xi, theta=thetas)
    return XiField(ctx=ctx, xi=xi[0], theta=float(thetas[0]))


def _xi_undefined(table: FrequencyTable, mass: np.ndarray, carrier: np.ndarray) -> np.ndarray:
    """Per field, given its mass and recentered carrier coefficient v_0: 0
    where its xi map is defined, 1 where the mass misses the rho^2 budget,
    2 where v_0 = 0 (the first makes u_to_xi raise DomainError, the second
    ZeroCarrierModeError)."""
    rho2 = table.rho * table.rho
    off_budget = np.abs(mass - rho2) > 1e-6 * max(rho2, 1.0)
    return np.where(off_budget, 1, np.where(carrier == 0.0, 2, 0))


def xi_to_u(xi: XiField) -> SpectralField:
    """Invert the transform chain; exact inverse of u_to_xi.

    The carrier modulus is recomputed from a = sqrt(rho^2 - sum|w_j|^2);
    MassDeficitError if the non-carrier block exceeds the budget.  xi is
    one field, not a batch (DomainError).
    """
    if xi.xi.ndim > xi.grid.d:
        raise DomainError("xi_to_u inverts one field, not a batch")
    ctx = xi.ctx
    grid = xi.grid
    origin = grid.origin

    # det S_j = 1, so S_j^{-1} is its adjugate, first row (conj(s00), -s01)
    w = np.conj(ctx.s00) * xi.xi - ctx.s01 * np.conj(xi.xi[grid.negation])
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
