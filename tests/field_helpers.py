"""Per-mode and collocation views that only the tests need, rebuilt from the
package's public arrays.

The diagonalizers keep S_j as the first row s00/s01 of
[[a, b], [conj(b), conj(a)]]; S_j^{-1} is its adjugate (det S_j = 1), whose
first row is (conj(s00), -s01).  The helpers here assemble the 2x2 matrices,
their largest entry, the collocation values of a field and the field of given
collocation values, and the nonzero modes of a grid, so no accessor in the
package exists for tests alone.
"""

import math

import numpy as np

from torusnls import SpectralField, mod_reduce


def _matrix(grid, first, second, j):
    idx = grid.index_of(mod_reduce(j, grid))
    a, b = complex(first[idx]), complex(second[idx])
    return np.array([[a, b], [np.conj(b), np.conj(a)]], dtype=np.complex128)


def s_matrix(ctx, j):
    """S_j of a DiagonalizerSet at mode j (reduced mod 2K)."""
    return _matrix(ctx.table.grid, ctx.s00, ctx.s01, j)


def s_inv_matrix(ctx, j):
    """S_j^{-1} of a DiagonalizerSet at mode j (reduced mod 2K): the adjugate of S_j."""
    return _matrix(ctx.table.grid, np.conj(ctx.s00), -ctx.s01, j)


def entry_bound(ctx):
    """Largest entry modulus of S_j and S_j^{-1} over all modes.

    The adjugate S_j^{-1} has the entries of S_j up to conjugation and sign,
    so the maximum over s00 and s01 covers both.
    """
    return float(max(np.max(np.abs(a)) for a in (ctx.s00, ctx.s01)))


def values(f):
    """Collocation values u(x_q) = sum_j u_j e^{i j.x_q}, in the modes' storage order."""
    return np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(f.coeffs))) * f.coeffs.size


def trig_interpolate(vals, grid):
    """The field whose collocation values are vals (the inverse of values).

    Over-resolved signals alias: the coefficient at j collects every
    continuous mode k with k = j (mod 2K) entrywise.
    """
    v = np.asarray(vals, dtype=np.complex128)
    return SpectralField(grid, np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(v)) / v.size))


def collocation_axis(grid):
    """Collocation points along one axis: x_j = pi*j/K, j = -K..K-1."""
    return math.pi * grid.axis_modes / grid.K


def nonzero_modes(grid):
    """Modes with j != 0, in storage order."""
    return [j for j in grid.modes() if any(j)]
