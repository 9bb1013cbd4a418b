"""Mode-by-mode reference for the frequency table.

Recomputes every per-mode quantity of build_frequency_table for one mode at
a time, in pure Python (math/cmath scalars, integer norms), from the closed
forms of the linearized split step around the plane wave rho*e^{i ell.x}:

    n(j)   = (|ell+j|^2 + |ell-j|^2)/2 - |ell|^2
    shift  = (|ell+j|^2 - |ell-j|^2)/2
    R      = cos(nh) - h*lam*rho^2*sin(nh)
    G      = sin(nh) + h*lam*rho^2*cos(nh)
    alpha  = (1 - i*h*lam*rho^2) * e^{-inh},  beta = -i*h*lam*rho^2 * e^{-inh}
    omega  = shift + arccos(R)/(h*sgn G)
    growth = max(1, |R| + sqrt(R^2 - 1))
    mu     = tan(nh)/h,  varpi = n - mu + sqrt(mu^2 + 2*lam*rho^2*mu)  (ell = 0)

with every norm taken on the representative in {-K, ..., K-1}^d modulo 2K.
The stability margin is the direct difference 1 - R^2, not the table's
half-angle product, so the two agree only away from q2 = 0; callers pick
points where the margin is either exactly zero or far from it.

It imports nothing from torusnls, so it shares no code with the table.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np


def _reduce(v, K):
    """Entrywise representative of an integer vector in {-K, ..., K-1} mod 2K."""
    return tuple((c + K) % (2 * K) - K for c in v)


def _norm2(v, K):
    return sum(c * c for c in _reduce(v, K))


@dataclass(frozen=True)
class OracleMode:
    n: int
    shift: int
    r: float
    alpha: complex
    beta: complex
    omega: float
    growth: float
    status: str
    varpi: float


def mu(n, h):
    """tan(n*h)/h on the branch n*h in (0, pi/2); NaN outside it."""
    if n < 1 or n * h >= math.pi / 2.0:
        return math.nan
    return math.tan(n * h) / h


def varpi(n, h, sigma, lam):
    """Modified frequency of a mode with |j|^2 = n around carrier 0; NaN where
    mu is undefined or the radicand mu^2 + 2*lam*sigma*mu is negative."""
    m = mu(n, h)
    if math.isnan(m):
        return math.nan
    rad = m * m + 2.0 * lam * sigma * m
    if rad < 0.0:
        return math.nan
    return n - m + math.sqrt(rad)


def mode(j, ell, h, rho, lam, K):
    """Every per-mode quantity of mode j around carrier ell on the 2K^d grid."""
    j = _reduce(j, K)
    ell = _reduce(ell, K)
    plus = _norm2([a + b for a, b in zip(ell, j)], K)
    minus = _norm2([a - b for a, b in zip(ell, j)], K)
    n, odd_n = divmod(plus + minus, 2)
    shift, odd_shift = divmod(plus - minus, 2)
    assert odd_n == odd_shift == 0, "|ell+j|^2 and |ell-j|^2 differ in parity"
    n -= _norm2(ell, K)

    hl = h * lam * rho * rho
    nh = n * h
    r = math.cos(nh) - hl * math.sin(nh)
    g = math.sin(nh) + hl * math.cos(nh)
    phase = cmath.exp(-1j * nh)
    alpha = (1.0 - 1j * hl) * phase
    beta = -1j * hl * phase

    if not any(j):
        status = "excluded"
    elif 1.0 - r * r < 0.0:
        status = "unstable"
    elif g == 0.0:
        status = "degenerate-sign"
    else:
        status = "ok"
    omega = math.nan
    if status == "ok":
        omega = shift + math.acos(r) / (h * (1.0 if g > 0.0 else -1.0))
    growth = 1.0 if abs(r) <= 1.0 else abs(r) + math.sqrt(r * r - 1.0)

    vp = math.nan
    if any(j) and not any(ell):
        vp = varpi(n, h, rho * rho, lam)
    return OracleMode(n=n, shift=shift, r=r, alpha=alpha, beta=beta,
                      omega=omega, growth=growth, status=status, varpi=vp)


def block(j, ell, h, rho, lam, K):
    """Full one-step matrix on (w_j, conj(w_{-j})): e^{-i*shift*h} [[alpha, beta],
    [conj(beta), conj(alpha)]]."""
    m = mode(j, ell, h, rho, lam, K)
    a, b = m.alpha, m.beta
    return cmath.exp(-1j * m.shift * h) * np.array(
        [[a, b], [b.conjugate(), a.conjugate()]], dtype=np.complex128
    )
