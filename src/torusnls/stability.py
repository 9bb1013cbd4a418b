"""Frequency apparatus and assumption checkers for plane-wave stability.

Per nonzero relative mode j the linearized split-step map couples the pair
(w_j, conj(w_{-j})) through a 2x2 matrix with entries

    alpha_j = (1 - i*h*lam*rho^2) * exp(-i*n(j)*h)
    beta_j  = -i*h*lam*rho^2 * exp(-i*n(j)*h)

where n(j) is an integer combination of mod-reduced mode norms.  Linear
stability requires every eigenvalue pair to stay on the unit circle, which
reduces to (cos(n(j)h) - h*lam*rho^2*sin(n(j)h))^2 <= 1 - c1*h^2 with a
positive margin c1.  The numerical frequencies omega_j are the eigenvalue
phases.

The non-resonance checker enumerates signed integer combinations of frequency
classes and verifies a small-divisor lower bound plus the absence of complete
resonances.  A class is the set of nonzero modes sharing the integer pair
(n(j), shift(j)), on which omega_j = shift_j + phi(n_j)/h depends alone, so two
modes whose frequencies agree only by coincidence stay in separate classes.
A complete resonance is decided in integers on those keys: k.omega vanishes
for every h and rho when, for each n, k's coefficients on the classes with
that n sum to 0 and sum k_c*shift_c = 0.  Every other combination, an
exact float zero of k.omega included, is a small divisor or nothing.  Only the
combinations whose angle h*(k.omega) lies near a multiple of 2*pi can be
either, and the checker finds those by a meet-in-the-middle search (Horowitz
and Sahni, J. ACM 21, 1974): the classes split into two halves, and a
half-vector is paired with those of the other half whose angles nearly cancel
its own, found by binary search among them sorted.  numpy then sums k.omega
over the pairs column by column in class order, which is the scalar
left-to-right sum, and screens out the rows that can be neither; the few rows
left are decided by scalar code with math.sin, Python powers and the integer
keys, one total order at a time and each order in the fixed lexicographic
enumeration order.  The report is
therefore the same bit for bit as a one-vector-at-a-time enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .spectral import Grid, Mode, as_mode, mod_reduce

__all__ = [
    "LinearStabilityReport",
    "FrequencyTable",
    "ComboWitness",
    "ResonanceReport",
    "check_assumption1",
    "cfl_max_h",
    "build_frequency_table",
    "check_assumption2",
]

_TWO_PI = 2.0 * math.pi


def _check_lambda(lam: int) -> int:
    if lam not in (-1, 1):
        raise DomainError(f"lambda must be +1 or -1, got {lam!r}")
    return int(lam)


@dataclass(frozen=True)
class LinearStabilityReport:
    """Certified linear-stability margin over all nonzero modes."""

    holds: bool
    c1_certified: float
    worst_j: Mode


def check_assumption1(table: FrequencyTable) -> LinearStabilityReport:
    """Largest certified c1 with (cos(nh) - h*lam*rho^2*sin(nh))^2 <= 1 - c1*h^2.

    c1 is the smallest half-angle margin q2 of the frequency table over the
    nonzero modes, divided by h^2; holds iff c1 > 0, which for rho > 0 is
    exactly when build_diagonalizers succeeds on the table's parameters.
    worst_j is the first mode (in lexicographic storage order) attaining the
    minimum.
    """
    grid = table.grid
    q2_min = np.min(table.q2[grid.nonzero])
    worst_j = grid.mode_at(grid.nonzero & (table.q2 == q2_min))
    c1 = float(q2_min / (table.h * table.h))
    return LinearStabilityReport(holds=c1 > 0.0, c1_certified=c1, worst_j=worst_j)


def cfl_max_h(d: int, K: int, rho0: float, N: int) -> float:
    """Largest step size with d*h*K^2 + 2*h*rho0^2 <= pi/(N+1)."""
    if K < 1:
        raise DomainError(f"K must be >= 1, got {K}")
    if N < 2:
        raise DomainError(f"N must be >= 2, got {N}")
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if not math.isfinite(rho0):
        raise DomainError(f"rho0 must be finite, got {rho0!r}")
    return math.pi / ((N + 1) * (d * K * K + 2.0 * rho0 * rho0))


@dataclass(frozen=True, eq=False)
class FrequencyTable:
    """Per-mode frequency data on the full grid (origin slot is a placeholder).

    Arrays are indexed like SpectralField coefficients (shifted lexicographic
    order).  shift is the integer frequency shift (|ell+j|^2 - |ell-j|^2)/2 and
    q2 = 1 - Re(alpha)^2 the stability margin in cancellation-free form.
    omega is NaN wherever omega_status != "ok".
    """

    grid: Grid
    ell: Mode
    h: float
    rho: float
    lam: int
    n: np.ndarray
    shift: np.ndarray
    q2: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    omega: np.ndarray
    omega_status: np.ndarray
    growth: np.ndarray

    def __post_init__(self):
        for name in ("n", "shift", "q2", "alpha", "beta", "omega", "omega_status", "growth"):
            getattr(self, name).flags.writeable = False

    def max_growth(self) -> float:
        return float(np.max(self.growth))

    @cached_property
    def coupling_classes(self) -> tuple[tuple[int, ...], np.ndarray]:
        """The distinct n(j) over nonzero modes, ascending, and the class index
        of every mode in flat storage order: np.unique's inverse at the
        nonzero modes, and one class past the last, len(ms), at the origin."""
        nonzero = self.grid.nonzero.reshape(-1)
        ms, inverse = np.unique(self.n.reshape(-1)[nonzero], return_inverse=True)
        index = np.full(self.grid.size, len(ms))
        index[nonzero] = inverse
        index.flags.writeable = False
        return tuple(int(m) for m in ms), index

    @cached_property
    def frequency_classes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero modes grouped by the integer pair (n(j), shift(j)), as flat
        grid positions (rep, top, rep_of): per class, the member of smallest and
        of largest |j|^2, ties going to the first in storage order (which is
        lexicographic in j), the classes ordered by (|rep|^2, rep); and each
        mode's rep (the origin its own), shaped like the grid."""
        pos = np.flatnonzero(self.grid.nonzero)
        norm2 = self.grid.mode_norm2.reshape(-1)
        keys = np.stack((self.n.reshape(-1)[pos], self.shift.reshape(-1)[pos]), axis=1)
        _, cls = np.unique(keys, axis=0, return_inverse=True)
        first = np.r_[0, np.cumsum(np.bincount(cls))[:-1]]  # class starts once sorted
        # np.lexsort sorts on its last key first
        rep = pos[np.lexsort((pos, norm2[pos], cls))[first]]
        top = pos[np.lexsort((pos, -norm2[pos], cls))[first]]
        rep_of = np.arange(self.grid.size)
        rep_of[pos] = rep[cls]
        order = np.lexsort((rep, norm2[rep]))
        out = rep[order], top[order], rep_of.reshape(self.grid.shape)
        for a in out:
            a.flags.writeable = False
        return out


def build_frequency_table(
    h: float, rho: float, lam: int, ell: int | tuple, grid: Grid
) -> FrequencyTable:
    """Assemble n, shift, q2, alpha, beta, omega and growth.

    n(j) = (|ell+j|^2 + |ell-j|^2)/2 - |ell|^2 and the integer frequency shift
    (|ell+j|^2 - |ell-j|^2)/2 (norms mod-reduced, int64; both 0 at the
    origin); R = cos(nh) - h*lam*rho^2*sin(nh) = Re(alpha)*e^{+inh} and
    G = sin(nh) + h*lam*rho^2*cos(nh) = -Im(alpha)*e^{+inh}; q2 = 1 - R^2 as
    the product of (1 - R) and (1 + R) in half-angle form, since the direct
    difference loses ~eps/q2 relative accuracy as the margin shrinks with h.

    omega_j = shift_j + arccos(R)/(h*sgn(G)) is the eigenvalue phase of the
    mode's propagation block and growth_j = max(1, |R| + sqrt(R^2 - 1)) its
    spectral radius (the eigenvalues have product 1 and trace 2R).
    Per-mode omega failures are flagged in omega_status ("unstable" when the
    half-angle margin q2 is negative, "degenerate-sign" when the branch sign
    vanishes) with NaN entries rather than raised.
    """
    lam = _check_lambda(lam)
    if h <= 0.0 or not math.isfinite(h):
        raise DomainError(f"h must be positive and finite, got {h!r}")
    if not (rho >= 0.0 and math.isfinite(rho)):
        raise DomainError(f"rho must be nonnegative and finite, got {rho!r}")
    h = float(h)
    rho = float(rho)
    ell = mod_reduce(as_mode(ell, grid.d), grid)
    origin = grid.origin

    # |ell + j|^2, and |ell - j|^2 = |j - ell|^2, read off the recentered norms
    plus = grid.shift(grid.mode_norm2, ell)
    minus = grid.shift(grid.mode_norm2, tuple(-c for c in ell))
    n = (plus + minus) // 2 - sum(c * c for c in ell)
    shift = (plus - minus) // 2
    nh = n * h
    hl = h * lam * rho * rho
    sn = np.sin(nh)
    cs = np.cos(nh)
    r = cs - hl * sn
    g = sn + hl * cs
    q2 = (2.0 * np.sin(0.5 * nh) ** 2 + hl * sn) * (
        2.0 * np.cos(0.5 * nh) ** 2 - hl * sn
    )
    phase = np.exp(-1j * h * n)
    alpha = (1.0 - 1j * hl) * phase
    beta = (-1j * hl) * phase

    status = np.full(grid.shape, "ok", dtype="<U15")
    status[q2 < 0.0] = "unstable"
    status[(q2 >= 0.0) & (g == 0.0)] = "degenerate-sign"

    sgn = np.where(g > 0.0, 1.0, -1.0)
    om = shift + np.arccos(np.clip(r, -1.0, 1.0)) / (h * sgn)
    om[status != "ok"] = np.nan

    growth = np.maximum(1.0, np.abs(r) + np.sqrt(np.maximum(0.0, r * r - 1.0)))
    growth[origin] = 1.0

    alpha[origin] = 1.0
    beta[origin] = 0.0
    om[origin] = np.nan
    status[origin] = "excluded"

    return FrequencyTable(
        grid=grid,
        ell=ell,
        h=h,
        rho=rho,
        lam=lam,
        n=n,
        shift=shift,
        q2=q2,
        alpha=alpha,
        beta=beta,
        omega=om,
        omega_status=status,
        growth=growth,
    )


@dataclass(frozen=True)
class ComboWitness:
    """One combination vector, recorded as ((class representative, coefficient), ...).

    l is the support-class member of maximal modulus, the binding index for
    the small-divisor inequality lhs = |l|^4 / prod |j_rep|^(2|k_j|) <= rhs.
    kind is "small-divisor" (part (b)) or "complete-resonance" (part (c)).
    """

    k: tuple[tuple[Mode, int], ...]
    delta: float
    l: Mode
    lhs: float
    rhs: float
    kind: str


_HEADER = (
    "non-resonance check over frequency classes (class-support reading: "
    "at most one nonzero coefficient per class of equal frequency value); "
    "inequalities use the class-maximal modulus for l and class-representative "
    "moduli in the product"
)


@dataclass(frozen=True)
class ResonanceReport:
    """Verdict and witnesses for the non-resonance assumption, parts (b) and (c).

    part_b_ok: no small-divisor inequality violation found.
    part_c_verdict: no complete resonance (a structural class combination).
    witnesses holds every violation found (one per combination vector when
    exhaustive, the first one otherwise); tightest is the non-violating
    small-divisor combination with minimal margin rhs - lhs.
    """

    holds: bool
    N: int
    c2: float
    delta2: float
    s2: float
    header: str
    part_b_ok: bool
    part_c_verdict: bool
    tightest: ComboWitness | None
    witnesses: tuple[ComboWitness, ...]
    n_vectors: int
    n_small_divisors: int
    n_violations: int


# Most half-vectors, candidate pairs or screened rows one numpy pass handles.
_CHUNK = 1 << 13


def _order_counts(ncls: int, top: int) -> list[list[int]]:
    """counts[m][r]: the signed integer vectors over m classes with sum |k_c| = r."""
    counts = [[1] + [0] * top]
    for _ in range(ncls):
        prev = counts[-1]
        counts.append([prev[r] + 2 * sum(prev[:r]) for r in range(top + 1)])
    return counts


def _rank_table(counts: list[list[int]], ncls: int, top: int) -> np.ndarray:
    """earlier[m, r, i]: with order r left for a class and the m classes after it,
    the vectors whose coefficient on that class comes before the i-th code of
    0, +1, -1, +2, -2, ... (code i has magnitude (i + 1) // 2)."""
    left = np.arange(top + 1)[:, None] - (np.arange(2 * top + 1) + 1) // 2
    after = np.array(counts[:ncls], np.int64)[:, np.maximum(left, 0)]
    each = np.where(left >= 0, after, 0)
    return np.cumsum(each, axis=2) - each


def _spans(first: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) for every j in range(first[i], first[i] + size[i]), i ascending."""
    i = np.repeat(np.arange(len(size)), size)
    j = np.arange(len(i)) - np.repeat(np.cumsum(size) - size - first, size)
    return i, j


def _quarter_codes(m: int, top: int, dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every signed integer vector over m classes with sum |k_c| <= top, by order:
    codes of shape (m, count), each vector's order, and where each order starts."""
    k = np.zeros((0, 1), dtype)
    order = np.zeros(1, np.int64)
    for _ in range(m):
        room = top - order  # the largest |coefficient| the next class may take
        i, v = _spans(-room, 2 * room + 1)
        k = np.concatenate((k[:, i], v[None].astype(dtype)))
        order = order[i] + np.abs(v)
    by = np.argsort(order, kind="stable")
    order = order[by]
    return k[:, by], order, np.searchsorted(order, np.arange(top + 2))


def _pieces(size: np.ndarray):
    """(start, stop) ranges covering size in order, each summing to about _CHUNK
    at most: more only where one entry alone exceeds it."""
    ends = np.cumsum(size)
    total = int(ends[-1]) if len(ends) else 0
    cuts = np.searchsorted(ends, np.arange(_CHUNK, total, _CHUNK), "right").tolist()
    return zip([0, *cuts], [*cuts, len(size)])


def _circular_pairs(a: np.ndarray, b: np.ndarray, w: float):
    """Index pairs (i, j) with a[i] + b[j] within w of a multiple of 2*pi, for
    angles in [0, 2*pi] and b sorted ascending, in pieces of about _CHUNK: b[j]
    in 2*pi - a[i] +- w, where the b within w of 0 or of 2*pi are also looked
    for one turn further round.  No b is found twice while 2w < 2*pi; from
    there on every pair is returned."""
    if 2.0 * w < _TWO_PI:
        lo = np.searchsorted(b, w, "right")
        hi = np.searchsorted(b, _TWO_PI - w, "left")
        turned = np.concatenate((b[hi:] - _TWO_PI, b, b[:lo] + _TWO_PI))  # b[(hi + p) % n]
        target = _TWO_PI - a
        first = np.searchsorted(turned, target - w, "left")
        size = np.searchsorted(turned, target + w, "right") - first
    else:
        hi, first, size = 0, np.zeros(len(a), np.int64), np.full(len(a), len(b))
    for q0, q1 in _pieces(size):
        i, j = _spans(first[q0:q1], size[q0:q1])
        yield i + q0, (j + hi) % len(b)


def _screened_rows(
    class_freqs: list[float], h: float, counts: list[list[int]], rem_hi: float, w: float
):
    """The class vectors of order 1..top whose k.freq passes the screen
    |remainder(h*(k.freq), 2*pi)| <= rem_hi, in enumeration order, in chunks:
    yields (t, codes of shape (ncls, rows), k.freq, rank among the order-t
    vectors).

    The classes split into a head [0, m) and a tail [m, ncls), m = ncls // 2,
    and each half into two quarters.  Each quarter's vectors of order <= top
    are held with their angles h*(k.freq) mod 2*pi; a half's vectors of one
    order are the pairs of its quarters' vectors with the orders summing to
    it, angles added mod 2*pi.  For every split r + (t - r) = t the smaller of
    the two half sets is sorted by angle, and the larger is streamed in chunks
    past it: each of its vectors is paired, by binary search, with the vectors
    of the sorted side whose angles lie within w of minus its own.  Those
    candidates are screened with k.freq summed left to right in class order,
    the scalar sum, and ranked in the lexicographic order of the per-class
    codes 0, +1, -1, +2, -2, ..., class 0 most significant.
    """
    ncls, top = len(class_freqs), len(counts[0]) - 1
    dtype = np.min_scalar_type(-2 * top - 2)  # holds 2*top + 1
    earlier = _rank_table(counts, ncls, top)
    after = np.arange(ncls - 1, -1, -1)[:, None]  # classes after each class
    m = ncls // 2
    bounds = (0, m // 2, m, m + (ncls - m) // 2, ncls)
    tables: dict = {}
    quarters = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo not in tables:
            tables[hi - lo] = _quarter_codes(hi - lo, top, dtype)
        k, order, starts = tables[hi - lo]
        angle = np.zeros(k.shape[1])
        for c in range(lo, hi):
            angle += np.multiply(k[c - lo], class_freqs[c], dtype=np.float64)
        angle *= h
        quarters.append((k, order, starts, np.mod(angle, _TWO_PI, out=angle)))

    def half_chunks(side: int, r: int):
        """(x, y, angle) chunks over the half's vectors of order r: indices into
        its two quarters, and angles."""
        (_, ox, sx, ax), (_, _, sy, ay) = quarters[2 * side:2 * side + 2]
        nx = sx[r + 1]  # the first quarter's vectors of order <= r
        first = sy[r - ox[:nx]]
        size = sy[r - ox[:nx] + 1] - first
        for x0, x1 in _pieces(size):
            x, y = _spans(first[x0:x1], size[x0:x1])
            x += x0
            yield x, y, np.mod(ax[x] + ay[y], _TWO_PI)

    sorted_halves: dict = {}

    def sorted_half(side: int, r: int):
        """The half's vectors of order r in one (x, y, angle) chunk, by angle."""
        if (side, r) not in sorted_halves:
            x, y, angle = (np.concatenate(a) for a in zip(*half_chunks(side, r)))
            by = np.argsort(angle)
            sorted_halves[side, r] = x[by], y[by], angle[by]
        return sorted_halves[side, r]

    def rows(index: list) -> tuple[np.ndarray, np.ndarray]:
        """Codes of the vectors with these indices into the four quarters, and
        k.freq summed left to right in class order, as the scalar sum would be."""
        k = np.concatenate([q[0][:, i] for q, i in zip(quarters, index)])
        dot = np.zeros(k.shape[1])
        for c in range(ncls):
            dot += np.multiply(k[c], class_freqs[c], dtype=np.float64)
        return k, dot

    def screen(t: int, pairs: list) -> tuple[np.ndarray, ...]:
        """Quarter indices and ranks of the candidate pairs the screen keeps."""
        index = [np.concatenate(a) for a in zip(*pairs)]
        k, dot = rows(index)
        theta = h * dot
        keep = np.abs(theta - _TWO_PI * np.rint(theta / _TWO_PI)) <= rem_hi
        k = k[:, keep]
        mag = np.abs(k)
        left = t - np.cumsum(mag, axis=0, dtype=dtype) + mag  # order left at each class
        rank = earlier[after, left, 2 * mag - (k > 0)].sum(axis=0)
        # an order's kept rows are all held until they are ranked
        return (*(i[keep].astype(np.int32) for i in index), rank)

    for t in range(1, top + 1):
        kept, pairs, npairs = [], [], 0
        for r in range(t + 1):
            orders = (r, t - r)
            sizes = (counts[m][r], counts[ncls - m][t - r])
            if not min(sizes):
                continue
            big = int(sizes[1] > sizes[0])  # streamed; the other side is sorted
            sx, sy, sangle = sorted_half(1 - big, orders[1 - big])
            for x, y, angle in half_chunks(big, orders[big]):
                for i, j in _circular_pairs(angle, sangle, w):
                    found = ((x[i], y[i]), (sx[j], sy[j]))
                    pairs.append(found[big] + found[1 - big])
                    npairs += len(i)
                    if npairs >= _CHUNK:
                        kept.append(screen(t, pairs))
                        pairs, npairs = [], 0
        if pairs:
            kept.append(screen(t, pairs))
        *index, rank = (np.concatenate(a) for a in zip(*kept))
        del kept, pairs
        by = np.argsort(rank, kind="stable")
        for start in range(0, len(by), _CHUNK):
            chunk = by[start:start + _CHUNK]
            yield t, *rows([i[chunk] for i in index]), rank[chunk]


def check_assumption2(
    table: FrequencyTable,
    N: int,
    c2: float,
    delta2: float,
    s2: float,
    exhaustive: bool = False,
) -> ResonanceReport:
    """Check the non-resonance assumption over all class combinations of order <= N+1.

    For every signed integer vector k supported on class representatives with
    0 < sum|k_j| <= N+1: delta = |exp(i*h*(k.omega)) - 1|/h; if delta <= delta2
    the small-divisor bound lhs <= c2 * delta^(N/s2) must hold (part (b)),
    with lhs = (max support-class modulus)^4 / prod(rep modulus)^(2|k_j|).
    k is a complete resonance, which violates part (c), when it is structural:
    for each n its coefficients on the classes with that n sum to 0, and
    sum k_c*shift_c = 0, so k.omega = 0 for every h and rho.  That needs two
    classes of one n, so at carrier 0 part (c) always holds.  Any other k
    with a near-zero angle is decided by part (b) alone; at delta = 0 exactly,
    rhs = 0 and part (b) fails it.  Enumeration stops at the first violation
    unless exhaustive is set, in which case every violation is recorded.

    The vectors are not visited one by one.  The classes split into a head and
    a tail half; for each total order and each split of it between the halves,
    the half-vectors are paired whose angles h*(k.freq) mod 2*pi sum to within
    a window of a multiple of 2*pi.  The window is the screen's bound on
    |remainder(h*(k.freq), 2*pi)|, widened by a bound on the float error of
    the angles, so no vector the screen keeps is missed.  The pairs are
    screened as one-by-one enumeration would screen them, ranked in its order,
    and evaluated in that order, so the report, n_vectors at a first violation
    included, is the one-by-one enumeration's.
    """
    if isinstance(N, bool) or not isinstance(N, int) or N < 1:
        raise DomainError(f"N must be an integer >= 1, got {N!r}")
    if not (c2 > 0.0 and delta2 > 0.0 and s2 > 0.0):
        raise DomainError("c2, delta2 and s2 must be positive")
    if not bool(np.all(table.omega_status[table.grid.nonzero] == "ok")):
        raise DomainError(
            "frequency table has flagged modes; numerical frequencies "
            "are not defined for the non-resonance check"
        )

    grid = table.grid
    rep_pos, top_pos, rep_of = table.frequency_classes
    bits = table.omega.view(np.int64)
    split = bits != bits.reshape(-1)[rep_of]
    if split.any():
        raise DomainError(
            f"mode {grid.mode_at(split)}: omega differs from that of its "
            "class representative, with which it shares (n, shift)"
        )
    ncls = len(rep_pos)
    j = np.stack(np.unravel_index(np.r_[rep_pos, top_pos], grid.shape), 1) - grid.K
    modes = list(map(tuple, j.tolist()))
    reps, max_mode = modes[:ncls], modes[ncls:]
    class_freqs = table.omega.reshape(-1)[rep_pos].tolist()
    norm2 = grid.mode_norm2.reshape(-1)
    rep_mod2, max_mod2 = norm2[rep_pos].tolist(), norm2[top_pos].tolist()
    h = table.h
    exponent = N / s2
    top = N + 1

    # A class's omega is shift_c + phi(n_c), with phi(n) the same float for
    # every class of one n.  So k.omega vanishes, for every h and rho, when k's
    # coefficients on the classes of each n sum to 0 and sum k_c*shift_c = 0:
    # such a structural k is a complete resonance, and no other k is.  It
    # exists only where two classes share n (never at carrier 0).
    class_n = table.n.reshape(-1)[rep_pos].tolist()
    class_shift = table.shift.reshape(-1)[rep_pos].tolist()
    shared_n = len(set(class_n)) < ncls

    def structural(kvec: list[int]) -> bool:
        sums = dict.fromkeys(class_n, 0)
        moment = 0
        for c, v in enumerate(kvec):
            if v:
                sums[class_n[c]] += v
                moment += v * class_shift[c]
        return moment == 0 and not any(sums.values())

    # Rows are screened on r = |remainder(theta, 2*pi)|, theta = h*(k.omega):
    # delta = 2|sin(r/2)|/h is at most delta2 iff r <= 2*asin(delta2*h/2).  A
    # structural k has k.omega = 0 in exact arithmetic on the unrounded
    # shift_c + phi(n_c); the rounding of each class frequency, the products,
    # at most ncls additions and the multiplication by h leave
    # |theta| <= (ncls + 2)*u*theta_max, u = 2**-53, to first order.  Rows
    # above the widened bound below are neither, whatever the last-ulp
    # differences between the round-based remainder, the float 2*pi and
    # math.sin; every other row is decided by the scalar code.
    theta_max = h * top * max(abs(f) for f in class_freqs)
    rem_hi = (
        max(2.0 * math.asin(min(1.0, 0.5 * delta2 * h)), (ncls + 2) * 2.0**-53 * theta_max)
        * (1.0 + 1e-9)
        + 1e-15 * (1.0 + theta_max)
    )

    n_small = 0
    violations: list[ComboWitness] = []
    tightest: ComboWitness | None = None
    tightest_margin = math.inf
    part_b_ok = True
    part_c_ok = True
    stop = False

    def make_witness(
        kvec: list[int], delta: float, lhs: float, rhs: float, kind: str
    ) -> ComboWitness:
        support = tuple(
            (reps[c], kvec[c]) for c in range(ncls) if kvec[c] != 0
        )
        lmax = max((c for c in range(ncls) if kvec[c] != 0),
                   key=lambda c: max_mod2[c])
        return ComboWitness(
            k=support,
            delta=delta,
            l=max_mode[lmax],
            lhs=lhs,
            rhs=rhs,
            kind=kind,
        )

    def evaluate(kvec: list[int], dot: float) -> None:
        nonlocal n_small, part_b_ok, part_c_ok, tightest, tightest_margin, stop
        # denominator and support-maximal modulus, in class order
        denom = 1.0
        num_mod2 = 0
        for c, v in enumerate(kvec):
            if v:
                denom = denom * float(rep_mod2[c]) ** abs(v)
                num_mod2 = max(num_mod2, max_mod2[c])
        theta = h * dot
        lhs = float(num_mod2) ** 2 / denom
        delta = 2.0 * abs(math.sin(0.5 * theta)) / h
        if shared_n and structural(kvec):
            part_c_ok = False
            violations.append(
                make_witness(kvec, delta, lhs, math.nan, "complete-resonance")
            )
            if not exhaustive:
                stop = True
                return
        if delta <= delta2:
            n_small += 1
            rhs = c2 * delta**exponent
            if lhs > rhs:
                part_b_ok = False
                violations.append(make_witness(kvec, delta, lhs, rhs, "small-divisor"))
                if not exhaustive:
                    stop = True
            else:
                margin = rhs - lhs
                if margin < tightest_margin:
                    tightest_margin = margin
                    tightest = make_witness(kvec, delta, lhs, rhs, "small-divisor")

    # The search compares float angles: each quarter's sum of products times h,
    # reduced mod 2*pi; sums of two of those, reduced again; and the window's
    # ends 2*pi - angle +- w.  The screen's theta and remainder are floats
    # too.  Each of these four (the screen, the head's angle, the tail's angle,
    # the window) is within (ncls + 8)*u*(theta_max + 4*pi) of its exact value,
    # u = 2**-53: the products, at most ncls additions and the multiplication
    # by h err by at most (ncls + 1)*u*theta_max, and each reduction mod 2*pi,
    # sum of two angles or shift by 2*pi by at most u*4*pi, four of them at
    # most.  w widens rem_hi by four times that bound, so every row the screen
    # keeps is a candidate.
    w = rem_hi + 4.0 * (ncls + 8) * 2.0**-53 * (theta_max + 2.0 * _TWO_PI)
    counts = _order_counts(ncls, top)
    for t, k, dot, rank in _screened_rows(class_freqs, h, counts, rem_hi, w):
        for kvec, d, r in zip(k.T.tolist(), dot.tolist(), rank.tolist()):
            evaluate(kvec, d)
            if stop:
                n_vectors = sum(counts[ncls][1:t]) + r + 1
                break
        if stop:
            break
    else:
        n_vectors = sum(counts[ncls][1:])

    return ResonanceReport(
        holds=part_b_ok and part_c_ok,
        N=N,
        c2=float(c2),
        delta2=float(delta2),
        s2=float(s2),
        header=_HEADER,
        part_b_ok=part_b_ok,
        part_c_verdict=part_c_ok,
        tightest=tightest,
        witnesses=tuple(violations),
        n_vectors=n_vectors,
        n_small_divisors=n_small,
        n_violations=len(violations),
    )
