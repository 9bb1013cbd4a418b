"""Exhaustive mode-level oracle for the non-resonance checker.

Enumerates every signed integer vector over the nonzero modes themselves
(no class-level shortcuts), keeping only vectors that touch each equal-
frequency class at most once, and evaluates the small-divisor and complete-
resonance conditions directly from mode moduli.  For d=1 with carrier 0 the
members of each class share one modulus, so the checker's representative/
maximal-modulus conventions are exactly realizable at mode level and the two
implementations must agree bitwise.

Witnesses are canonicalized to class-aggregated form (support mapped to class
representatives, ordered by class; NaN right-hand sides replaced by None) so
sets can be compared across the two enumeration strategies.

class_level_report is a second, class-level reference: a depth-first
recursion that visits the checker's class combinations one at a time, in its
enumeration order and with its arithmetic, and returns the full report.  It
reaches inputs the mode-level brute force cannot (larger K and N, d = 2),
where the checker's report must match it byte for byte.

Both decide a complete resonance in integers, as the checker does: a
combination is one when, for each n(j), its coefficients on the modes with
that n sum to 0 and its coefficients times shift(j) sum to 0.
"""

import itertools
import math

from torusnls.stability import _HEADER, ComboWitness, ResonanceReport


def _mod2(m):
    return sum(c * c for c in m)


def _structural(table, support):
    """Whether the mode-level combination support [(j, k), ...] cancels in the
    integer keys: per n(j) the coefficients sum to 0, and sum k*shift(j) = 0.
    Then k.omega = 0 for every h and rho: a complete resonance."""
    sums = {}
    moment = 0
    for j, k in support:
        i = table.grid.index_of(j)
        n = int(table.n[i])
        sums[n] = sums.get(n, 0) + k
        moment += k * int(table.shift[i])
    return moment == 0 and not any(sums.values())


def _classes(table):
    """Classes of nonzero modes with bitwise-equal frequency, checker order."""
    groups = {}
    for j in table.grid.modes():
        if all(c == 0 for c in j):
            continue
        val = float(table.omega[table.grid.index_of(j)])
        groups.setdefault(val, []).append(j)
    items = []
    for val, members in groups.items():
        rep = min(members, key=lambda m: (_mod2(m), m))
        mx = max(_mod2(m) for m in members)
        max_mode = min((m for m in members if _mod2(m) == mx), key=tuple)
        items.append((rep, val, _mod2(rep), mx, max_mode, tuple(members)))
    items.sort(key=lambda it: (it[2], it[0]))
    return items


def canonical_witness(w):
    """Hashable, NaN-safe form of a ComboWitness for set comparison."""
    rhs = None if math.isnan(w.rhs) else w.rhs
    return (tuple(w.k), w.delta, tuple(w.l), w.lhs, rhs, w.kind)


def oracle_violations(table, N, c2, delta2, s2):
    """All violating combinations by brute force over mode-level vectors.

    Returns (holds, set of canonical witnesses).
    """
    classes = _classes(table)
    cls_of = {}
    for c, item in enumerate(classes):
        for m in item[5]:
            cls_of[m] = c
    modes = [m for item in classes for m in item[5]]
    h = table.h
    exponent = N / s2
    found = set()

    coeff_range = range(-(N + 1), N + 2)
    for ks in itertools.product(coeff_range, repeat=len(modes)):
        total = sum(abs(k) for k in ks)
        if total == 0 or total > N + 1:
            continue
        support = [(modes[i], ks[i]) for i in range(len(modes)) if ks[i] != 0]
        touched = [cls_of[j] for j, _ in support]
        if len(set(touched)) != len(touched):
            continue
        support.sort(key=lambda jk: cls_of[jk[0]])

        dot = 0.0
        denom = 1.0
        num = 0
        for j, k in support:
            c = cls_of[j]
            dot = dot + k * classes[c][1]
            denom = denom * float(_mod2(j)) ** abs(k)
            if _mod2(j) > num:
                num = _mod2(j)
        lhs = float(num) ** 2 / denom
        theta = h * dot
        delta = 2.0 * abs(math.sin(0.5 * theta)) / h

        kcanon = tuple((classes[cls_of[j]][0], k) for j, k in support)
        lead = max(
            (cls_of[j] for j, _ in support), key=lambda c: classes[c][3]
        )
        lmode = classes[lead][4]

        if _structural(table, support):
            found.add((kcanon, delta, lmode, lhs, None, "complete-resonance"))
        if delta <= delta2:
            rhs = c2 * delta**exponent
            if lhs > rhs:
                found.add((kcanon, delta, lmode, lhs, rhs, "small-divisor"))

    return (len(found) == 0), found


def class_level_report(table, N, c2, delta2, s2, exhaustive=False):
    """The checker's ResonanceReport, by recursion over class combinations.

    Each class takes a coefficient in the order 0, +1, -1, +2, -2, ... with
    class 0 most significant, one total order 1..N+1 at a time; dot, the
    denominator and the support-maximal modulus accumulate left to right in
    class order.  Inputs are assumed valid (the checker validates them).
    """
    classes = _classes(table)
    ncls = len(classes)
    h = table.h
    exponent = N / s2

    n_vectors = 0
    n_small = 0
    violations = []
    tightest = None
    tightest_margin = math.inf
    part_b_ok = True
    part_c_ok = True
    stop = False

    kvec = [0] * ncls

    def make_witness(delta, lhs, rhs, kind):
        support = tuple((classes[c][0], kvec[c]) for c in range(ncls) if kvec[c] != 0)
        lmax = max((c for c in range(ncls) if kvec[c] != 0),
                   key=lambda c: classes[c][3])
        return ComboWitness(k=support, delta=delta, l=classes[lmax][4], lhs=lhs,
                            rhs=rhs, kind=kind)

    def evaluate(dot, denom, num_mod2):
        nonlocal n_vectors, n_small, part_b_ok, part_c_ok, tightest
        nonlocal tightest_margin, stop
        n_vectors += 1
        theta = h * dot
        lhs = float(num_mod2) ** 2 / denom
        delta = 2.0 * abs(math.sin(0.5 * theta)) / h
        support = [(classes[c][0], kvec[c]) for c in range(ncls) if kvec[c] != 0]
        if _structural(table, support):
            part_c_ok = False
            violations.append(make_witness(delta, lhs, math.nan, "complete-resonance"))
            if not exhaustive:
                stop = True
                return
        if delta <= delta2:
            n_small += 1
            rhs = c2 * delta**exponent
            if lhs > rhs:
                part_b_ok = False
                violations.append(make_witness(delta, lhs, rhs, "small-divisor"))
                if not exhaustive:
                    stop = True
            else:
                margin = rhs - lhs
                if margin < tightest_margin:
                    tightest_margin = margin
                    tightest = make_witness(delta, lhs, rhs, "small-divisor")

    def recurse(c, remaining, dot, denom, num_mod2):
        if stop:
            return
        if c == ncls:
            if remaining == 0:
                evaluate(dot, denom, num_mod2)
            return
        recurse(c + 1, remaining, dot, denom, num_mod2)
        if stop:
            return
        freq = classes[c][1]
        rep2 = float(classes[c][2])
        top2 = classes[c][3]
        for mag in range(1, remaining + 1):
            d2 = denom * rep2**mag
            nm = num_mod2 if num_mod2 >= top2 else top2
            for sign in (+1, -1):
                kvec[c] = sign * mag
                recurse(c + 1, remaining - mag, dot + sign * mag * freq, d2, nm)
                kvec[c] = 0
                if stop:
                    return

    for total in range(1, N + 2):
        if stop:
            break
        recurse(0, total, 0.0, 1.0, 0)

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
