"""The non-resonance checker's meet-in-the-middle search against two oracles:
the brute-force mode-level enumeration and the class-level recursion."""

import itertools
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from torusnls import Grid, build_frequency_table, cfl_max_h, check_assumption2, stability
from torusnls._serialize import dumps

from resonance_oracle import canonical_witness, class_level_report, oracle_violations


def _table_if_clean(h, rho, lam, K):
    grid = Grid(K=K, d=1)
    table = build_frequency_table(h, rho, lam, (0,), grid)
    origin = grid.index_of((0,))
    ok = np.ones(grid.shape, dtype=bool)
    ok[origin] = False
    if not bool(np.all(table.omega_status[ok] == "ok")):
        return None
    return table


def _compare(table, N, c2, delta2, s2):
    oracle_holds, oracle_set = oracle_violations(table, N, c2, delta2, s2)
    full = check_assumption2(table, N=N, c2=c2, delta2=delta2, s2=s2, exhaustive=True)
    assert full.holds == oracle_holds
    assert {canonical_witness(w) for w in full.witnesses} == oracle_set
    short = check_assumption2(table, N=N, c2=c2, delta2=delta2, s2=s2)
    assert short.holds == oracle_holds
    if not short.holds:
        assert canonical_witness(short.witnesses[0]) in oracle_set
    return oracle_holds


def test_checker_matches_oracle_under_cfl():
    # CFL step sizes with 1 + 2*lam*rho^2 > 0 keep every mode stable, so the
    # checker runs on clean tables
    rng = np.random.default_rng(8)
    for K in (2, 3):
        for N in (2, 3):
            for _ in range(3):
                lam = int(rng.choice([-1, 1]))
                rho_top = math.sqrt(0.5) * 0.99 if lam == -1 else 1.0
                rho = float(rng.uniform(0.1, rho_top))
                h = float(rng.uniform(0.2, 1.0)) * cfl_max_h(1, K, rho, N)
                table = _table_if_clean(h, rho, lam, K)
                assert table is not None
                _compare(table, N, 8.0, 0.1, 5.0 * N)


def test_checker_matches_oracle_with_violations():
    # larger steps leave the certified regime, so violating combinations
    # actually occur and both enumerations must flag the same ones
    rng = np.random.default_rng(9)
    seen_violation = False
    for _ in range(40):
        K = int(rng.choice([2, 3]))
        N = int(rng.choice([2, 3]))
        rho = float(rng.uniform(0.1, 1.2))
        h = float(rng.uniform(0.5, 4.0)) * cfl_max_h(1, K, rho, N)
        lam = int(rng.choice([-1, 1]))
        table = _table_if_clean(h, rho, lam, K)
        if table is None:
            continue
        # a permissive bound with a heavy tail makes lhs > rhs reachable
        holds = _compare(table, N, 0.05, 0.5, 10.0 * N)
        seen_violation = seen_violation or not holds
    assert seen_violation


def test_oracle_counts_class_aggregation(grid2):
    # +k on mode j and +k on mode -j are one class-level combination: the
    # canonical witness set must not distinguish them
    table = build_frequency_table(0.1, math.sqrt(0.4), -1, (0,), grid2)
    _, found = oracle_violations(table, 2, 1e-12, 1e-12, 10.0)
    assert found == set()  # nothing violates with an unreachable threshold
    full = check_assumption2(table, N=2, c2=8.0, delta2=0.1, s2=10.0, exhaustive=True)
    assert full.holds


_REFERENCE_POINTS = [
    # first-violation exits at K = 12, out of the mode-level oracle's reach
    (1, 12, 0.042, 0.2, 5, (8.0, 0.1, 25.0), False, 14249, (0,)),
    (1, 12, 0.05, 0.2, 5, (8.0, 0.1, 25.0), False, 84904, (0,)),
    (2, 3, 0.05, 0.4, 3, (8.0, 0.1, 15.0), False, 5640, (0, 0)),
    (2, 3, 0.05, 0.4, 3, (0.05, 0.5, 30.0), True, 5640, (0, 0)),
    (1, 4, 0.05, 0.4, 3, (8.0, 0.1, 15.0), False, 320, (0,)),
    (1, 4, 0.05, 0.4, 3, (0.05, 0.5, 30.0), True, 320, (0,)),
    # nonzero carriers, where the class key (n, shift) has shift != 0
    (1, 16, 0.01, 0.4, 3, (8.0, 0.1, 15.0), False, 228, (3,)),
    (2, 3, 0.05, 0.4, 3, (8.0, 0.1, 15.0), True, 172040, (1, 0)),
]


def _reference_id(i, point):
    # the names these cases have carried since the table also selected a
    # frequency family: that column sat before exhaustive, 1.0 in cases 4 and 5
    d, K, h, rho2, N, _, exhaustive, n_vectors, ell = point
    family = "1.0" if i in (4, 5) else "0.0"
    return (f"{d}-{K}-{h}-{rho2}-{N}-constants{i}-{family}-{exhaustive}-{n_vectors}"
            f"-ell{i}")


@pytest.mark.parametrize(
    "d, K, h, rho2, N, constants, exhaustive, n_vectors, ell",
    _REFERENCE_POINTS,
    ids=[_reference_id(i, p) for i, p in enumerate(_REFERENCE_POINTS)],
)
def test_checker_matches_class_level_reference(
    d, K, h, rho2, N, constants, exhaustive, n_vectors, ell
):
    table = build_frequency_table(h, math.sqrt(rho2), -1, ell, Grid(K=K, d=d))
    c2, delta2, s2 = constants
    report = check_assumption2(table, N, c2, delta2, s2, exhaustive)
    reference = class_level_report(table, N, c2, delta2, s2, exhaustive)
    assert report.n_vectors == n_vectors
    assert dumps(asdict(report)) == dumps(asdict(reference))


def test_first_violation_has_minimal_order():
    # the criterion-8 parameter sets: a short-circuit report stops at the
    # first violation in enumeration order, the exhaustive report's first
    rng = np.random.default_rng(8)
    violating = 0
    for _ in range(20):
        rho = float(rng.uniform(0.1, 0.7))
        h = float(rng.uniform(0.2, 1.0)) * cfl_max_h(1, 3, rho, 3)
        for K, N in itertools.product((2, 3), (2, 3)):
            table = build_frequency_table(h, rho, -1, (0,), Grid(K=K, d=1))
            for c2, delta2, s2 in ((8.0, 0.1, 5.0 * N), (0.05, 0.5, 10.0 * N)):
                short = check_assumption2(table, N=N, c2=c2, delta2=delta2, s2=s2)
                if short.holds:
                    continue
                violating += 1
                full = check_assumption2(table, N=N, c2=c2, delta2=delta2, s2=s2,
                                         exhaustive=True)
                assert short.witnesses[0] == full.witnesses[0]
                assert short.n_vectors <= full.n_vectors
    assert violating == 28


def test_enumeration_memory_is_bounded(grid16):
    # the full N = 5 enumeration at the defaults (1,884,960 vectors) holds
    # quarter- and half-vectors and candidate pairs, never a total order
    table = build_frequency_table(0.04, math.sqrt(0.4), -1, (0,), grid16)
    tracemalloc.start()
    try:
        report = check_assumption2(table, N=5, c2=8.0, delta2=0.1, s2=25.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_vectors == 1884960
    assert peak <= 3e6


def test_screen_passes_rows_at_the_small_divisor_threshold():
    # with delta2 equal to one vector's own delta that vector is a small
    # divisor, one ulp lower it is not: the numpy screen must hand it to the
    # scalar decision in both cases
    table = build_frequency_table(0.04, math.sqrt(0.4), -1, (0,), Grid(K=8, d=1))
    edge = check_assumption2(table, N=3, c2=8.0, delta2=0.1, s2=15.0).tightest.delta
    reports = []
    for delta2 in (edge, math.nextafter(edge, 0.0)):
        report = check_assumption2(table, N=3, c2=8.0, delta2=delta2, s2=15.0)
        reference = class_level_report(table, 3, 8.0, delta2, 15.0)
        assert dumps(asdict(report)) == dumps(asdict(reference))
        reports.append(report)
    assert reports[0].tightest.delta == edge
    assert reports[0].n_small_divisors > reports[1].n_small_divisors


# nonzero d = 1 carriers, by K, that leave at most seven frequency classes
_CARRIERS = {2: (1,), 3: (1, 2), 4: (1, 2, 3), 6: (3,)}


def test_search_matches_class_level_reference_on_random_draws(monkeypatch):
    # 1 class leaves the head half empty and odd counts split unequally; two
    # draws in four stream the half sets in chunks of 4 and screen their
    # candidates about 4 pairs at a time, so both constant sets meet both
    rng = np.random.default_rng(21)
    seen = set()
    for draw in range(70):
        K = int(rng.integers(1, 8))
        ell = 0
        if K in _CARRIERS and rng.random() < 0.4:
            ell = int(rng.choice(_CARRIERS[K]))
        N = int(rng.integers(1, 5))
        lam = int(rng.choice([-1, 1]))
        h = float(rng.uniform(0.02, 0.6))
        table = build_frequency_table(h, math.sqrt(rng.uniform(0.05, 0.45)), lam, (ell,),
                                      Grid(K=K, d=1))
        if not bool(np.all(table.omega_status[table.grid.nonzero] == "ok")):
            continue
        c2, delta2, s2 = ((8.0, 0.1, 5.0 * N), (0.05, 0.5, 10.0 * N))[draw % 2]
        exhaustive = bool(rng.random() < 0.5)
        monkeypatch.setattr(stability, "_CHUNK", 4 if draw % 4 < 2 else 1 << 13)
        report = check_assumption2(table, N, c2, delta2, s2, exhaustive)
        reference = class_level_report(table, N, c2, delta2, s2, exhaustive)
        assert dumps(asdict(report)) == dumps(asdict(reference))
        ncls = len(table.frequency_classes[0])
        seen |= {("classes", ncls), ("N", N), ("exhaustive", exhaustive),
                 ("carrier", ell != 0), ("holds", report.holds)}
    assert {("classes", c) for c in range(1, 8)} <= seen
    assert {("N", n) for n in range(1, 5)} <= seen
    assert {("exhaustive", True), ("exhaustive", False), ("carrier", True),
            ("holds", True), ("holds", False)} <= seen


@pytest.mark.parametrize("exhaustive", [False, True])
def test_search_matches_class_level_reference_at_complete_resonances(monkeypatch, exhaustive):
    # the random draws above meet no complete resonance: with at most seven
    # classes and N <= 4 no structural combination exists.  The smallest d = 1
    # case with one is K = 6, carrier 2, N = 3 (11 classes), where the
    # classes of n = 1 and 4 cancel in n and in shift.  c2 = 1e3 passes the
    # small divisors that come before it in enumeration order
    monkeypatch.setattr(stability, "_CHUNK", 4)
    table = build_frequency_table(0.05, math.sqrt(0.3), -1, (2,), Grid(K=6, d=1))
    report = check_assumption2(table, 3, 1e3, 0.1, 15.0, exhaustive)
    reference = class_level_report(table, 3, 1e3, 0.1, 15.0, exhaustive)
    assert dumps(asdict(report)) == dumps(asdict(reference))
    assert not report.part_c_verdict
    assert report.witnesses[0].kind == "complete-resonance"
    assert report.n_vectors == (11968 if exhaustive else 5437)


def test_screen_keeps_every_structural_resonance_at_a_tiny_delta2():
    # delta2 = 1e-300 shrinks the small-divisor window to nothing, so only
    # the part of the screen's bound that does not scale with delta2 (the
    # float error bound of h*(k.omega) for a structural k, and the last-ulp
    # slack) keeps the complete resonances: the same six as at delta2 = 0.1
    table = build_frequency_table(0.04, math.sqrt(0.4), -1, (3,), Grid(K=8, d=1))

    def complete(delta2):
        report = check_assumption2(table, 4, 8.0, delta2, 20.0, exhaustive=True)
        return [w.k for w in report.witnesses if w.kind == "complete-resonance"]

    found = complete(1e-300)
    assert len(found) == 6
    assert found == complete(0.1)


def test_search_pairs_everything_when_the_window_covers_the_circle(monkeypatch):
    # delta2*h >= 2 makes every vector a small divisor: the window passes a
    # whole turn, and all pairs go to the screen in pieces of about _CHUNK
    monkeypatch.setattr(stability, "_CHUNK", 16)
    table = build_frequency_table(0.5, math.sqrt(0.4), -1, (0,), Grid(K=4, d=1))
    report = check_assumption2(table, 3, 1e3, 5.0, 15.0, exhaustive=True)
    reference = class_level_report(table, 3, 1e3, 5.0, 15.0, exhaustive=True)
    assert dumps(asdict(report)) == dumps(asdict(reference))
    assert report.n_small_divisors == report.n_vectors == 320


def test_circular_pairs_wrap_at_both_ends():
    # a just above 0 meets b just below 2*pi and b just above 0, and a just
    # below 2*pi meets both as well: each pair once, found one turn round
    two_pi = 2.0 * math.pi
    a = np.array([1e-7, two_pi - 1e-7, 1.0, 3.0])
    b = np.array([2e-7, 2.5e-6, 3.2831853071795862, two_pi - 3e-7])

    def pairs(w):
        return sorted((p, q) for i, j in stability._circular_pairs(a, b, w)
                      for p, q in zip(i.tolist(), j.tolist()))

    assert pairs(1e-6) == [(0, 0), (0, 3), (1, 0), (1, 3), (3, 2)]
    # from a window of half a turn every pair is returned, once
    every = [(p, q) for p in range(4) for q in range(4)]
    assert pairs(math.pi) == pairs(4.0) == every
