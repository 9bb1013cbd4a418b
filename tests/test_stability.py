"""Per-mode linearized analysis: coupling index, propagation matrix,
stability margin, frequencies, CFL bound, and the non-resonance checker.

Per-mode values are read off the frequency table's arrays and checked
against hand values or against tests/frequency_oracle.py, which recomputes
them one mode at a time from the closed forms."""

import dataclasses
import json
import math

import numpy as np
import pytest

import frequency_oracle as oracle
from torusnls import (
    DomainError,
    Grid,
    NotLinearlyStableError,
    build_diagonalizers,
    build_frequency_table,
    cfl_max_h,
    check_assumption1,
    check_assumption2,
    mod_reduce,
)
from torusnls._serialize import dumps

RHO = math.sqrt(0.4)


def _at(table, j):
    """Position of mode j (any representative) in the table's arrays."""
    return table.grid.index_of(mod_reduce(j, table.grid))


def _n(j, ell, grid):
    # n does not depend on the step, amplitude or sign of the nonlinearity
    t = build_frequency_table(1.0, 0.0, 1, ell, grid)
    return int(t.n[_at(t, j)])


def test_n_of_j_zero_carrier(grid16):
    assert _n((3,), (0,), grid16) == 9
    assert _n((-16,), (0,), grid16) == 256


def test_n_of_j_hand_value_with_wrap(grid2):
    # ell=1, j=1: ell+j = 2 wraps to -2, so n = (4 + 0)/2 - 1 = 1
    assert _n((1,), (1,), grid2) == 1
    # ell=1, j=-2: both ell+j and ell-j wrap to modulus 1, n = 1 - 1 = 0
    assert _n((-2,), (1,), grid2) == 0


def test_n_of_j_symmetry(grid16, rng):
    ell = (3,)
    for _ in range(20):
        j = (int(rng.integers(-16, 16)),)
        if j == (0,):
            continue
        assert _n(j, ell, grid16) == _n(tuple(-c for c in j), ell, grid16)


def test_n_of_j_reduces_inputs(grid16):
    # the carrier is taken modulo 2K as well: ell = 17 is ell = -15
    a = build_frequency_table(0.04, RHO, -1, (17,), grid16)
    b = build_frequency_table(0.04, RHO, -1, (-15,), grid16)
    assert a.ell == (-15,)
    assert np.array_equal(a.n, b.n) and np.array_equal(a.shift, b.shift)


def test_mode_matrix_reference_values(grid16):
    t = build_frequency_table(0.04, RHO, -1, (0,), grid16)
    a, b = t.alpha[_at(t, (1,))], t.beta[_at(t, (1,))]
    assert a == pytest.approx(0.9998399360079641 - 0.024002132480058513j, rel=1e-13)
    assert b == pytest.approx(0.0006398293469861466 + 0.015987201706575648j, rel=1e-13)


def test_mode_matrix_norm_invariant(grid16, rng):
    for _ in range(30):
        j = (int(rng.integers(-16, 16)),)
        if j == (0,):
            continue
        h = float(rng.uniform(0.001, 0.2))
        rho = float(rng.uniform(0.0, 1.5))
        lam = int(rng.choice([-1, 1]))
        t = build_frequency_table(h, rho, lam, (0,), grid16)
        a, b = t.alpha[_at(t, j)], t.beta[_at(t, j)]
        assert abs(a) ** 2 - abs(b) ** 2 == pytest.approx(1.0, abs=1e-13)


def test_mode_matrix_zero_amplitude(grid16):
    t = build_frequency_table(0.1, 0.0, -1, (0,), grid16)
    a, b = t.alpha[_at(t, (2,))], t.beta[_at(t, (2,))]
    assert a == pytest.approx(complex(math.cos(0.4), -math.sin(0.4)), rel=1e-14)
    assert b == 0.0


def test_assumption1_reference_margins(grid16):
    r = check_assumption1(build_frequency_table(0.04, RHO, -1, (0,), grid16))
    assert r.holds
    assert r.c1_certified == pytest.approx(0.20006397724398051, rel=1e-12)
    assert r.worst_j == (-1,)

    r = check_assumption1(build_frequency_table(0.044, RHO, -1, (0,), grid16))
    assert r.holds
    assert r.c1_certified == pytest.approx(0.20007740668266422, rel=1e-12)

    r = check_assumption1(build_frequency_table(0.042, RHO, -1, (0,), grid16))
    assert not r.holds
    assert r.c1_certified == pytest.approx(-0.11976433456211927, rel=1e-12)
    assert r.worst_j == (-15,)


def test_assumption1_agrees_with_diagonalizers(grid16):
    # one decision: holds iff the diagonalizers exist, and then every nonzero
    # mode has a frequency; h = 1e-8 lies far inside the CFL bound, and the
    # aliased 2-D carrier has q2 = 0 exactly at j = (0, -4): ell + j and ell - j
    # reduce to the same vector mod 8, so n = 0 at every h and the block
    # [[1 - i*h*lam*rho^2, -i*h*lam*rho^2], [i*h*lam*rho^2, 1 + i*h*lam*rho^2]]
    # is a Jordan block with eigenvalue 1: the carrier is rightly rejected
    cases = [(0.04, (0,), grid16), (0.042, (0,), grid16), (1e-8, (0,), grid16),
             (0.245, (1, -2), Grid(K=4, d=2)), (0.01, (1, -2), Grid(K=4, d=2))]
    for h, ell, grid in cases:
        table = build_frequency_table(h, RHO, -1, ell, grid)
        r = check_assumption1(table)
        try:
            build_diagonalizers(table)
            built = True
        except NotLinearlyStableError:
            built = False
        assert r.holds == built, f"h={h} ell={ell}"
        if r.holds:
            assert set(np.unique(table.omega_status)) == {"ok", "excluded"}
    assert check_assumption1(
        build_frequency_table(1e-8, RHO, -1, (0,), grid16)
    ).c1_certified == pytest.approx(0.2, rel=1e-6)
    aliased = build_frequency_table(0.01, RHO, -1, (1, -2), Grid(K=4, d=2))
    at = aliased.grid.index_of((0, -4))
    assert aliased.n[at] == 0 and aliased.q2[at] == 0.0
    assert check_assumption1(aliased).worst_j == (0, -4)
    for h in (-0.04, 0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            build_frequency_table(h, RHO, -1, (0,), grid16)
    with pytest.raises(DomainError):
        build_frequency_table(0.04, math.nan, -1, (0,), grid16)


def test_assumption1_report_serialization(grid16):
    r = check_assumption1(build_frequency_table(0.04, RHO, -1, (0,), grid16))
    doc = json.loads(dumps(dataclasses.asdict(r)))
    assert list(doc) == ["holds", "c1_certified", "worst_j"]
    assert doc["holds"] is True
    assert doc["worst_j"] == [-1]
    assert doc["c1_certified"] == r.c1_certified


def test_omega_is_eigenvalue_phase(grid16, rng):
    # e^{-i omega h} must be an eigenvalue of the propagation block
    checked = 0
    for _ in range(60):
        j = (int(rng.integers(-16, 16)),)
        if j == (0,):
            continue
        h = float(rng.uniform(0.005, 0.05))
        rho = float(rng.uniform(0.1, 0.8))
        lam = int(rng.choice([-1, 1]))
        t = build_frequency_table(h, rho, lam, (0,), grid16)
        if t.omega_status[_at(t, j)] == "unstable":
            continue
        w = float(t.omega[_at(t, j)])
        eig = np.linalg.eigvals(oracle.block(j, (0,), h, rho, lam, grid16.K))
        assert min(abs(eig - np.exp(-1j * w * h))) < 1e-12
        checked += 1
    assert checked >= 20


def test_omega_even_at_zero_carrier(grid16):
    # every mode, in d = 1 and d = 2: omega_{-j} = omega_j around carrier 0
    for grid in (grid16, Grid(K=4, d=2)):
        t = build_frequency_table(0.04, RHO, -1, (0,) * grid.d, grid)
        assert np.array_equal(t.omega[grid.negation], t.omega, equal_nan=True)


def test_omega_degenerate_sign_rejected(grid2):
    # aliasing makes n vanish at j=-2 for ell=1; with rho=0 the branch
    # selector sin(nh) + h*lam*rho^2*cos(nh) is exactly zero, and the table
    # flags the mode instead of giving it a frequency
    t = build_frequency_table(0.1, 0.0, -1, (1,), grid2)
    i = grid2.index_of((-2,))
    assert t.omega_status[i] == "degenerate-sign"
    assert math.isnan(t.omega[i])


def test_growth_factor(grid16):
    t = build_frequency_table(0.04, RHO, -1, (0,), grid16)
    assert t.growth[_at(t, (1,))] == 1.0
    t = build_frequency_table(0.042, RHO, -1, (0,), grid16)
    g = t.growth[_at(t, (-15,))]
    assert g == pytest.approx(1.0146405598691435, rel=1e-12)
    assert g > 1.0


def test_cfl_reference_value():
    assert cfl_max_h(1, 16, RHO, 2) == pytest.approx(0.0040778720840989, rel=1e-12)


def test_cfl_monotonic():
    assert cfl_max_h(1, 16, RHO, 3) < cfl_max_h(1, 16, RHO, 2)
    assert cfl_max_h(1, 32, RHO, 2) < cfl_max_h(1, 16, RHO, 2)
    assert cfl_max_h(2, 16, RHO, 2) < cfl_max_h(1, 16, RHO, 2)


def test_cfl_validation():
    with pytest.raises(DomainError):
        cfl_max_h(0, 16, RHO, 2)
    with pytest.raises(DomainError):
        cfl_max_h(1, 0, RHO, 2)
    with pytest.raises(DomainError):
        cfl_max_h(1, 16, RHO, 1)
    with pytest.raises(DomainError, match="rho0"):
        cfl_max_h(1, 16, math.nan, 2)


def test_mu_value_and_lower_bound():
    # the oracle's mu, on which its varpi (criterion 6) relies
    assert oracle.mu(9, 0.04) == pytest.approx(9.410071291050674, rel=1e-13)
    # tan x >= x on (0, pi/2) makes mu_n >= n
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        h = float(rng.uniform(1e-4, (math.pi / 2) / n * 0.999))
        assert oracle.mu(n, h) >= n


# (d, K, ell, h, rho, lam): the default point, unstable modes at h = 0.042,
# a nonzero frequency shift at ell = 3, an aliased 2-D carrier with four unstable modes, d = 2
# with lam = +1, a degenerate branch sign (rho = 0, n = 0 at j = -2), and a
# d = 1, K = 4 grid at the default amplitude
ORACLE_POINTS = [
    (1, 16, (0,), 0.04, RHO, -1),
    (1, 16, (0,), 0.042, RHO, -1),
    (1, 16, (3,), 0.01, RHO, -1),
    (2, 4, (1, -2), 0.245, RHO, -1),
    (2, 8, (0, 0), 0.04, RHO, 1),
    (1, 2, (1,), 0.1, 0.0, -1),
    (1, 4, (0,), 0.05, RHO, -1),
]


def _close(a, b):
    """Equal within 1e-12 relative, NaN matching NaN."""
    if b != b:
        return a != a
    return abs(a - b) <= 1e-12 * abs(b)


def _point_id(point):
    d, K, ell, h, rho, lam = point
    return f"d{d}-K{K}-ell{','.join(map(str, ell))}-h{h}-rho2_{rho * rho:.1f}-lam{lam:+d}"


@pytest.mark.parametrize(
    "d, K, ell, h, rho, lam", ORACLE_POINTS, ids=[_point_id(p) for p in ORACLE_POINTS]
)
def test_frequency_table_matches_oracle(d, K, ell, h, rho, lam):
    grid = Grid(K=K, d=d)
    t = build_frequency_table(h, rho, lam, ell, grid)
    for j in grid.modes():
        m = oracle.mode(j, ell, h, rho, lam, K)
        i = grid.index_of(j)
        assert (int(t.n[i]), int(t.shift[i])) == (m.n, m.shift), f"j={j}"
        assert t.omega_status[i] == m.status, f"j={j}"
        if not any(j):
            continue
        # the table's half-angle q2 and the oracle's direct 1 - R^2 agree here
        assert m.n == 0 or abs(1.0 - m.r * m.r) > 1e-9, f"j={j} too close to q2 = 0"
        for name in ("alpha", "beta", "omega", "growth"):
            got, want = getattr(t, name)[i].item(), getattr(m, name)
            assert _close(got, want), f"{name} at j={j}: table {got}, oracle {want}"


def test_frequency_table_statuses_and_growth(grid16):
    t = build_frequency_table(0.042, RHO, -1, (0,), grid16)
    statuses = dict(zip(*np.unique(t.omega_status, return_counts=True)))
    assert int(statuses["unstable"]) == 2
    assert int(statuses["excluded"]) == 1
    i = grid16.index_of((-15,))
    assert t.omega_status[i] == "unstable"
    assert math.isnan(t.omega[i])
    assert t.max_growth() == pytest.approx(1.0146405598691435, rel=1e-12)


def test_frequency_table_omega_even(grid16):
    t = build_frequency_table(0.04, RHO, -1, (0,), grid16)
    for j in ((1,), (5,), (11,)):
        assert t.omega[_at(t, j)] == t.omega[_at(t, tuple(-c for c in j))]


def test_frequency_table_immutable(grid2):
    t = build_frequency_table(0.1, RHO, -1, (0,), grid2)
    with pytest.raises(ValueError):
        t.omega[0] = 0.0


def test_assumption2_small_reference(grid16):
    t = build_frequency_table(0.04, RHO, -1, (0,), grid16)
    r = check_assumption2(t, N=3, c2=8.0, delta2=0.1, s2=15.0)
    assert r.holds
    assert r.n_vectors == 50048
    assert r.n_small_divisors == 136
    assert r.tightest is not None
    assert r.tightest.delta == pytest.approx(0.01493905579617283, rel=1e-12)
    assert r.tightest.lhs == pytest.approx(3.361111111111111, rel=1e-12)
    assert r.tightest.rhs == pytest.approx(3.4510767419995374, rel=1e-12)
    assert r.part_b_ok and r.part_c_verdict


def test_assumption2_no_small_divisors(grid16):
    t = build_frequency_table(0.04, RHO, -1, (0,), grid16)
    r = check_assumption2(t, N=2, c2=8.0, delta2=0.1, s2=10.0)
    assert r.holds
    assert r.n_vectors == 6016
    assert r.n_small_divisors == 0
    assert r.tightest is None


def test_assumption2_holds_at_a_d3_near_resonance():
    # a d = 3 point under CFL (h/cfl_max_h = 0.49) where e_3 + e_12 + e_20 - e_36
    # (classes named by |j|^2) nearly cancels: h*(k.omega) = 2.2e-8.  No two
    # classes share n at carrier 0, so it is no complete resonance; it is the
    # tightest small divisor, and part (b) passes it
    grid = Grid(K=4, d=3)
    t = build_frequency_table(
        0.007857467762084654, math.sqrt(0.5268103245109661), 1, (0, 0, 0), grid
    )
    r = check_assumption2(t, N=3, c2=8.0, delta2=0.1, s2=15.0)
    assert r.holds and r.n_vectors == 658688
    assert r.tightest.k == (
        ((-1, -1, -1), 1), ((-2, -2, -2), 1), ((-4, -2, 0), 1), ((-4, -4, -2), -1)
    )
    assert r.tightest.lhs == 0.05
    assert r.tightest.delta == pytest.approx(2.768035145095382e-06, rel=1e-6)


@pytest.mark.parametrize("h_over_cfl", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("lam", [-1, 1])
def test_assumption2_fails_at_cfl_steps_for_small_rho(lam, h_over_cfl):
    # a CFL step does not give non-resonance at the shipped constants once rho
    # is small: 4*omega_1 - omega_2 is the rho -> 0 shadow of 4*1 - 4 = 0, its
    # delta (about 0.03 at rho = 0.1) shrinks like rho^2 whatever h, and
    # lhs = 2^4/(1^8 * 2^2) = 4 exceeds rhs = c2*delta^(N/s2)
    rho = 0.1
    h = h_over_cfl * cfl_max_h(1, 2, rho, 4)
    t = build_frequency_table(h, rho, lam, (0,), Grid(K=2, d=1))
    assert check_assumption1(t).holds
    r = check_assumption2(t, N=4, c2=8.0, delta2=0.1, s2=20.0)
    assert not r.holds and r.n_vectors == 56
    w = r.witnesses[0]
    assert w.k == (((-1,), 4), ((-2,), -1))
    assert w.l == (-2,)
    assert w.lhs == 4.0
    assert w.kind == "small-divisor"


def test_assumption2_rejects_flagged_tables(grid16, grid2):
    t = build_frequency_table(0.042, RHO, -1, (0,), grid16)
    with pytest.raises(DomainError):
        check_assumption2(t, N=2, c2=8.0, delta2=0.1, s2=10.0)
    # -1 and +1 share (n, shift), so a table giving them different omega has
    # no frequency for their class
    base = build_frequency_table(0.1, RHO, -1, (0,), grid2)
    omega = base.omega.copy()
    omega[grid2.index_of((1,))] += 0.5
    split = dataclasses.replace(base, omega=omega)
    with pytest.raises(DomainError, match=r"^mode \(1,\): omega differs"):
        check_assumption2(split, N=2, c2=8.0, delta2=0.1, s2=10.0)


def test_assumption2_keeps_coincident_frequencies_apart(grid2):
    # mode -2 (n = 4) given the omega of +-1 (n = 1) stays in its own class,
    # so e_{-1} - e_{-2} is a combination with k.omega = 0 exactly; grouping
    # the modes by their float omega would merge the two classes and hide it.
    # Its keys do not cancel (n = 1 and 4), so it is no complete resonance but
    # a small divisor with delta = 0 and rhs = 0, which part (b) fails
    base = build_frequency_table(0.1, RHO, -1, (0,), grid2)
    omega = base.omega.copy()
    shared = omega[grid2.index_of((1,))]
    omega[grid2.index_of((-2,))] = shared
    assert abs(math.remainder(base.h * shared, 2.0 * math.pi)) > 0.01
    t = dataclasses.replace(base, omega=omega)
    r = check_assumption2(t, N=1, c2=8.0, delta2=0.1, s2=5.0)
    assert not r.part_b_ok and r.part_c_verdict and r.n_vectors == 8
    w = r.witnesses[0]
    assert w.kind == "small-divisor"
    assert w.k == (((-1,), 1), ((-2,), -1))
    assert (w.delta, w.rhs, w.lhs) == (0.0, 0.0, 4.0)


def test_assumption2_parameter_validation(grid2):
    t = build_frequency_table(0.1, RHO, -1, (0,), grid2)
    with pytest.raises(DomainError):
        check_assumption2(t, N=0, c2=8.0, delta2=0.1, s2=5.0)
    with pytest.raises(DomainError):
        check_assumption2(t, N=2, c2=0.0, delta2=0.1, s2=5.0)
    for bad in ({"c2": math.nan}, {"delta2": math.nan}, {"s2": math.nan}):
        with pytest.raises(DomainError):
            check_assumption2(t, N=2, **{"c2": 8.0, "delta2": 0.1, "s2": 5.0, **bad})


def test_assumption2_rejects_a_float_order(grid2):
    t = build_frequency_table(0.1, RHO, -1, (0,), grid2)
    with pytest.raises(DomainError, match=r"^N must be an integer >= 1, got 2\.5$"):
        check_assumption2(t, N=2.5, c2=8.0, delta2=0.1, s2=5.0)


def test_assumption2_rejects_a_bool_order(grid2):
    t = build_frequency_table(0.1, RHO, -1, (0,), grid2)
    with pytest.raises(DomainError, match=r"^N must be an integer >= 1, got True$"):
        check_assumption2(t, N=True, c2=8.0, delta2=0.1, s2=5.0)


def test_assumption2_complete_resonance():
    # force h * omega onto 2*pi: a complete resonance in floats, but the one
    # class has no partner of its n, so no combination is structural; each is
    # a small divisor at delta ~ 1e-16 (sin(pi) in floats) that part (b) fails
    g = Grid(K=1, d=1)
    base = build_frequency_table(1.0, 0.5, 1, (0,), g)
    t = dataclasses.replace(base, omega=np.array([2.0 * math.pi, np.nan]))
    r = check_assumption2(t, N=1, c2=8.0, delta2=0.1, s2=5.0)
    assert not r.holds and not r.part_b_ok and r.part_c_verdict
    assert len(r.witnesses) == 1
    w = r.witnesses[0]
    assert w.kind == "small-divisor"
    assert w.k == (((-1,), 1),)
    assert w.delta == pytest.approx(2.45e-16, rel=0.01)
    assert w.lhs == 1.0 and w.rhs == pytest.approx(0.00604, rel=0.01)

    rx = check_assumption2(t, N=1, c2=8.0, delta2=0.1, s2=5.0, exhaustive=True)
    assert rx.n_vectors == 4
    assert rx.n_violations == 4
    assert {w.kind for w in rx.witnesses} == {"small-divisor"}


def test_assumption2_report_serialization(grid16):
    t = build_frequency_table(0.04, RHO, -1, (0,), grid16)
    r = check_assumption2(t, N=3, c2=8.0, delta2=0.1, s2=15.0)
    doc = json.loads(dumps(dataclasses.asdict(r)))
    # the field names and their order are the JSON schema of the check report
    assert list(doc) == [
        "holds", "N", "c2", "delta2", "s2", "header", "part_b_ok", "part_c_verdict",
        "tightest", "witnesses", "n_vectors", "n_small_divisors", "n_violations",
    ]
    assert list(doc["tightest"]) == ["k", "delta", "l", "lhs", "rhs", "kind"]
    assert doc["holds"] is True
    assert doc["n_vectors"] == r.n_vectors
    assert doc["tightest"]["delta"] == r.tightest.delta
    assert isinstance(doc["header"], str) and doc["header"]
