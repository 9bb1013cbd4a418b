"""Diagonalizing transforms: S-matrix algebra, the u <-> xi change of
variables, and the norm equivalence between xi and the carrier-free part."""

import math

import numpy as np
import pytest

import frequency_oracle as oracle
from field_helpers import entry_bound, nonzero_modes, s_inv_matrix, s_matrix
from torusnls import (
    DomainError,
    Grid,
    MassDeficitError,
    NotLinearlyStableError,
    SpectralField,
    XiField,
    ZeroCarrierModeError,
    build_diagonalizers,
    build_frequency_table,
    check_assumption1,
    project_away,
    sobolev_norm,
    u_to_xi,
    xi_to_u,
)

RHO = math.sqrt(0.4)
H = 0.04


@pytest.fixture
def diag16(grid16):
    return build_diagonalizers(build_frequency_table(H, RHO, -1, (0,), grid16))


def test_determinant_one(diag16, grid16):
    for j in nonzero_modes(grid16):
        s = s_matrix(diag16, j)
        assert abs(np.linalg.det(s) - 1.0) < 1e-12


def test_inverse_consistency(diag16, grid16):
    for j in ((1,), (-5,), (12,), (-16,)):
        prod = s_matrix(diag16, j) @ s_inv_matrix(diag16, j)
        assert np.max(np.abs(prod - np.eye(2))) < 1e-12


def test_conjugation_diagonalizes(diag16, grid16):
    # S A S^{-1} must be diagonal with phases e^{-i omega_j h}, e^{+i omega_{-j} h},
    # A the oracle's propagation block; the carrier 3 exercises the integer
    # frequency shift, which vanishes at 0
    table3 = build_frequency_table(0.01, RHO, -1, (3,), grid16)
    for diag in (diag16, build_diagonalizers(table3)):
        worst = 0.0
        t = diag.table
        omega, omega_neg = t.omega, t.omega[grid16.negation]
        for j in nonzero_modes(grid16):
            a = oracle.block(j, t.ell, t.h, RHO, -1, grid16.K)
            m = s_matrix(diag, j) @ a @ s_inv_matrix(diag, j)
            wj, wm = omega[grid16.index_of(j)], omega_neg[grid16.index_of(j)]
            expect = np.diag([np.exp(-1j * wj * t.h), np.exp(1j * wm * t.h)])
            worst = max(worst, float(np.max(np.abs(m - expect))))
        assert worst < 1e-12


def test_entry_bound(diag16, grid16):
    c1 = check_assumption1(diag16.table).c1_certified
    bound = math.sqrt(1.0 + RHO**2 / (2.0 * math.sqrt(c1)))
    assert entry_bound(diag16) <= bound
    for j in ((1,), (-2,), (9,)):
        assert np.max(np.abs(s_matrix(diag16, j))) <= bound + 1e-15
        assert np.max(np.abs(s_inv_matrix(diag16, j))) <= bound + 1e-15


def test_zero_amplitude_is_identity(grid16):
    d = build_diagonalizers(build_frequency_table(H, 0.0, -1, (0,), grid16))
    for j in ((1,), (-7,)):
        assert np.max(np.abs(s_matrix(d, j) - np.eye(2))) == 0.0


def test_unstable_parameters_rejected(grid16):
    with pytest.raises(NotLinearlyStableError) as info:
        build_diagonalizers(build_frequency_table(0.042, RHO, -1, (0,), grid16))
    assert "(-15," in str(info.value) or "(15," in str(info.value)


def test_round_trip_u_xi_u(grid16, make_datum, diag16):
    u = make_datum(grid16, (0,), RHO, 0.01, seed=3)
    xi = u_to_xi(u, diag16)
    back = xi_to_u(xi)
    assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12


def test_round_trip_xi_u_xi(grid16, diag16, rng):
    # the inverse transform rebuilds the carrier modulus from the mass
    # budget, so only (xi, theta) must round trip
    c = rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape)
    c *= 0.01 / math.sqrt(float(np.sum(np.abs(c) ** 2)))
    c[grid16.index_of((0,))] = 0.0
    xi = XiField(ctx=diag16, xi=c, theta=0.37)
    u = xi_to_u(xi)
    xi2 = u_to_xi(u, diag16)
    assert np.max(np.abs(xi2.xi - xi.xi)) < 1e-12
    assert xi2.theta == pytest.approx(0.37, abs=1e-12)


def test_round_trip_nonzero_carrier(grid16, make_datum):
    ell = (3,)
    d = build_diagonalizers(build_frequency_table(H, RHO, -1, ell, grid16))
    u = make_datum(grid16, ell, RHO, 0.01, seed=5)
    xi = u_to_xi(u, d)
    back = xi_to_u(xi)
    assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12


@pytest.mark.parametrize("d, K, ell", [(1, 16, (3,)), (1, 5, (2,)), (2, 5, (1, 0))])
def test_u_to_xi_equals_the_plain_per_sample_form(make_datum, d, K, ell):
    # the batched xi map gives each row the bits of the plain one-field
    # form: theta from math.atan2 (np.arctan2 differs from it in the last
    # bit on some SIMD hosts), and each product in the operand order written
    # here (numpy's SIMD complex multiply is not symmetric in its operands)
    grid = Grid(K=K, d=d)
    ctx = build_diagonalizers(build_frequency_table(H, RHO, -1, ell, grid))
    u = make_datum(grid, ell, RHO, 0.01, seed=6)
    origin = grid.origin
    phases = np.random.default_rng(7).uniform(-math.pi, math.pi, 64).tolist()
    fields = [SpectralField(grid, u.coeffs * np.exp(1j * p)) for p in phases]
    # the same fields as one batch: each row as u_to_xi gives it alone
    batch = u_to_xi(SpectralField.stack(grid, [f.coeffs for f in fields]), ctx)
    assert batch.xi.shape == (len(fields), *grid.shape) and batch.theta.shape == (len(fields),)
    for f, row, row_theta in zip(fields, batch.xi, batch.theta.tolist()):
        v = np.roll(f.coeffs, tuple(-c for c in ell), axis=tuple(range(d)))
        v0 = complex(v[origin])
        theta = math.atan2(v0.imag, v0.real)
        w = v * np.exp(-1j * theta)
        w[origin] = 0.0
        want = ctx.s00 * w + ctx.s01 * np.conj(w[grid.negation])
        want[origin] = 0.0
        got = u_to_xi(f, ctx)
        assert got.theta == row_theta == theta
        assert got.xi.tobytes() == row.tobytes() == want.tobytes()


def test_u_to_xi_batch_raises_its_first_failing_row(grid16, diag16, make_datum):
    u = make_datum(grid16, (0,), RHO, 0.01, seed=2)
    zero = u.coeffs.copy()
    zero[grid16.index_of(0)] = 0.0
    zero *= RHO / math.sqrt(float(np.sum(np.abs(zero) ** 2)))
    with pytest.raises(ZeroCarrierModeError):
        u_to_xi(SpectralField.stack(grid16, [u.coeffs, zero, 2.0 * u.coeffs]), diag16)
    with pytest.raises(DomainError, match="budget"):
        u_to_xi(SpectralField.stack(grid16, [u.coeffs, 2.0 * u.coeffs, zero]), diag16)
    # a batch is refused where one field is meant, and a row of another shape
    with pytest.raises(DomainError, match="batch"):
        xi_to_u(u_to_xi(SpectralField.stack(grid16, [u.coeffs]), diag16))
    with pytest.raises(DomainError, match="shape"):
        SpectralField.stack(grid16, [u.coeffs[:-1]])


def test_carrier_gauge_extraction(grid16, diag16):
    theta = 1.1
    a = RHO
    c = np.zeros(grid16.shape, dtype=complex)
    c[grid16.index_of((0,))] = a * np.exp(1j * theta)
    xi = u_to_xi(SpectralField(grid16, c), diag16)
    assert xi.theta == pytest.approx(theta, abs=1e-14)
    assert np.max(np.abs(xi.xi)) == 0.0


def test_zero_carrier_rejected(grid16, diag16):
    c = np.zeros(grid16.shape, dtype=complex)
    c[grid16.index_of((1,))] = RHO  # all mass off the carrier
    with pytest.raises(ZeroCarrierModeError):
        u_to_xi(SpectralField(grid16, c), diag16)


def test_mass_budget_enforced(grid16, diag16):
    c = np.zeros(grid16.shape, dtype=complex)
    c[grid16.index_of((0,))] = 2 * RHO  # mass 4x the configured budget
    with pytest.raises(DomainError):
        u_to_xi(SpectralField(grid16, c), diag16)


def test_mass_deficit_rejected(grid16, diag16):
    c = np.ones(grid16.shape, dtype=complex)  # way more than rho^2 in xi
    c[grid16.index_of((0,))] = 0.0
    xi = XiField(ctx=diag16, xi=c, theta=0.0)
    with pytest.raises(MassDeficitError):
        xi_to_u(xi)


def test_norm_equivalence(grid16, make_datum, diag16):
    # || xi ||_s and the carrier-free H^s distance agree up to the S bounds
    bound = 2.0 * entry_bound(diag16)
    for seed in range(5):
        u = make_datum(grid16, (0,), RHO, 0.01, seed=seed)
        xi = u_to_xi(u, diag16)
        dist = sobolev_norm(project_away(u, (0,)), 5.0)
        ratio = sobolev_norm(SpectralField(grid16, xi.xi), 5.0) / dist
        assert 1.0 / bound <= ratio <= bound


def test_xi_field_norm_matches_spectral(grid16, diag16, rng):
    c = 0.01 * (rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape))
    c[grid16.index_of((0,))] = 0.0
    xi = XiField(ctx=diag16, xi=c, theta=0.0)
    # ||xi||_s = (sum_{j != 0} |j|^(2s) |xi_j|^2)^(1/2); the origin slot is zero
    n2 = grid16.mode_norm2.astype(float)
    xi_norm = math.sqrt(float(np.sum(n2**3.0 * np.abs(xi.xi) ** 2)))
    f = SpectralField(grid16, c)
    assert xi_norm == pytest.approx(sobolev_norm(f, 3.0), rel=1e-13)


def test_dimension_two_round_trip(grid2d, make_datum):
    d = build_diagonalizers(build_frequency_table(0.02, RHO, -1, (0, 0), grid2d))
    u = make_datum(grid2d, (0, 0), RHO, 0.005, seed=11)
    xi = u_to_xi(u, d)
    back = xi_to_u(xi)
    assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12
