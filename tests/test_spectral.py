"""Grid indexing, FFT conversions, norms, and the carrier projection."""

import math

import numpy as np
import pytest

from field_helpers import collocation_axis, nonzero_modes, trig_interpolate, values
from torusnls import (
    DomainError,
    Grid,
    PlaneWaveSpec,
    SpectralField,
    StepScheme,
    StepVariant,
    TorusNLSError,
    integrate,
    mod_reduce,
    project_away,
    sobolev_norm,
)


def test_grid_shape_and_size():
    g = Grid(K=3, d=2)
    assert g.n_axis == 6
    assert g.shape == (6, 6)
    assert g.size == 36
    assert list(g.axis_modes) == [-3, -2, -1, 0, 1, 2]


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(K=0)
    with pytest.raises(ValueError):
        Grid(K=2, d=0)
    # the package's own error type, naming the argument
    for kwargs, name in (({"K": 0}, "K"), ({"K": 2, "d": 0}, "d")):
        with pytest.raises(DomainError, match=f"{name} must be"):
            Grid(**kwargs)


def test_index_of_round_trip(grid16):
    assert grid16.index_of((-16,)) == (0,)
    assert grid16.index_of((0,)) == (16,)
    assert grid16.index_of((15,)) == (31,)
    with pytest.raises(DomainError, match="outside"):
        grid16.index_of((16,))
    with pytest.raises(DomainError, match="outside"):
        grid16.index_of((-17,))
    with pytest.raises(DomainError, match="length 2, expected 1"):
        grid16.index_of((1, 2))
    with pytest.raises(DomainError, match="for d=2"):
        Grid(K=2, d=2).index_of(1)


def test_modes_enumeration_matches_storage_order(grid2d):
    modes = list(grid2d.modes())
    assert len(modes) == grid2d.size
    assert modes[0] == (-2, -2)
    assert modes[-1] == (1, 1)
    # the flattened position of each mode equals its enumeration index
    for p, j in enumerate(modes):
        assert np.ravel_multi_index(grid2d.index_of(j), grid2d.shape) == p


def test_mode_norm2(grid2d):
    n2 = grid2d.mode_norm2
    assert n2[grid2d.index_of((0, 0))] == 0
    assert n2[grid2d.index_of((-2, 1))] == 5
    assert n2.dtype == np.int64
    # the cached layout arrays are shared by every table and flow on the grid
    g = Grid(K=4)
    for arr in (g.axis_modes, g.mode_norm2, g.nonzero, *g.negation):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert g.mode_norm2[0] == 16


def test_mod_reduce_examples(grid16):
    assert mod_reduce((16,), grid16) == (-16,)
    assert mod_reduce((-17,), grid16) == (15,)
    assert mod_reduce((31,), grid16) == (-1,)
    assert mod_reduce((7,), grid16) == (7,)


def test_mod_reduce_negation_preserves_modulus(grid16, rng):
    for _ in range(50):
        v = tuple(int(x) for x in rng.integers(-100, 100, size=1))
        a = mod_reduce(v, grid16)
        b = mod_reduce(tuple(-x for x in v), grid16)
        assert sum(c * c for c in a) == sum(c * c for c in b)


def test_single_mode_values(grid2):
    a = 0.7 - 0.2j
    f = SpectralField.from_modes(grid2, {(1,): a})
    x = collocation_axis(grid2)
    expect = a * np.exp(1j * x)
    assert np.max(np.abs(values(f) - expect)) < 1e-14


def test_trig_interpolate_round_trip(grid16, rng):
    c = rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape)
    f = SpectralField(grid16, c)
    g = trig_interpolate(values(f), grid16)
    assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-13


def test_trig_interpolate_aliasing(grid2):
    # continuous mode 3 is indistinguishable from mode -1 on a K=2 grid
    x = collocation_axis(grid2)
    f = trig_interpolate(np.exp(3j * x), grid2)
    assert abs(f.coeff((-1,)) - 1.0) < 1e-14
    assert abs(f.coeff((1,))) < 1e-14


def test_parseval(grid16, rng):
    c = rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape)
    f = SpectralField(grid16, c)
    grid_mean = float(np.mean(np.abs(values(f)) ** 2))
    assert f.mass() == pytest.approx(grid_mean, rel=1e-13)


def test_field_immutability(grid2):
    f = SpectralField.zero(grid2)
    with pytest.raises(ValueError):
        f.coeffs[0] = 1.0


def test_field_shape_mismatch(grid2):
    with pytest.raises(ValueError):
        SpectralField(grid2, np.zeros((5,), dtype=complex))
    # the package's own error type, so `except TorusNLSError` catches it
    with pytest.raises(TorusNLSError):
        SpectralField(Grid(K=2), np.zeros(5))
    with pytest.raises(TorusNLSError):
        trig_interpolate(np.zeros(5), Grid(K=2))


def test_sobolev_norm_hand_value(grid16):
    f = SpectralField.from_modes(grid16, {(0,): 2.0, (3,): 0.5, (-2,): 1.0})
    # weights: 1 at the origin, 9^s and 4^s elsewhere
    expect = math.sqrt(4.0 + 81.0 * 0.25 + 16.0)
    assert sobolev_norm(f, 2.0) == pytest.approx(expect, rel=1e-14)


def test_sobolev_norm_s0_is_sqrt_mass(grid16, rng):
    c = rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape)
    f = SpectralField(grid16, c)
    assert sobolev_norm(f, 0.0) == pytest.approx(math.sqrt(f.mass()), rel=1e-14)


def test_project_away_hand_example(grid2):
    f = SpectralField(grid2, np.array([1.0, 2.0j, 3.0, 4.0]))
    g = project_away(f, (1,))
    # coefficient at j moves from mode j+1 (mod 4); origin is zeroed
    assert np.allclose(g.coeffs, np.array([2.0j, 3.0, 0.0, 1.0]), atol=1e-15)


def test_project_away_mass(grid16, rng):
    c = rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape)
    f = SpectralField(grid16, c)
    ell = (5,)
    g = project_away(f, ell)
    assert g.mass() == pytest.approx(f.mass() - abs(f.coeff(ell)) ** 2, rel=1e-13)
    assert g.coeff((0,)) == 0.0


def test_project_away_zero_carrier_is_shift_only(grid2):
    f = SpectralField.from_modes(grid2, {(1,): 2.0, (-2,): 1.0})
    g = project_away(f, (0,))
    assert g.coeff((1,)) == 2.0
    assert g.coeff((-2,)) == 1.0


def test_project_away_2d_unreduced_carrier(rng):
    g = Grid(K=3, d=2)
    c = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    f = SpectralField(g, c)
    ell = (4, -5)
    p = project_away(f, ell)
    for j in nonzero_modes(g):
        assert p.coeff(j) == f.coeff(mod_reduce((j[0] + ell[0], j[1] + ell[1]), g))
    assert p.coeff((0, 0)) == 0.0
    neg = f.coeffs[g.negation]
    for j in g.modes():
        assert neg[g.index_of(j)] == f.coeff(mod_reduce((-j[0], -j[1]), g))
    # a one-component ell would otherwise roll both axes
    with pytest.raises(DomainError, match="ell"):
        g.shift(c, (1,))


@pytest.mark.parametrize("d, K", [(1, 16), (1, 5), (2, 3), (2, 8)])
def test_batch_gives_each_row_the_bits_of_the_field_alone(rng, d, K):
    # mass, sobolev_norm and project_away of a stacked batch give each row,
    # bit for bit, what the field alone gives
    g = Grid(K=K, d=d)
    fields = [SpectralField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
              for _ in range(7)]
    batch = SpectralField.stack(g, [f.coeffs for f in fields])
    assert batch.batched and not fields[0].batched
    assert isinstance(fields[0].mass(), float)
    ell = (1,) * d
    away = project_away(batch, ell)
    assert away.batched and not away.coeffs.flags.writeable
    for f, mass, norm, row in zip(fields, batch.mass().tolist(),
                                  sobolev_norm(batch, 2.5).tolist(), away.coeffs):
        assert mass == f.mass()
        assert norm == sobolev_norm(f, 2.5)
        assert row.tobytes() == project_away(f, ell).coeffs.tobytes()
    # one field only where a trajectory is advanced
    with pytest.raises(DomainError, match="batch"):
        integrate(batch, StepScheme(StepVariant.LIE_TROTTER, 0.04), -1.0, 1)


@pytest.mark.parametrize("d, K", [(1, 16), (2, 3), (3, 2)])
def test_shift_matches_roll(rng, d, K):
    # the cached gather must reproduce np.roll bit for bit, for an ell that
    # is negative, zero or at least 2K, and again from the cache
    g = Grid(K=K, d=d)
    c = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    ells = [(0,) * d, (-1,) * d, (2 * K,) * d, (2 * K + 1,) * d, (-5 * K - 1,) * d,
            tuple(int(v) for v in rng.integers(-3 * K, 3 * K, size=d))]
    for ell in ells + ells:
        expect = np.roll(c, tuple(-v for v in ell), axis=tuple(range(d)))
        got = g.shift(c, ell)
        assert np.array_equal(got, expect)
        got[(0,) * d] = 99.0  # a new array each call, not a view of the cache
    assert np.array_equal(g.shift(g.mode_norm2, ells[1]),
                          np.roll(g.mode_norm2, (1,) * d, axis=tuple(range(d))))
    with pytest.raises(DomainError, match="shape"):
        g.shift(np.zeros(g.shape + (1,)), ells[0])


def test_plane_wave_dispersion():
    pw = PlaneWaveSpec(rho=math.sqrt(0.4), ell=(1,), lam=-1.0)
    assert pw.omega == pytest.approx(1.0 - 0.4, rel=1e-14)
    pw2 = PlaneWaveSpec(rho=2.0, ell=(1, -2), lam=1.0)
    assert pw2.omega == pytest.approx(5.0 + 4.0, rel=1e-14)


def test_plane_wave_field(grid16):
    pw = PlaneWaveSpec(rho=math.sqrt(0.4), ell=(0,), lam=-1.0)
    f = pw.field(grid16, t=2.5)
    expect = math.sqrt(0.4) * np.exp(-1j * pw.omega * 2.5)
    assert abs(f.coeff((0,)) - expect) < 1e-15
    assert f.mass() == pytest.approx(0.4, rel=1e-14)


def test_plane_wave_validation():
    with pytest.raises(ValueError):
        PlaneWaveSpec(rho=-1.0, ell=(0,), lam=-1.0)
    for rho in (math.nan, math.inf):
        with pytest.raises(DomainError, match="rho"):
            PlaneWaveSpec(rho=rho, ell=(0,), lam=-1.0)
    with pytest.raises(ValueError):
        PlaneWaveSpec(rho=1.0, ell=(0,), lam=0.5)
    for lam in (0.5, 0.0, math.nan):
        with pytest.raises(DomainError, match="lam"):
            PlaneWaveSpec(rho=1.0, ell=(0,), lam=lam)


def test_sobolev_weights_cached_read_only(grid2d):
    for s in (0.5, 5.0):
        w = grid2d.sobolev_weights(s)
        n2 = grid2d.mode_norm2.astype(float)
        fresh = np.where(n2 > 0, np.power(n2, s), 1.0)
        assert np.array_equal(w, fresh)
        assert grid2d.sobolev_weights(s) is w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0, 0] = 2.0
