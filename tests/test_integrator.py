"""Split-step flows: exactness of the substeps, scheme compositions,
conservation, conjugacy between variants, and observer semantics."""

import math

import numpy as np
import pytest

from field_helpers import trig_interpolate, values
from torusnls import (
    DomainError,
    Grid,
    ObserverError,
    PlaneWaveSpec,
    SpectralField,
    StepScheme,
    StepVariant,
    integrate,
    step,
)


def linear_flow(f, t):
    """Exact free-Schroedinger flow: coefficient j picks up e^{-i |j|^2 t}."""
    return SpectralField(f.grid, f.coeffs * np.exp(-1j * t * f.grid.mode_norm2))


def nonlinear_flow(f, lam, t):
    """Exact flow of i u_t = lam |u|^2 u at the collocation points."""
    vals = values(f)
    vals *= np.exp(-1j * lam * t * np.abs(vals) ** 2)
    return trig_interpolate(vals, f.grid)


def _random_field(grid, rng, scale=1.0):
    c = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return SpectralField(grid, scale * c)


def test_linear_flow_phase(grid16):
    f = SpectralField.from_modes(grid16, {(3,): 1.0 + 0.5j})
    g = linear_flow(f, 0.7)
    expect = (1.0 + 0.5j) * np.exp(-1j * 9 * 0.7)
    assert abs(g.coeff((3,)) - expect) < 1e-14


def test_linear_flow_preserves_mass(grid16, rng):
    f = _random_field(grid16, rng)
    g = linear_flow(f, 0.31)
    assert g.mass() == pytest.approx(f.mass(), rel=1e-14)


def test_nonlinear_flow_plane_wave(grid16):
    rho = math.sqrt(0.4)
    f = SpectralField.from_modes(grid16, {(1,): rho})
    g = nonlinear_flow(f, -1.0, 0.25)
    # constant |u|^2 = rho^2 turns the pointwise phase into a global one
    expect = rho * np.exp(1j * 0.4 * 0.25)
    assert abs(g.coeff((1,)) - expect) < 1e-14


def test_nonlinear_flow_preserves_pointwise_modulus(grid16, rng):
    f = _random_field(grid16, rng, scale=0.3)
    g = nonlinear_flow(f, 1.0, 0.4)
    assert np.max(np.abs(np.abs(values(g)) - np.abs(values(f)))) < 1e-13


def test_nonlinear_flow_semigroup(grid16, rng):
    f = _random_field(grid16, rng, scale=0.3)
    one = nonlinear_flow(f, -1.0, 0.3)
    two = nonlinear_flow(nonlinear_flow(f, -1.0, 0.1), -1.0, 0.2)
    assert np.max(np.abs(one.coeffs - two.coeffs)) < 1e-13


def test_step_compositions(grid16, rng):
    f = _random_field(grid16, rng, scale=0.3)
    h, lam = 0.05, -1.0
    lt = step(f, StepScheme(StepVariant.LIE_TROTTER, h), lam)
    manual = linear_flow(nonlinear_flow(f, lam, h), h)
    assert np.max(np.abs(lt.coeffs - manual.coeffs)) < 1e-14

    sl = step(f, StepScheme(StepVariant.STRANG_LINEAR_OUTSIDE, h), lam)
    manual = linear_flow(nonlinear_flow(linear_flow(f, h / 2), lam, h), h / 2)
    assert np.max(np.abs(sl.coeffs - manual.coeffs)) < 1e-14

    sn = step(f, StepScheme(StepVariant.STRANG_NONLINEAR_OUTSIDE, h), lam)
    manual = nonlinear_flow(linear_flow(nonlinear_flow(f, lam, h / 2), h), lam, h / 2)
    assert np.max(np.abs(sn.coeffs - manual.coeffs)) < 1e-14


@pytest.mark.parametrize("variant", list(StepVariant))
def test_plane_wave_exactness_short(grid16, variant):
    rho = math.sqrt(0.4)
    pw = PlaneWaveSpec(rho=rho, ell=(0,), lam=-1.0)
    h, n = 0.04, 1000
    f = integrate(pw.field(grid16), StepScheme(variant, h), -1.0, n)
    expect = pw.field(grid16, t=n * h)
    assert np.max(np.abs(f.coeffs - expect.coeffs)) < 1e-11


def test_plane_wave_exactness_nonzero_carrier(grid16):
    pw = PlaneWaveSpec(rho=0.8, ell=(3,), lam=1.0)
    h, n = 0.05, 500
    f = integrate(pw.field(grid16), StepScheme(StepVariant.LIE_TROTTER, h), 1.0, n)
    expect = pw.field(grid16, t=n * h)
    assert np.max(np.abs(f.coeffs - expect.coeffs)) < 1e-11


def test_mass_conservation(grid16, rng):
    f = _random_field(grid16, rng, scale=0.2)
    m0 = f.mass()
    g = integrate(f, StepScheme(StepVariant.LIE_TROTTER, 0.04), -1.0, 200)
    assert abs(g.mass() - m0) / m0 < 1e-13


@pytest.mark.parametrize("variant", list(StepVariant))
def test_raw_step_mass_conservation(grid16, rng, variant):
    # integrate() projects onto the initial mass; the raw step must conserve
    # it on its own, up to rounding
    f = _random_field(grid16, rng, scale=0.2)
    m0 = f.mass()
    scheme = StepScheme(variant, 0.04)
    for _ in range(200):
        f = step(f, scheme, -1.0)
    assert abs(f.mass() - m0) / m0 < 1e-13


@pytest.mark.parametrize("variant", list(StepVariant))
def test_integrate_mass_guard(grid16, variant):
    # the projection is skipped on a zero or non-finite mass, and no frame map
    # (nonlinear-outside enters through N(-h/2)) turns a zero or NaN into
    # anything else
    scheme = StepScheme(variant, 0.04)
    zero = integrate(SpectralField.zero(grid16), scheme, -1.0, 20)
    assert np.array_equal(zero.coeffs, np.zeros(grid16.shape))
    nan = SpectralField(grid16, np.full(grid16.shape, np.nan, dtype=complex))
    assert np.all(np.isnan(integrate(nan, scheme, -1.0, 20).coeffs))


def test_strang_linear_outside_conjugacy(grid16, rng):
    # advancing the Strang trajectory by the half linear flow reproduces the
    # Lie-Trotter trajectory of the half-advanced datum
    f = _random_field(grid16, rng, scale=0.3)
    h, lam, n = 0.05, -1.0, 50
    strang = integrate(f, StepScheme(StepVariant.STRANG_LINEAR_OUTSIDE, h), lam, n)
    lt = integrate(linear_flow(f, h / 2), StepScheme(StepVariant.LIE_TROTTER, h), lam, n)
    assert np.max(np.abs(linear_flow(strang, h / 2).coeffs - lt.coeffs)) < 1e-12


def test_strang_nonlinear_outside_conjugacy(grid16, rng):
    # the nonlinear-outside variant started from the half-advanced datum
    # reproduces the half-advanced Lie-Trotter trajectory
    f = _random_field(grid16, rng, scale=0.3)
    h, lam, n = 0.05, -1.0, 50
    strang = integrate(
        nonlinear_flow(f, lam, h / 2),
        StepScheme(StepVariant.STRANG_NONLINEAR_OUTSIDE, h),
        lam,
        n,
    )
    lt = integrate(f, StepScheme(StepVariant.LIE_TROTTER, h), lam, n)
    assert np.max(np.abs(strang.coeffs - nonlinear_flow(lt, lam, h / 2).coeffs)) < 1e-12


def test_gauge_equivariance(grid16, rng):
    f = _random_field(grid16, rng, scale=0.3)
    phase = np.exp(0.83j)
    g = SpectralField(grid16, phase * f.coeffs)
    scheme = StepScheme(StepVariant.LIE_TROTTER, 0.05)
    a = integrate(f, scheme, -1.0, 50)
    b = integrate(g, scheme, -1.0, 50)
    assert np.max(np.abs(b.coeffs - phase * a.coeffs)) < 1e-12


def test_integrate_observer_cadence(grid16):
    f = SpectralField.from_modes(grid16, {(0,): 0.5})
    seen = []
    integrate(
        f,
        StepScheme(StepVariant.LIE_TROTTER, 0.01),
        -1.0,
        23,
        observer=lambda n, u: seen.append(n),
        cadence=7,
    )
    assert seen == [0, 7, 14, 21, 23]


@pytest.mark.parametrize("variant", list(StepVariant))
@pytest.mark.parametrize("cadence", [1, 7])
def test_integrate_without_observer_builds_only_the_result(grid16, rng, monkeypatch,
                                                           variant, cadence):
    # leaving the kernel's frame to observe changes no bit of the trajectory:
    # leave writes nothing that a later kernel step reads, and without an
    # observer the run leaves the frame once, for the returned field
    from torusnls.integrator import _Stepper

    f = _random_field(grid16, rng, scale=0.3)
    scheme = StepScheme(variant, 0.03)
    observed = integrate(f, scheme, 1.0, 12, observer=lambda n, u: None, cadence=cadence)
    calls = {"wrap": 0, "leave": 0}
    for name in calls:
        real = getattr(_Stepper, name)

        def counted(st, c, name=name, real=real):
            calls[name] += 1
            return real(st, c)

        monkeypatch.setattr(_Stepper, name, counted)
    plain = integrate(f, scheme, 1.0, 12, cadence=cadence)
    assert calls == {"wrap": 1, "leave": 1}  # the returned field
    assert np.array_equal(plain.coeffs, observed.coeffs)


def test_integrate_zero_steps(grid16):
    f = SpectralField.from_modes(grid16, {(0,): 0.5})
    seen = []
    out = integrate(
        f,
        StepScheme(StepVariant.LIE_TROTTER, 0.01),
        -1.0,
        0,
        observer=lambda n, u: seen.append(n),
    )
    assert seen == [0]
    assert np.array_equal(out.coeffs, f.coeffs)


def test_integrate_matches_manual_stepping(grid16, rng):
    f = _random_field(grid16, rng, scale=0.3)
    scheme = StepScheme(StepVariant.LIE_TROTTER, 0.03)
    g = integrate(f, scheme, 1.0, 5)
    manual = f
    for _ in range(5):
        manual = step(manual, scheme, 1.0)
    assert np.max(np.abs(g.coeffs - manual.coeffs)) < 1e-14


def test_observer_error_wrapping(grid16):
    f = SpectralField.from_modes(grid16, {(0,): 0.5})

    def bad(n, u):
        if n == 14:
            raise ValueError("observer bug")

    with pytest.raises(ObserverError) as info:
        integrate(
            f, StepScheme(StepVariant.LIE_TROTTER, 0.01), -1.0, 20,
            observer=bad, cadence=7,
        )
    assert info.value.step == 14
    assert isinstance(info.value.cause, ValueError)


@pytest.mark.parametrize("d, K", [(1, 16), (1, 5), (2, 3), (2, 8), (3, 2)])
@pytest.mark.parametrize("variant", list(StepVariant))
def test_stepper_advance_matches_fftn_reference(rng, d, K, variant):
    # the kernel L(h)∘N(h) built from per-axis 1-D transforms gives what
    # np.fft.ifftn/fftn give, bit for bit, on every grid (2K = 10 and 6 are
    # not powers of two); nonlinear-outside squares N(h/2)'s phase
    from torusnls.integrator import _Stepper

    grid = Grid(K=K, d=d)
    h, lam = 0.04, -1.0
    n2 = np.fft.ifftshift(grid.mode_norm2)
    lin_full, lin_half = np.exp(-1j * h * n2), np.exp(-1j * (h / 2) * n2)
    halved = variant is StepVariant.STRANG_NONLINEAR_OUTSIDE

    def nl(c, t, square=False):
        vals = np.fft.ifftn(c) * grid.size
        phase = np.exp(-1j * lam * t * np.abs(vals) ** 2)
        vals *= phase * phase if square else phase
        return np.fft.fftn(vals) / grid.size

    st = _Stepper(grid, StepScheme(variant, h), lam)
    c = np.fft.ifftshift(_random_field(grid, rng, scale=0.3).coeffs)
    for _ in range(3):
        got = st.kernel(c)
        assert np.array_equal(got, nl(c, h / 2 if halved else h, halved) * lin_full)
        c = got
    assert np.array_equal(st.wrap(c).coeffs, np.fft.fftshift(c))

    # step, leave∘kernel∘enter, against the variant's composition:
    # Lie-Trotter bit for bit, the Strang variants within 64 ulp of the
    # largest coefficient (measured: at most 22, here at d = 2, K = 8)
    reference = {
        StepVariant.LIE_TROTTER: lambda c: nl(c, h) * lin_full,
        StepVariant.STRANG_LINEAR_OUTSIDE: lambda c: nl(c * lin_half, h) * lin_half,
        StepVariant.STRANG_NONLINEAR_OUTSIDE:
            lambda c: nl(nl(c, h / 2) * lin_full, h / 2),
    }[variant]
    f = _random_field(grid, rng, scale=0.3)
    got = step(f, StepScheme(variant, h), lam).coeffs
    expect = np.fft.fftshift(reference(np.fft.ifftshift(f.coeffs)))
    if variant is StepVariant.LIE_TROTTER:
        assert np.array_equal(got, expect)
    else:
        tol = 64 * np.finfo(float).eps * np.max(np.abs(expect))
        assert np.max(np.abs(got - expect)) <= tol


@pytest.mark.parametrize("d, K", [(1, 5), (2, 3), (3, 2)])
@pytest.mark.parametrize("variant", list(StepVariant))
def test_stepper_returns_fresh_arrays_and_keeps_its_input(rng, d, K, variant):
    # the work arrays stay inside the stepper: enter and kernel never write to
    # their input or to an array they returned, leave writes to none of them,
    # and step's results share no memory
    from torusnls.integrator import _Stepper

    grid = Grid(K=K, d=d)
    scheme = StepScheme(variant, 0.04)
    st = _Stepper(grid, scheme, -1.0)
    c = np.fft.ifftshift(_random_field(grid, rng, scale=0.3).coeffs)
    c0 = c.copy()
    w = st.enter(c)
    r1 = st.kernel(w)
    r1_copy = r1.copy()
    r2 = st.kernel(r1)
    left = st.leave(r1).copy()
    r3 = st.kernel(r1)
    assert np.array_equal(c, c0) and np.array_equal(r1, r1_copy)
    assert np.array_equal(r2, r3) and not np.shares_memory(r2, r3)
    assert np.array_equal(st.leave(r1), left)
    f = _random_field(grid, rng, scale=0.3)
    g1 = step(f, scheme, -1.0)
    g2 = step(g1, scheme, -1.0)
    assert not np.shares_memory(g1.coeffs, g2.coeffs)
    assert np.array_equal(g1.coeffs, step(f, scheme, -1.0).coeffs)
    # a batch gets work arrays of its own shape and each row the bits of its field
    batch = step(SpectralField.stack(grid, [f.coeffs, g1.coeffs]), scheme, -1.0)
    assert np.array_equal(batch.coeffs[0], g1.coeffs)
    assert np.array_equal(batch.coeffs[1], g2.coeffs)


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("d, K", [(1, 16), (1, 5), (2, 3), (2, 8), (3, 2)])
def test_stepper_leave_stashes_the_next_kernel_step(rng, d, K, batched):
    # a nonlinear-outside leave(w) transforms its own product and the next
    # kernel step's in one call per axis; a kernel(w) right after takes the
    # stashed row, and gets the bits of a stepper that never left the frame
    from torusnls.integrator import _Stepper

    grid = Grid(K=K, d=d)
    shape = (3, *grid.shape) if batched else grid.shape
    axes = tuple(range(len(shape) - d, len(shape)))
    h, lam = 0.04, -1.0
    scheme = StepScheme(StepVariant.STRANG_NONLINEAR_OUTSIDE, h)

    def state():
        return 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    def fresh_kernel(c):
        return _Stepper(grid, scheme, lam, shape).kernel(c)

    def reference_leave(c):
        # N(h/2), its forward transform dividing by n along each axis
        vals = np.fft.ifftn(c, axes=axes) * grid.size
        vals *= np.exp(-1j * lam * (h / 2) * np.abs(vals) ** 2)
        return np.fft.fftn(vals, axes=axes, norm="forward")

    st = _Stepper(grid, scheme, lam, shape)
    w, w2 = state(), state()
    assert np.array_equal(st.leave(w), reference_leave(w))
    assert np.array_equal(st.kernel(w), fresh_kernel(w))
    # another array than the one left ignores the stash
    st.leave(w)
    assert np.array_equal(st.kernel(w2), fresh_kernel(w2))
    # the kernel takes the stash once: w changed in place after that step
    # gets a step of its own
    st.leave(w)
    st.kernel(w)
    w[...] = w2
    assert np.array_equal(st.kernel(w), fresh_kernel(w2))


def _momentum(f):
    """P = sum_j j |u_j|^2, one component per axis."""
    a2 = np.abs(f.coeffs) ** 2
    axes = np.meshgrid(*[f.grid.axis_modes] * f.grid.d, indexing="ij")
    return np.array([np.sum(j * a2) for j in axes])


@pytest.mark.parametrize("d, K", [(1, 16), (2, 8)])
@pytest.mark.parametrize("variant", list(StepVariant))
def test_momentum_conserved(d, K, variant):
    # both partial flows keep P: L moves no |u_j|, and N's phase is a function
    # of |u|^2 (Gauckler-Lubich, Found. Comput. Math. 10, 2010). Aliasing is
    # negligible for the CLI's datum, whose modes decay as |j|^-6, so P stays
    # within rounding of P(0): measured at most 1.6 * eps * K * mass over the
    # three variants. A kernel that mirrors the modes, or a reorder off by
    # one, moves it by about P(0) or the mass.
    from torusnls.cli import RunConfig, random_initial_datum

    f = random_initial_datum(RunConfig(d=d, K=K))
    p0 = _momentum(f)
    drift = []
    integrate(f, StepScheme(variant, 0.04), -1.0, 1000, cadence=1,
              observer=lambda n, u: drift.append(np.max(np.abs(_momentum(u) - p0))))
    tol = 16 * np.finfo(float).eps * K * f.mass()
    assert np.max(np.abs(p0)) > 1e6 * tol  # a mirrored P would not pass
    assert len(drift) == 1001 and max(drift) <= tol


def test_scheme_validation():
    with pytest.raises(ValueError):
        StepScheme(StepVariant.LIE_TROTTER, 0.0)
    with pytest.raises(ValueError):
        StepScheme(StepVariant.LIE_TROTTER, -0.1)
    # the package's own error type, naming the argument
    for h in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(DomainError, match="step size h"):
            StepScheme(StepVariant.LIE_TROTTER, h)
    with pytest.raises(DomainError, match="variant"):
        StepScheme("leapfrog", 0.1)
    f = SpectralField.from_modes(Grid(K=2), {(0,): 0.5})
    scheme = StepScheme(StepVariant.LIE_TROTTER, 0.1)
    with pytest.raises(DomainError, match="n_steps"):
        integrate(f, scheme, -1.0, -1)
    with pytest.raises(DomainError, match="cadence"):
        integrate(f, scheme, -1.0, 5, cadence=0)
