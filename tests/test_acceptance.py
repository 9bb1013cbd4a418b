"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

 1. plane-wave trajectories are reproduced to 1e-10 over 2.5e5 steps
 2. mass is conserved to 1e-12 relative drift on the same run
 3. the check command certifies h in {0.04, 0.044} and rejects h = 0.042
 4. random small perturbations stay orbitally stable to t = 1e4 (5 seeds)
 5. h = 0.042 triggers the instability verdict at the predicted growth rate
 6. numerical frequencies match a linearized-evolution oracle and their
    modified-frequency surrogates converge at second order in h
 7. diagonalizing transform integrity over 100 random stable parameter sets
 8. the class-based resonance checker equals a brute-force oracle
 9. super-action deviations stay below 1e3*eps^2 and scale quadratically
    with eps
10. criteria 1-4 hold identically for both Strang compositions
11. the CFL-style step bound implies linear stability (200 random triples)

Known open miss, kept failing rather than weakened (details in README,
"Accuracy limits"): the criterion-9 scaling window [2.5, 6] assumes the
quadratic upper bound is saturated while the measured deviations scale
closer to cubically in eps (the bound itself holds with a wide margin).

Long runs are shared between criteria through memoizing module fixtures.
"""

import itertools
import math

import numpy as np
import pytest

import frequency_oracle
from field_helpers import entry_bound, nonzero_modes, s_inv_matrix, s_matrix
from resonance_oracle import canonical_witness, oracle_violations
from torusnls import (
    Grid,
    PlaneWaveSpec,
    SpectralField,
    StepScheme,
    StepVariant,
    TrajectoryRecorder,
    build_diagonalizers,
    build_frequency_table,
    cfl_max_h,
    check_assumption1,
    check_assumption2,
    detect_instability,
    integrate,
    mod_reduce,
    step,
    u_to_xi,
    xi_to_u,
)
from torusnls.cli import build_config, cmd_check, random_initial_datum

RHO = math.sqrt(0.4)
SEEDS = (1, 2, 3, 4, 5)
STRANG = (StepVariant.STRANG_LINEAR_OUTSIDE, StepVariant.STRANG_NONLINEAR_OUTSIDE)


def _plane_wave_run(variant: StepVariant) -> tuple[float, float]:
    """Max coefficient error vs the exact plane wave and max relative mass
    drift over 2.5e5 steps at h = 0.04, sampled every 250 steps."""
    grid = Grid(K=16, d=1)
    pw = PlaneWaveSpec(rho=RHO, ell=(0,), lam=-1)
    u0 = pw.field(grid)
    m0 = u0.mass()
    state = {"err": 0.0, "drift": 0.0}

    def watch(n: int, f: SpectralField) -> None:
        exact = pw.field(grid, n * 0.04)
        state["err"] = max(state["err"], float(np.max(np.abs(f.coeffs - exact.coeffs))))
        state["drift"] = max(state["drift"], abs(f.mass() - m0) / m0)

    integrate(u0, StepScheme(variant, 0.04), -1, 250000, observer=watch, cadence=250)
    return state["err"], state["drift"]


@pytest.fixture(scope="module")
def plane_wave_run():
    cache: dict = {}

    def _get(variant: StepVariant) -> tuple[float, float]:
        if variant not in cache:
            cache[variant] = _plane_wave_run(variant)
        return cache[variant]

    return _get


@pytest.fixture(scope="module")
def stable_run():
    """Memoized long run of a random datum; returns sampled series and sups."""
    cache: dict = {}

    def _get(scheme: str, h: float, seed: int, epsilon: float, cadence: int = 50):
        key = (scheme, h, seed, epsilon, cadence)
        if key not in cache:
            cfg = build_config(None, {
                "scheme": scheme, "h": h, "seed": seed, "epsilon": epsilon,
                "horizon": 1e4, "cadence": cadence,
            })
            u = random_initial_datum(cfg)
            table = build_frequency_table(h, cfg.rho, cfg.lam, cfg.ell, cfg.grid())
            rec = TrajectoryRecorder(table, s=cfg.s)
            integrate(u, cfg.step_scheme(), cfg.lam, cfg.n_steps,
                      observer=rec, cadence=cadence)
            d = rec.finalize()
            cache[key] = {
                "times": d.times,
                "orbital": d.orbital_distance,
                "max_orbital": float(np.max(d.orbital_distance)),
                "sup_D": float(np.nanmax(d.deviation))
                if np.any(np.isfinite(d.deviation)) else math.nan,
            }
        return cache[key]

    return _get


def test_criterion_01_plane_wave_exactness(plane_wave_run):
    err, _ = plane_wave_run(StepVariant.LIE_TROTTER)
    assert err <= 1e-10, f"max plane-wave coefficient error {err:.3e} > 1e-10"


def test_criterion_02_mass_conservation(plane_wave_run):
    _, drift = plane_wave_run(StepVariant.LIE_TROTTER)
    assert drift <= 1e-12, f"relative mass drift {drift:.3e} > 1e-12"


def test_criterion_03_assumption_checks(capsys):
    # the stable steps pass both checks for every order N <= 5
    for h, s2_of in ((0.04, lambda n: 5.0 * n), (0.044, lambda n: 8.0 * n / 5.0)):
        for n in range(1, 6):
            cfg = build_config(None, {"h": h, "N": n, "s2": s2_of(n)})
            code = cmd_check(cfg)
            capsys.readouterr()
            assert code == 0, f"check failed at h={h}, N={n}"
        table = build_frequency_table(h, RHO, -1, (0,), Grid(K=16, d=1))
        a1 = check_assumption1(table)
        assert a1.holds and a1.c1_certified >= 0.2
    # the unstable step is rejected on linear stability alone
    code = cmd_check(build_config(None, {"h": 0.042, "N": 2}))
    capsys.readouterr()
    assert code == 1
    table = build_frequency_table(0.042, RHO, -1, (0,), Grid(K=16, d=1))
    assert not check_assumption1(table).holds


def test_criterion_04_orbital_stability(stable_run):
    eps = 0.01
    for h in (0.04, 0.044):
        for seed in SEEDS:
            r = stable_run("lie-trotter", h, seed, eps)
            assert r["max_orbital"] <= 10.0 * eps, (
                f"h={h} seed={seed}: orbital distance {r['max_orbital']:.4f} "
                f"exceeds {10.0 * eps}"
            )


def test_criterion_05_instability_detection(stable_run):
    eps = 0.01
    r = stable_run("lie-trotter", 0.042, 1, eps, cadence=10)
    report = detect_instability(r["times"], r["orbital"], eps, 10.0)
    assert report.verdict and report.onset_time < 1e4
    table = build_frequency_table(0.042, RHO, -1, (0,), Grid(K=16, d=1))
    predicted = math.log(table.max_growth()) / 0.042
    assert report.growth_rate == pytest.approx(predicted, rel=0.2), (
        f"fitted rate {report.growth_rate:.4f} vs predicted {predicted:.4f}"
    )


def test_criterion_06_frequency_validation():
    grid = Grid(K=16, d=1)
    h, lam, ell = 0.04, -1, (0,)
    ctx = build_diagonalizers(build_frequency_table(h, RHO, lam, ell, grid))
    omega = ctx.table.omega
    eta = 1e-6
    steps = 100
    scheme = StepScheme(StepVariant.LIE_TROTTER, h)
    gauge = np.exp(1j * lam * RHO * RHO * steps * h)
    worst = 0.0
    for j in nonzero_modes(grid):
        pj = grid.index_of(j)
        nj = mod_reduce(tuple(-c for c in j), grid)
        pn = grid.index_of(nj)
        c = np.zeros(grid.shape, dtype=np.complex128)
        c[grid.index_of(ell)] = RHO
        c[pj] += eta
        w0 = np.array([c[pj], np.conj(c[pn])])
        f = SpectralField(grid, c)
        for _ in range(steps):
            f = step(f, scheme, lam)
        w1 = np.array([f.coeffs[pj] * gauge, np.conj(f.coeffs[pn] * gauge)])
        smat = s_matrix(ctx, j)
        xi0, xi1 = smat @ w0, smat @ w1
        expected = np.exp(-1j * omega[pj] * steps * h)
        ratio = xi1[0] / xi0[0]
        worst = max(worst, abs(np.angle(ratio * np.conj(expected))))
    assert worst <= 1e-8, f"worst eigenphase error {worst:.3e} over 100 steps"

    # modified frequencies approach the numerical ones at second order in h
    hs = (0.04, 0.02, 0.01, 0.005)
    small = [j for j in nonzero_modes(grid)
             if sum(c * c for c in j) * max(hs) < math.pi / 2]
    errs = []
    for hh in hs:
        tab = build_frequency_table(hh, RHO, lam, ell, grid)
        errs.append(max(
            abs(float(tab.omega[grid.index_of(j)])
                - frequency_oracle.varpi(sum(c * c for c in j), hh, RHO * RHO, lam))
            for j in small
        ))
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    assert 1.8 <= slope <= 2.2, f"|omega - varpi| log-log slope {slope:.3f}"


def test_criterion_07_transform_integrity():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        d = 1 if rng.random() < 0.7 else 2
        K = int(rng.integers(1, 7 if d == 1 else 5))
        lam = -1 if rng.random() < 0.5 else 1
        rho = float(rng.uniform(0.05, 0.69 if lam == -1 else 1.5))
        N = int(rng.integers(2, 6))
        h = float(rng.uniform(0.2, 1.0)) * cfl_max_h(d, K, rho, N)
        ell = tuple(int(rng.integers(-K, K)) for _ in range(d))
        grid = Grid(K=K, d=d)
        table = build_frequency_table(h, rho, lam, ell, grid)
        a1 = check_assumption1(table)
        if not a1.holds or a1.c1_certified <= 0.0:
            continue
        checked += 1
        ctx = build_diagonalizers(table)

        # u -> xi -> u round trip on a random field of total mass rho^2
        c = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        carrier = grid.index_of(ell)
        c[carrier] = 0.0
        nc_mass = (0.3 * rho) ** 2
        c *= math.sqrt(nc_mass / float(np.sum(np.abs(c) ** 2)))
        c[carrier] = math.sqrt(rho * rho - nc_mass) * np.exp(1j * rng.uniform(-3, 3))
        u = SpectralField(grid, c)
        u2 = xi_to_u(u_to_xi(u, ctx))
        assert float(np.max(np.abs(u2.coeffs - u.coeffs))) <= 1e-12

        bound = math.sqrt(1.0 + rho * rho / (2.0 * math.sqrt(a1.c1_certified)))
        assert entry_bound(ctx) <= bound + 1e-12

        for j in nonzero_modes(grid):
            S = s_matrix(ctx, j)
            assert abs(np.linalg.det(S) - 1.0) <= 1e-12
            block = frequency_oracle.block(j, ell, h, rho, lam, K)
            D = S @ block @ s_inv_matrix(ctx, j)
            nj = mod_reduce(tuple(-comp for comp in j), grid)
            om_j = float(ctx.table.omega[grid.index_of(j)])
            om_nj = float(ctx.table.omega[grid.index_of(nj)])
            target = np.diag([np.exp(-1j * om_j * h), np.exp(+1j * om_nj * h)])
            assert float(np.max(np.abs(D - target))) <= 1e-12


def test_criterion_08_resonance_checker_oracle_equivalence():
    rng = np.random.default_rng(8)
    lam = -1
    for _ in range(20):
        rho = float(rng.uniform(0.1, 0.7))
        h = float(rng.uniform(0.2, 1.0)) * cfl_max_h(1, 3, rho, 3)
        for K, N in itertools.product((2, 3), (2, 3)):
            table = build_frequency_table(h, rho, lam, (0,), Grid(K=K, d=1))
            # both the shipped constants and a violation-rich tightening
            for c2, delta2, s2 in ((8.0, 0.1, 5.0 * N), (0.05, 0.5, 10.0 * N)):
                full = check_assumption2(table, N=N, c2=c2, delta2=delta2,
                                         s2=s2, exhaustive=True)
                holds, expected = oracle_violations(table, N, c2, delta2, s2)
                assert full.holds == holds
                assert {canonical_witness(w) for w in full.witnesses} == expected
                short = check_assumption2(table, N=N, c2=c2, delta2=delta2, s2=s2)
                assert short.holds == holds
                if not holds:
                    assert canonical_witness(short.witnesses[0]) in expected


def test_criterion_09_super_action_near_conservation(stable_run):
    eps = 0.01
    bound = 1e3 * eps * eps
    for h in (0.04, 0.044):
        for seed in SEEDS:
            sup = stable_run("lie-trotter", h, seed, eps)["sup_D"]
            assert sup <= bound, f"h={h} seed={seed}: sup D {sup:.3e} > {bound}"
    ratios = [
        stable_run("lie-trotter", 0.04, seed, eps)["sup_D"]
        / stable_run("lie-trotter", 0.04, seed, eps / 2.0)["sup_D"]
        for seed in SEEDS
    ]
    assert all(2.5 <= r <= 6.0 for r in ratios), (
        "epsilon-halving changes sup D by factors "
        f"{[round(r, 2) for r in ratios]}, outside the quadratic-scaling "
        "window [2.5, 6.0] (known open miss: measured deviations scale "
        "closer to cubically in eps; the 1e3*eps^2 bound itself holds)"
    )


def test_criterion_10_strang_variants(plane_wave_run, stable_run):
    # criteria 1, 2 and 4 rerun per Strang composition; criterion 3 is
    # scheme-independent (the checks depend only on h, rho, lambda, ell).
    # every clause is evaluated before failing so the report names them all
    eps = 0.01
    misses = []
    for variant in STRANG:
        err, drift = plane_wave_run(variant)
        if err > 1e-10:
            misses.append(f"{variant.value}: plane-wave error {err:.3e} > 1e-10")
        if drift > 1e-12:
            misses.append(f"{variant.value}: mass drift {drift:.3e} > 1e-12")
        for h in (0.04, 0.044):
            for seed in SEEDS:
                r = stable_run(variant.value, h, seed, eps)
                if r["max_orbital"] > 10.0 * eps:
                    misses.append(
                        f"{variant.value} h={h} seed={seed}: "
                        f"orbital distance {r['max_orbital']:.4f} > {10.0 * eps}"
                    )
    assert not misses, "; ".join(misses)


def test_criterion_11_cfl_implies_linear_stability():
    rng = np.random.default_rng(11)
    for _ in range(200):
        lam = -1 if rng.random() < 0.5 else 1
        rho0 = float(rng.uniform(0.05, 0.7 if lam == -1 else 2.0))
        rho = rho0 * float(rng.uniform(0.0, 1.0))
        d = 1 if rng.random() < 0.7 else 2
        K = int(rng.integers(1, 21 if d == 1 else 11))
        N = int(rng.integers(2, 7))
        h = float(rng.uniform(0.05, 1.0)) * cfl_max_h(d, K, rho0, N)
        table = build_frequency_table(h, rho, lam, (0,) * d, Grid(K=K, d=d))
        a1 = check_assumption1(table)
        assert a1.holds, (
            f"CFL-satisfying draw failed linear stability: lam={lam} "
            f"rho={rho:.4f} rho0={rho0:.4f} d={d} K={K} N={N} h={h:.6f}"
        )
