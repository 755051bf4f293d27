import json

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.linalg.lapack import zgttrf, zgttrs
from hypothesis import given, settings, strategies as st

from dwnls.errors import (
    BelowThreshold,
    ChartBreakdown,
    NonlinearIterationDiverged,
)
from dwnls.io_utils import dumps_17g
from dwnls.grids import Grid, norm2
from dwnls import linear_spectrum as ls
from dwnls import pde
from dwnls import reduced_dynamics as rd
from dwnls import shadowing as sh


class TestProjection:
    def test_pure_mode(self, shadow_well):
        sd = shadow_well
        u = pde.FieldState(sd.grid, 2.0 * sd.psi0.eigenfunction + 0j)
        pr = sh.project(u, sd)
        assert pr.c0 == pytest.approx(2.0, abs=1e-12)
        assert pr.c1 == pytest.approx(0.0, abs=1e-12)
        assert norm2(pr.residual.values, sd.grid) < 1e-12
        assert pr.defect < 1e-12

    def test_orthogonal_decomposition(self, shadow_well):
        sd = shadow_well
        basis = sh._Basis(sd)
        rho = basis.project_c(np.exp(-(sd.grid.x - 1.0) ** 2) + 0j)
        u = pde.FieldState(sd.grid,
                           sd.psi0.eigenfunction + 1j * sd.psi1.eigenfunction
                           + rho)
        pr = sh.project(u, sd)
        assert pr.c0 == pytest.approx(1.0, abs=1e-10)
        assert pr.c1 == pytest.approx(1j, abs=1e-10)
        assert np.max(np.abs(pr.residual.values - rho)) < 1e-10

    def test_parseval_split(self, shadow_well):
        sd = shadow_well
        rng = np.random.default_rng(1)
        w = sd.grid.quad_weights()
        for _ in range(5):
            u = (rng.normal(size=sd.grid.n_points)
                 + 1j * rng.normal(size=sd.grid.n_points))
            u *= np.exp(-sd.grid.x**2 / 50.0)
            st = pde.FieldState(sd.grid, u)
            pr = sh.project(st, sd)
            total = float(np.sum(w * np.abs(u) ** 2))
            split = (abs(pr.c0) ** 2 + abs(pr.c1) ** 2
                     + float(np.sum(w * np.abs(pr.residual.values) ** 2)))
            assert abs(total - split) < 1e-10


def _moving_frame(c0, c1):
    """(A, alpha, beta, theta) of the projection (c0, c1): the cartesian
    chart of its mode amplitudes, as run_shadow_experiment forms it."""
    fr = rd.convert(rd.ModeAmplitudes(c0, c1), rd.CARTESIAN)
    return fr.A, fr.alpha, fr.beta, fr.theta


class TestMovingFrame:
    def test_real_c0(self):
        assert _moving_frame(3.0 + 0j, 0j) == (3.0, 0.0, 0.0, 0.0)

    def test_phase_unwinding(self):
        a, al, be, th = _moving_frame(np.exp(0.5j * np.pi),
                                      1j * np.exp(0.5j * np.pi))
        assert (a, al, be) == pytest.approx((1.0, 0.0, 1.0), abs=1e-14)
        assert th == pytest.approx(np.pi / 2, abs=1e-14)

    def test_roundtrip_with_convert(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            z = rng.normal(size=4) * 0.5
            c0, c1 = complex(z[0], z[1]), complex(z[2], z[3])
            if abs(c0) < 1e-3:
                continue
            a, al, be, th = _moving_frame(c0, c1)
            m = rd.convert(rd.CartesianChart(a, al, be, th), rd.MODES)
            assert m.rho0 == pytest.approx(c0, abs=1e-12)
            assert m.rho1 == pytest.approx(c1, abs=1e-12)

    def test_breakdown(self):
        for c0 in (1e-12 + 0j, 1e-8 + 0j, 1e-8j):
            with pytest.raises(ChartBreakdown, match=r"\|rho0\| > 1e-08"):
                _moving_frame(c0, 0.1 + 0j)


class TestInitialData:
    def test_symmetric_point(self, shadow_well):
        sd = shadow_well
        n_level = 0.05
        u0 = sh.build_initial_data(
            rd.CartesianChart(np.sqrt(n_level), 0.0, 0.0), sd)
        expected = np.sqrt(n_level) * sd.psi0.eigenfunction
        assert np.max(np.abs(u0.values - expected)) < 1e-14

    def test_asymmetric_point(self, shadow_well):
        sd = shadow_well
        u0 = sh.build_initial_data(
            rd.CartesianChart(np.sqrt(0.125), np.sqrt(0.025), 0.0), sd)
        pr = sh.project(u0, sd)
        assert pr.c0 == pytest.approx(np.sqrt(0.125), abs=1e-12)
        assert pr.c1 == pytest.approx(np.sqrt(0.025), abs=1e-12)

    def test_projection_inverse(self, shadow_well):
        sd = shadow_well
        pt = rd.CartesianChart(A=0.31, alpha=0.07, beta=-0.03, theta=0.6)
        u0 = sh.build_initial_data(pt, sd, theta0=pt.theta)
        pr = sh.project(u0, sd)
        a, al, be, th = _moving_frame(pr.c0, pr.c1)
        assert (a, al, be) == pytest.approx((pt.A, pt.alpha, pt.beta),
                                            abs=1e-12)
        assert th == pytest.approx(pt.theta, abs=1e-12)
        assert norm2(pr.residual.values, sd.grid) < 1e-12


class TestModeSource:
    def test_projection_orthogonality(self, shadow_well):
        sd = shadow_well
        basis = sh._Basis(sd)
        w = sd.grid.quad_weights()
        rng = np.random.default_rng(3)
        for _ in range(10):
            a_amp, al, be = rng.normal(size=3) * 0.3
            src = sh.mode_source(abs(a_amp), al, be, basis)
            assert abs(np.sum(w * sd.psi0.eigenfunction * src)) < 1e-10
            assert abs(np.sum(w * sd.psi1.eigenfunction * src)) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(a_amp=st.floats(0.0, 1.0), alpha=st.floats(-1.0, 1.0),
           beta=st.floats(-1.0, 1.0))
    def test_matches_projected_bracket(self, shadow_well, a_amp, alpha, beta):
        # mode_source combines the products projected once; it must equal
        # -P_c(bracket) with the bracket assembled on the grid first
        sd = shadow_well
        basis = sh._Basis(sd)
        p0, p1 = sd.psi0.eigenfunction, sd.psi1.eigenfunction
        z = complex(alpha, beta)
        p = alpha * alpha + beta * beta
        bracket = (a_amp**3 * p0**3 + p * z * p1**3
                   + (a_amp * z * z + 2.0 * a_amp * p) * p0 * p1**2
                   + (a_amp**2 * z.conjugate() + 2.0 * a_amp**2 * z)
                   * p0**2 * p1)
        old = -1.0 * basis.project_c(bracket)
        new = sh.mode_source(a_amp, alpha, beta, basis)
        assert np.max(np.abs(new - old)) <= 1e-13 * max(np.max(np.abs(old)),
                                                         1e-300)

    def test_zero_orbit_zero_source(self, shadow_well):
        basis = sh._Basis(shadow_well)
        assert np.all(sh.mode_source(0.0, 0.0, 0.0, basis) == 0.0)


class TestTildeR:
    def test_zero_orbit_stays_zero(self, shadow_well):
        sd = shadow_well
        zero = rd.integrate(rd.ModeAmplitudes(0j, 0j),
                            rd.ReducedParams.from_spectral(sd),
                            (0.0, 5.0), 0.01)
        fields = sh.tilde_r_evolve(sd, 0.01, zero, 500, _record_steps(500))
        assert np.all(fields == 0.0)

    # the Gaussian well checks that R~ uses the pinned finite-difference H
    # of psi0, psi1 on smooth wells too
    @pytest.mark.parametrize("well", ["shadow_well", "gauss_sigma1_L3"])
    def test_driven_field_small_and_continuum(self, well, request):
        sd = request.getfixturevalue(well)
        params = rd.ReducedParams.from_spectral(sd)
        n_level = 0.05
        ic = rd.ModeAmplitudes(complex(np.sqrt(n_level - 1e-4), 0.0),
                               complex(0.01, 0.0))
        orbit = rd.integrate(ic, params, (0.0, 60.0), 0.02)
        fields = sh.tilde_r_evolve(sd, 4e-3, orbit, 15000,
                                   _record_steps(15000))
        assert 0 < np.max(np.abs(fields[-1])) < 1e-2
        w = sd.grid.quad_weights()
        for f in fields[1::5]:
            size = norm2(f, sd.grid)
            assert abs(np.sum(w * sd.psi0.eigenfunction * f)) <= 1e-10 * size
            assert abs(np.sum(w * sd.psi1.eigenfunction * f)) <= 1e-10 * size
        assert all(f[0] == 0.0 for f in fields)    # the pinned node

    def test_step_is_exact_exponential(self):
        # zero source (the stepper's coefficients zeroed) and constant m:
        # one step is exp(-i dt (H - Omega0 + m)) on the free nodes, here
        # from expm
        grid = Grid.symmetric(16.0, 256)
        sd = ls.spectral_data(ls.PotentialSpec("delta", 4.0, 2.5), grid)
        dt, a_amp = 4e-3, 0.2
        stepper = sh._TildeREvolver(sd, dt, _ConstantOrbit(a_amp), 1)
        stepper.c[:] = 0
        rng = np.random.default_rng(4)
        s0 = rng.normal(size=stepper.v.shape[1]) \
            + 1j * rng.normal(size=stepper.v.shape[1])
        r0, r1 = stepper.to_grid(np.array([s0, stepper.step(s0)]), [0, 1])
        hp = ls.pinned_hamiltonian(sd.spec, grid)
        m = sd.a[0, 0, 0, 0] * a_amp**2
        h = np.diag(hp.diag - sd.omega0 + m) + np.diag(hp.off, 1) \
            + np.diag(hp.off, -1)
        exact = expm(-1j * dt * h) @ r0[1:]
        assert r1[0] == 0.0
        assert np.max(np.abs(r1[1:] - exact)) <= 1e-13 * np.max(np.abs(r0))

    def test_cut_is_projected_zeroing(self, shadow_well):
        # the tail filter in the eigenbasis is P_c of the field zeroed
        # beyond the cutoff on the grid
        sd = shadow_well
        stepper = sh._TildeREvolver(sd, 4e-3, _ConstantOrbit(0.2), 1)
        rng = np.random.default_rng(6)
        s0 = rng.normal(size=stepper.v.shape[1]) \
            + 1j * rng.normal(size=stepper.v.shape[1])
        keep = np.abs(sd.grid.x) <= 0.75 * sd.grid.x_max
        s1, got_removed = stepper.cut(s0, keep)
        r, got = stepper.to_grid(np.array([s0, s1]), [0, 0])
        want, removed = pde.cut_on_grid(sd.grid, r, keep)
        assert np.max(np.abs(got - sh._Basis(sd).project_c(want))) \
            <= 1e-12 * np.max(np.abs(r))
        assert got_removed == pytest.approx(removed, rel=1e-12)

    def test_converged_at_the_shadowing_step(self, shadow_well):
        # the source is held at each step's midpoint, the only time error:
        # at dt = 4e-3 the field is within 1% (L2) of the run at dt/16
        sd = shadow_well
        orbit = _libration_orbit(sd, 8.0)
        coarse = sh.tilde_r_evolve(sd, 4e-3, orbit, 2000, [2000])[-1]
        fine = sh.tilde_r_evolve(sd, 2.5e-4, orbit, 32000, [32000])[-1]
        err = norm2(coarse - fine, sd.grid) / norm2(fine, sd.grid)
        print(f"L2 distance to dt/16: {err:.2e}")
        assert err <= 1e-2

    @pytest.mark.slow
    def test_agrees_with_fine_crank_nicolson(self, shadow_well):
        # an independent march of the same equation: Crank-Nicolson on the
        # pinned H at dt = 6.25e-5, m(t) and the source at step midpoints
        sd = shadow_well
        orbit = _libration_orbit(sd, 8.0)
        horizon, dt = 8.0, 6.25e-5
        exact = sh.tilde_r_evolve(sd, 4e-3, orbit, 2000, [2000])[-1]
        n_steps = int(round(horizon / dt))
        a, al, be = orbit.sample((np.arange(n_steps) + 0.5) * dt)
        m = sd.a[0, 0, 0, 0] * a * a \
            + sd.a[0, 0, 1, 1] * (3.0 * al * al + be * be)
        basis = sh._Basis(sd)
        h = ls.pinned_hamiltonian(sd.spec, sd.grid)
        e = h.off[0]
        c = 0.5j * dt
        off = np.full(len(h.off), c * e)
        r = np.zeros(len(h.diag), complex)
        for k in range(n_steps):
            diag = 1.0 + c * (h.diag - sd.omega0 + m[k])
            rhs = (2.0 - diag) * r
            rhs[:-1] -= c * e * r[1:]
            rhs[1:] -= c * e * r[:-1]
            rhs -= 2.0 * c * sh.mode_source(a[k], al[k], be[k], basis)[1:]
            *lu, info = zgttrf(off, diag, off)
            r, info = zgttrs(*lu, rhs)
        cn = np.concatenate(([0.0], r))
        err = norm2(exact - cn, sd.grid) / norm2(cn, sd.grid)
        print(f"L2 distance to CN at dt = {dt}: {err:.2e}")
        assert err <= 1e-2

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3 * sh.BLOCK),
           k0=st.integers(0, sh.BLOCK))
    def test_block_advance_equals_single_steps(self, small_tilde_r, seed, m,
                                               k0):
        # step(s, m) in closed form against m steps S <- E S + Phi G c_k
        stepper = small_tilde_r
        rng = np.random.default_rng(seed)
        n = len(stepper.e)
        s0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        stepper.c[:] = (rng.normal(size=stepper.c.shape)
                        + 1j * rng.normal(size=stepper.c.shape))
        want = s0
        for k in range(k0, k0 + m):
            want = stepper.e * want + stepper.g_phi @ stepper.c[k]
        stepper.k = k0
        got = stepper.step(s0, m)
        assert stepper.k == k0 + m
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_evolve_with_filter_equals_step_loop(self, shadow_well):
        # tilde_r_evolve forms R~ only at its records and cuts; a loop of
        # single steps with a cut every 250 steps (before the record at
        # the same step) gives the same fields
        sd = shadow_well
        orbit = _libration_orbit(sd, 3.0)
        dt, horizon, every = 4e-3, 3.0, 50
        n_steps = int(round(horizon / dt))
        steps = _record_steps(n_steps, every)
        fields = sh.tilde_r_evolve(sd, dt, orbit, n_steps, steps,
                                   _shadow_tail_filter(sd, dt))
        stepper = sh._TildeREvolver(sd, dt, orbit, n_steps)
        keep = np.abs(sd.grid.x) <= sh.CUTOFF_FRACTION * sd.grid.x_max
        s = np.zeros_like(stepper.e)
        want = [stepper.to_grid(s[None], [0])[0]]
        for k in range(1, n_steps + 1):
            s = stepper.step(s, 1)
            if k % 250 == 0:
                s, _ = stepper.cut(s, keep)
            if k % every == 0 or k == n_steps:
                want.append(stepper.to_grid(s[None], [k])[0])
        want = np.array(want)
        assert fields.shape == want.shape
        scale = np.max(np.abs(want))
        for got_k, want_k in zip(fields, want):
            assert np.max(np.abs(got_k - want_k)) <= 1e-12 * scale

    def test_orbit_shorter_than_horizon_refused(self, shadow_well):
        # sampling past the integrated span used to hold the last state
        sd = shadow_well
        orbit = _libration_orbit(sd, 0.9)         # integrated to t = 1.0
        with pytest.raises(ValueError, match="sampled at t = "):
            sh.tilde_r_evolve(sd, 4e-3, orbit, 750, _record_steps(750))


@pytest.fixture(scope="module")
def small_tilde_r():
    grid = Grid.symmetric(16.0, 256)
    sd = ls.spectral_data(ls.PotentialSpec("delta", 4.0, 2.5), grid)
    return sh._TildeREvolver(sd, 4e-3, _ConstantOrbit(0.2), 5 * sh.BLOCK)


class _ConstantOrbit:
    """A reference orbit resting at (A, 0, 0)."""

    def __init__(self, a_amp):
        self.a_amp = a_amp

    def sample(self, t):
        t = np.asarray(t, float)
        return np.full(t.shape, self.a_amp), np.zeros(t.shape), np.zeros(t.shape)


def _record_steps(n_steps, every=50):
    """Steps 0, every, 2 every, ... and the last of a run of n_steps."""
    return np.unique(np.r_[0:n_steps + 1:every, n_steps])


def _shadow_tail_filter(sd, dt):
    """The shadowing runs' filter: |x| > CUTOFF_FRACTION x_max cut every
    TAIL_FILTER_EVERY time units."""
    return pde.TailFilter(max(1, int(round(sh.TAIL_FILTER_EVERY / dt))),
                          sh.CUTOFF_FRACTION * sd.grid.x_max)


def _libration_orbit(sd, horizon):
    params = rd.ReducedParams.from_spectral(sd)
    ic = rd.ModeAmplitudes(complex(np.sqrt(0.05 - 1e-4), 0.0),
                           complex(0.01, 0.0))
    return sh._ReferenceOrbit(rd.integrate(ic, params, (0.0, horizon + 0.1),
                                           0.02))


@pytest.mark.slow
class TestTildeRLadder:
    def test_sup_scaling_slope_above_one(self, shadow_grid):
        # wells retuned per rung (separation grows at near-constant
        # strength); the driven field is slaved to the cubic source, so
        # its sup falls like the source amplitude ~ (power)^{3/2}, faster
        # than tau on this ladder
        gamma = 0.8
        taus = (0.05, 0.025, 0.0125)
        sups = []
        for tau in taus:
            sd = ls.tune_delta_well_for_ncr(tau**gamma, shadow_grid)
            params = rd.ReducedParams.from_spectral(sd)
            n_level = tau**gamma + tau
            al_eq = sh.equilibrium_alpha(params, n_level)
            al0 = 1.02 * al_eq
            ic = rd.ModeAmplitudes(complex(np.sqrt(n_level - al0**2), 0.0),
                                   complex(al0, 0.0))
            a_eff = 0.5 * (3 * params.a[0, 0, 1, 1] - params.a[0, 0, 0, 0])
            period = np.pi / (a_eff * np.sqrt(n_level**2 - tau**(2 * gamma)))
            orbit = rd.integrate(ic, params, (0.0, 2.0 * period),
                                 period / 2000)
            n_steps = int(round(2.0 * period / 4e-3))
            fields = sh.tilde_r_evolve(sd, 4e-3, orbit, n_steps,
                                       _record_steps(n_steps),
                                       _shadow_tail_filter(sd, 4e-3))
            sups.append(float(np.max(np.abs(fields))))
        slope = np.polyfit(np.log(taus), np.log(sups), 1)[0]
        assert sups[0] > sups[1] > sups[2]
        assert slope > 1.0


class TestCouplingErrors:
    def test_zero_residual(self, shadow_well):
        sd = shadow_well
        zero = pde.FieldState(sd.grid, np.zeros(sd.grid.n_points, complex))
        errs = sh.coupling_errors(0.3, 0.05, -0.02, zero, sd)
        assert errs == (0.0, 0.0, 0.0, 0.0)

    def test_chart_guard(self, shadow_well):
        sd = shadow_well
        zero = pde.FieldState(sd.grid, np.zeros(sd.grid.n_points, complex))
        with pytest.raises(ChartBreakdown):
            sh.coupling_errors(1e-9, 0.0, 0.0, zero, sd)

    def test_linear_scaling_in_residual(self, shadow_well):
        # two-point amplitude ladder: the functionals scale linearly in
        # ||R|| while the quadratic terms stay subdominant
        sd = shadow_well
        basis = sh._Basis(sd)
        bump = basis.project_c(
            np.exp(-(sd.grid.x - 0.8) ** 2) * (1.0 + 0.5j) + 0j)
        slopes = []
        for h in (1e-3, 5e-4):
            vals = []
            for hh in (h, 0.5 * h):
                r = pde.FieldState(sd.grid, hh * bump)
                vals.append(sh.coupling_errors(0.3, 0.06, -0.02, r, sd))
            vals = np.abs(np.array(vals))
            slopes.append(np.log2(vals[0] / vals[1]))
        for slope in slopes[1]:
            assert abs(slope - 1.0) < 0.1


class TestStrichartzMonitor:
    def test_zero_series(self, shadow_grid):
        times = np.linspace(0.0, 1.0, 5)
        fields = [np.zeros(shadow_grid.n_points, complex) for _ in times]
        h1, l4 = sh.strichartz_monitor(times, fields, shadow_grid)
        assert h1 == 0.0 and l4 == 0.0

    def test_static_field(self, shadow_grid):
        f = np.exp(-shadow_grid.x**2) + 0j
        horizon = 2.0
        times = np.linspace(0.0, horizon, 41)
        h1, l4 = sh.strichartz_monitor(times, [f] * len(times), shadow_grid)
        assert l4 == pytest.approx(float(np.max(np.abs(f)))
                                   * horizon**0.25, rel=1e-12)
        w = shadow_grid.quad_weights()
        df = np.gradient(f, shadow_grid.dx)
        expected = np.sqrt(float(np.sum(w * (np.abs(f) ** 2
                                             + np.abs(df) ** 2))))
        assert h1 == pytest.approx(expected, rel=1e-12)


class TestEquilibriumAlpha:
    def test_unit_matches_closed_form(self):
        params = rd.ReducedParams.from_ncr(0.1)
        assert sh.equilibrium_alpha(params, 0.15) == pytest.approx(
            np.sqrt(0.025), rel=1e-14)

    def test_tensor_is_relative_equilibrium(self, shadow_well):
        params = rd.ReducedParams.from_spectral(shadow_well)
        n_level = 0.15
        al = sh.equilibrium_alpha(params, n_level)
        a_amp = np.sqrt(n_level - al * al)
        m = rd.ModeAmplitudes(complex(a_amp, 0.0), complex(al, 0.0))
        d = rd.chart_field(rd.MODES, params)(*rd.pack(m))
        d0, d1 = complex(d[0], d[1]), complex(d[2], d[3])
        # relative equilibrium: both modes rotate at one common rate
        r0 = d0 / m.rho0
        r1 = d1 / m.rho1
        assert abs(r0.real) < 1e-14 and abs(r1.real) < 1e-14
        assert r0.imag == pytest.approx(r1.imag, rel=1e-12)

    def test_below_threshold_raises(self, shadow_well):
        params = rd.ReducedParams.from_spectral(shadow_well)
        with pytest.raises(BelowThreshold):
            sh.equilibrium_alpha(params, 0.05)


class TestAnnulusGeometry:
    def test_point_on_curve_zero_width(self):
        phi = np.linspace(0.0, 2 * np.pi, 400, endpoint=False)
        curve = np.column_stack([0.2 + 0.05 * np.cos(phi),
                                 0.05 * np.sin(phi)])
        ratio = sh.annulus_width_ratio(curve, curve[::7])
        assert ratio < 1e-10

    def test_offset_points(self):
        phi = np.linspace(0.0, 2 * np.pi, 400, endpoint=False)
        curve = np.column_stack([0.05 * np.cos(phi), 0.05 * np.sin(phi)])
        pts = np.column_stack([0.055 * np.cos(phi[::5]),
                               0.055 * np.sin(phi[::5])])
        ratio = sh.annulus_width_ratio(curve, pts)
        assert ratio == pytest.approx(0.1, rel=1e-6)


class TestSignChanges:
    def test_counts(self):
        t = np.linspace(0.0, 4 * np.pi, 400)
        assert sh.count_sign_changes(np.sin(t)) == 3
        assert sh.count_sign_changes(np.abs(np.sin(t)) + 0.1) == 0
        assert sh.count_sign_changes(np.zeros(10)) == 0

    def test_deadband_ignores_noise(self):
        rng = np.random.default_rng(0)
        series = np.ones(200) + 0.01 * rng.normal(size=200)
        series[::7] *= -0.001
        assert sh.count_sign_changes(series) == 0


class TestShadowParams:
    def test_gamma_window(self):
        with pytest.raises(ValueError):
            sh.ShadowParams(tau=0.05, gamma=0.5)
        with pytest.raises(ValueError):
            sh.ShadowParams(tau=0.05)
        with pytest.raises(ValueError):
            sh.ShadowParams(tau=0.05, gamma=0.8, n_cr=0.1)
        p = sh.ShadowParams(tau=0.05, gamma=0.8)
        assert p.critical_power == pytest.approx(0.05**0.8, rel=1e-14)

    def test_explicit_ncr_records_gamma(self):
        p = sh.ShadowParams(tau=0.05, n_cr=0.1)
        assert p.implied_gamma == pytest.approx(np.log(0.1) / np.log(0.05),
                                                rel=1e-12)

    def test_tau_window(self):
        with pytest.raises(ValueError):
            sh.ShadowParams(tau=0.5, gamma=0.8)


class TestGaugeInsensitivity:
    def test_theta0_shift(self, shadow_well):
        sd = shadow_well
        sp = sh.ShadowParams(tau=0.05, n_cr=0.1)
        reports = []
        for theta0 in (0.0, 0.7):
            orb = sh.OrbitSpec(side="below", horizon_periods=0.2,
                               dt_pde=4e-3, theta0=theta0)
            reports.append(sh.run_shadow_experiment(sp, sd, orb))
        r0, r1 = reports
        assert r0.sup_eta == pytest.approx(r1.sup_eta, abs=1e-10)
        assert r0.w_sup_h1 == pytest.approx(r1.w_sup_h1, abs=1e-10)
        assert r0.tilde_r_sup == pytest.approx(r1.tilde_r_sup, abs=1e-10)
        assert np.max(np.abs(r0.eta - r1.eta)) < 1e-10

    def test_eta_zero_at_start(self, shadow_well):
        sd = shadow_well
        sp = sh.ShadowParams(tau=0.05, n_cr=0.1)
        orb = sh.OrbitSpec(side="below", horizon_periods=0.1, dt_pde=4e-3)
        rep = sh.run_shadow_experiment(sp, sd, orb)
        assert np.max(np.abs(rep.eta[0])) < 1e-13


class TestReportSerialization:
    def test_json_and_csv(self, shadow_well):
        sd = shadow_well
        sp = sh.ShadowParams(tau=0.05, n_cr=0.1)
        orb = sh.OrbitSpec(side="below", horizon_periods=0.1, dt_pde=4e-3)
        rep = sh.run_shadow_experiment(sp, sd, orb)
        d = rep.to_json_dict()
        for key in ("sup_eta", "annulus_ratio", "com_sign_changes",
                    "w_sup_h1", "tilde_r_sup", "horizon_truncated",
                    "removed_energy", "pilot_steps"):
            assert key in d
        lines = rep.series_csv().strip().split("\n")
        assert lines[0].startswith("t,eta_A")
        assert len(lines) == len(rep.times) + 1


    def test_truncation_keeps_its_cause(self, shadow_well, monkeypatch):
        original = pde.CrankNicolsonStepper.step
        calls = []

        def failing_step(self, u):
            calls.append(1)
            if len(calls) == 3:
                raise NonlinearIterationDiverged("injected at the third step")
            return original(self, u)

        monkeypatch.setattr(pde.CrankNicolsonStepper, "step", failing_step)
        sd = shadow_well
        sp = sh.ShadowParams(tau=0.05, n_cr=0.1)
        orb = sh.OrbitSpec(side="below", horizon_periods=0.1, dt_pde=4e-3)
        rep = sh.run_shadow_experiment(sp, sd, orb)
        assert rep.horizon_truncated
        cause = {"error": "NonlinearIterationDiverged",
                 "message": "injected at the third step",
                 "step": 3, "time": pytest.approx(3 * 4e-3, rel=1e-15)}
        assert rep.truncation == cause
        assert json.loads(dumps_17g(rep.to_json_dict()))["truncation"] == cause

    def test_full_run_has_no_truncation(self, shadow_well):
        sd = shadow_well
        sp = sh.ShadowParams(tau=0.05, n_cr=0.1)
        orb = sh.OrbitSpec(side="below", horizon_periods=0.05, dt_pde=4e-3,
                           compute_w=False)
        rep = sh.run_shadow_experiment(sp, sd, orb)
        assert not rep.horizon_truncated
        assert rep.truncation is None
        assert rep.to_json_dict()["truncation"] is None


class TestInvariants:
    def test_filter_removals_are_added_back(self, shadow_well):
        # the report's drifts add back what the tail filter removed: the
        # free-node mass holds to rounding and H to the O(dt^2) gap between
        # H and the relaxation's modified energy, while the cuts remove
        # thousands of times more energy than that
        sp = sh.ShadowParams(tau=0.05, n_cr=0.1)
        orb = sh.OrbitSpec(side="above", amplitude_factor=0.7,
                           horizon_periods=0.1, dt_pde=4e-3, compute_w=False)
        rep = sh.run_shadow_experiment(sp, shadow_well, orb)
        assert rep.removed_mass > 1e-6
        assert rep.mass_drift <= 1e-14
        assert rep.parseval_defect <= 1e-15
        assert rep.energy_drift <= 1e-8
        assert rep.removed_energy > 1e3 * rep.energy_drift


def _old_pilot_period(sd, sp, orb):
    """The period as the pilot measured it before it landed: crossings of
    an orbit of 4 (8 with dtheta0) estimated periods recorded every 5
    steps, linearly interpolated and averaged."""
    full = rd.ReducedParams.from_spectral(sd)
    params = rd.ReducedParams(omega0=0.0, omega1=full.omega10, a=full.a)
    state0, n_level, _, _ = sh._orbit_initial_state(params, sp, orb)
    t_est = sh._period_guess(params, sp, orb, n_level)
    span = (8.0 if orb.dtheta0 is not None else 4.0) * t_est
    traj = rd.integrate(state0, params, (0.0, span),
                        t_est * sh.DT_REDUCED_FRACTION, record_every=5)
    return rd.detect_period(traj).period


class TestPilotLanding:
    # the landed period is the midpoint's own; the old pilot's linear
    # interpolation was 1.7e-9 (nominal), 1.7e-9 (below) and 4.1e-9
    # (transport) off it
    @pytest.mark.parametrize("orb", [
        sh.OrbitSpec(side="above", amplitude_factor=0.7),
        sh.OrbitSpec(side="below"),
        sh.OrbitSpec(side="above", dtheta0=1.0),
    ], ids=["nominal", "below", "transport"])
    def test_period_matches_old_pilot(self, shadow_well, orb):
        sp = sh.ShadowParams(tau=0.05, n_cr=0.1)
        short = sh.OrbitSpec(side=orb.side,
                             amplitude_factor=orb.amplitude_factor,
                             dtheta0=orb.dtheta0, horizon_periods=0.02,
                             compute_w=False)
        rep = sh.run_shadow_experiment(sp, shadow_well, short)
        assert rep.period == pytest.approx(
            _old_pilot_period(shadow_well, sp, orb), rel=1e-8)
        if orb.dtheta0 is None and orb.side == "above":
            # the nominal pilot lands once, against 8,000 steps before
            assert rep.pilot_steps <= 2500


class TestReferencePeriod:
    def test_period_matches_converged_reduction(self, shadow_grid):
        # last rung of the criterion-9 ladder: the slow period is ~300 time
        # units while Omega0 ~ -4, so a reference that carries the Omega0
        # phase is under-resolved at the reduced step and its period comes
        # out 4.6% long
        tau = 0.0125
        sd = ls.tune_delta_well_for_ncr(tau**0.8, shadow_grid)
        sp = sh.ShadowParams(tau=tau, gamma=0.8)
        orb = sh.OrbitSpec(side="below", horizon_periods=0.05, dt_pde=4e-3,
                           compute_w=False)
        rep = sh.run_shadow_experiment(sp, sd, orb)
        params = rd.ReducedParams.from_spectral(sd)
        state0 = sh._orbit_initial_state(params, sp, orb)[0]
        traj = rd.integrate(state0, params, (0.0, 700.0), 0.25,
                            method="adaptive_rk", rtol=1e-9, atol=1e-11)
        period = rd.detect_period(traj).period
        assert rep.period == pytest.approx(period, rel=1e-4)
