import json

import numpy as np
import pytest
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


class TestMovingFrame:
    def test_real_c0(self):
        assert sh.to_moving_frame(3.0 + 0j, 0j) == (3.0, 0.0, 0.0, 0.0)

    def test_phase_unwinding(self):
        a, al, be, th = sh.to_moving_frame(np.exp(0.5j * np.pi),
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
            a, al, be, th = sh.to_moving_frame(c0, c1)
            m = rd.convert(rd.CartesianChart(a, al, be, th), rd.MODES)
            assert m.rho0 == pytest.approx(c0, abs=1e-12)
            assert m.rho1 == pytest.approx(c1, abs=1e-12)

    def test_breakdown(self):
        with pytest.raises(ChartBreakdown):
            sh.to_moving_frame(1e-12 + 0j, 0.1 + 0j)


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
        a, al, be, th = sh.to_moving_frame(pr.c0, pr.c1)
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
        # g P_c(bracket) with the bracket assembled on the grid first
        sd = shadow_well
        basis = sh._Basis(sd)
        p0, p1 = sd.psi0.eigenfunction, sd.psi1.eigenfunction
        z = complex(alpha, beta)
        p = alpha * alpha + beta * beta
        bracket = (a_amp**3 * p0**3 + p * z * p1**3
                   + (a_amp * z * z + 2.0 * a_amp * p) * p0 * p1**2
                   + (a_amp**2 * z.conjugate() + 2.0 * a_amp**2 * z)
                   * p0**2 * p1)
        old = sd.g * basis.project_c(bracket)
        new = sh.mode_source(a_amp, alpha, beta, basis, sd.g)
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
        times, fields, sups = sh.tilde_r_evolve(zero, sd, horizon=5.0,
                                                dt=0.01)
        assert np.all(sups == 0.0)

    def test_driven_field_small_and_continuum(self, shadow_well):
        sd = shadow_well
        params = rd.ReducedParams.from_spectral(sd)
        n_level = 0.05
        ic = rd.ModeAmplitudes(complex(np.sqrt(n_level - 1e-4), 0.0),
                               complex(0.01, 0.0))
        orbit = rd.integrate(ic, params, (0.0, 60.0), 0.02)
        times, fields, sups = sh.tilde_r_evolve(orbit, sd, horizon=60.0,
                                                dt=4e-3)
        assert 0 < sups[-1] < 1e-2
        w = sd.grid.quad_weights()
        for f in fields[::5]:
            assert abs(np.sum(w * sd.psi0.eigenfunction * f)) < 1e-8
            assert abs(np.sum(w * sd.psi1.eigenfunction * f)) < 1e-8


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
            sd = ls.tune_delta_well_for_ncr(tau**gamma, shadow_grid, s0=4.0)
            params = rd.ReducedParams.from_spectral(sd)
            n_level = tau**gamma + tau
            al_eq = sh.equilibrium_alpha(params, n_level)
            al0 = 1.02 * al_eq
            ic = rd.ModeAmplitudes(complex(np.sqrt(n_level - al0**2), 0.0),
                                   complex(al0, 0.0))
            a_eff = abs(params.g) * 0.5 * (3 * params.a[0, 0, 1, 1]
                                           - params.a[0, 0, 0, 0])
            period = np.pi / (a_eff * np.sqrt(n_level**2 - tau**(2 * gamma)))
            orbit = rd.integrate(ic, params, (0.0, 2.0 * period),
                                 period / 2000)
            _, _, sup_series = sh.tilde_r_evolve(orbit, sd,
                                                 horizon=2.0 * period,
                                                 dt=4e-3,
                                                 tail_filter_every=1.0)
            sups.append(float(np.max(sup_series)))
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
        d0, d1 = rd.vf_modes(m, params)
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
                    "w_sup_h1", "tilde_r_sup", "horizon_truncated"):
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


class TestReferencePeriod:
    def test_period_matches_converged_reduction(self, shadow_grid):
        # last rung of the criterion-9 ladder: the slow period is ~300 time
        # units while Omega0 ~ -4, so a reference that carries the Omega0
        # phase is under-resolved at the reduced step and its period comes
        # out 4.6% long
        tau = 0.0125
        sd = ls.tune_delta_well_for_ncr(tau**0.8, shadow_grid, s0=4.0)
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
