import numpy as np
import pytest

from dwnls.errors import ChartBreakdown, NoCrossing
from dwnls import linear_spectrum as ls
from dwnls import reduced_dynamics as rd
from dwnls import bifurcation as bf


PARAMS = rd.ReducedParams.from_ncr(0.1, omega0=-1.0)


def field(chart, state, params):
    """The chart's vector field at a chart state."""
    return rd.chart_field(chart, params)(*rd.pack(state))


def vf_modes(state, params):
    """(rho0', rho1') of the modes field as complex numbers."""
    d = field(rd.MODES, state, params)
    return complex(d[0], d[1]), complex(d[2], d[3])


def random_modes(rng, scale=0.4):
    z = rng.normal(size=4) * scale
    return rd.ModeAmplitudes(complex(z[0], z[1]), complex(z[2], z[3]))


def finite_diff_h_gradient(state, params, h=1e-6):
    """(rho0', rho1') from central differences of H: the Hamiltonian-form
    oracle rho_j' = -i dH/d(conj rho_j) with dH/dz* = (H_x + i H_y)/2."""
    x = np.array([state.rho0.real, state.rho0.imag,
                  state.rho1.real, state.rho1.imag])

    def ham(y):
        m = rd.ModeAmplitudes(complex(y[0], y[1]), complex(y[2], y[3]))
        return rd.invariants(m, params)[1]

    grad = np.empty(4)
    for i in range(4):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (ham(xp) - ham(xm)) / (2 * h)
    d0 = -1j * 0.5 * complex(grad[0], grad[1])
    d1 = -1j * 0.5 * complex(grad[2], grad[3])
    return d0, d1


class TestVectorFields:
    def test_zero_fixed_point(self):
        d0, d1 = vf_modes(rd.ModeAmplitudes(0j, 0j), PARAMS)
        assert d0 == 0 and d1 == 0

    def test_symmetric_relative_equilibrium(self):
        n_level = 0.07
        theta = 0.8
        rho0 = np.sqrt(n_level) * np.exp(1j * theta)
        d0, d1 = vf_modes(rd.ModeAmplitudes(rho0, 0j), PARAMS)
        expected = -1j * (PARAMS.omega0 - n_level) * rho0
        assert d0 == pytest.approx(expected, abs=1e-15)
        assert d1 == 0

    def test_hamiltonian_gradient_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_modes(rng)
            d0, d1 = vf_modes(m, PARAMS)
            o0, o1 = finite_diff_h_gradient(m, PARAMS)
            assert d0 == pytest.approx(o0, abs=1e-6)
            assert d1 == pytest.approx(o1, abs=1e-6)

    def test_hamiltonian_gradient_oracle_tensor(self, delta_s1_L10):
        params = rd.ReducedParams.from_spectral(delta_s1_L10)
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = random_modes(rng, scale=0.2)
            d0, d1 = vf_modes(m, params)
            o0, o1 = finite_diff_h_gradient(m, params)
            assert d0 == pytest.approx(o0, abs=1e-6)
            assert d1 == pytest.approx(o1, abs=1e-6)

    def test_modes_field_is_the_projected_pde(self, shadow_well):
        # the reduction projects the PDE's one cubic term onto the modes:
        # i rho_j' = <psi_j, (H - |u|^2) u> for u = rho0 psi0 + rho1 psi1
        sd = shadow_well
        h = ls.pinned_hamiltonian(sd.spec, sd.grid)
        w = sd.grid.quad_weights()
        psi = (sd.psi0.eigenfunction, sd.psi1.eigenfunction)
        params = rd.ReducedParams.from_spectral(sd)
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = random_modes(rng)
            u = m.rho0 * psi[0] + m.rho1 * psi[1]
            pde_rhs = h.apply(u) - np.abs(u) ** 2 * u
            want = [-1j * np.sum(w * p * pde_rhs) for p in psi]
            got = vf_modes(m, params)
            err = max(abs(g - v) for g, v in zip(got, want))
            assert err <= 1e-12 * max(abs(v) for v in want)

    def test_cartesian_form(self):
        st = rd.CartesianChart(A=0.3, alpha=0.1, beta=-0.05, theta=0.4)
        da, dal, dbe, dth = field(rd.CARTESIAN, st, PARAMS)
        om10 = PARAMS.omega10
        assert dal == pytest.approx((om10 + 2 * 0.1**2) * (-0.05), rel=1e-14)
        assert dbe == pytest.approx(-(om10 - 2 * 0.3**2 + 2 * 0.1**2) * 0.1,
                                    rel=1e-14)
        assert da == pytest.approx(-2 * 0.1 * (-0.05) * 0.3, rel=1e-14)
        assert dth == pytest.approx(-PARAMS.omega0 + 0.3**2 + 3 * 0.1**2
                                    + 0.05**2, rel=1e-14)

    def test_cartesian_equilibria_are_fixed(self):
        for n_level in (0.05, 0.15):
            for eq in bf.equilibria(n_level, 0.1):
                d = field(rd.CARTESIAN, eq.chart_state(), PARAMS)
                assert max(abs(v) for v in d[:3]) < 1e-14
        # symmetric point: theta advances at -Omega0 + N
        eq = bf.equilibria(0.05, 0.1)[0]
        dth = field(rd.CARTESIAN, eq.chart_state(), PARAMS)[3]
        assert dth == pytest.approx(-PARAMS.omega0 + 0.05, rel=1e-14)

    def test_cartesian_breakdown(self):
        with pytest.raises(ChartBreakdown):
            field(rd.CARTESIAN,
                  rd.CartesianChart(A=0.0, alpha=0.1, beta=0.0), PARAMS)

    def test_polar_zero_relative_phase(self):
        d = field(rd.POLAR, rd.PolarChart(r0=0.3, r1=0.1, dtheta=0.0),
                  PARAMS)
        assert d[0] == 0.0 and d[1] == 0.0

    def test_polar_reduced_equilibria(self):
        # Fig-1 parameters: n = 0.05, N_cr = 0.2, equilibria at
        # (eps1, dtheta) = (sqrt(n/2), k pi)
        n, ncr = 0.05, 0.2
        for k in (0, 1, -1, 2):
            d1, d2 = rd.vf_polar_reduced(np.sqrt(n / 2), k * np.pi, n, ncr)
            assert abs(d1) < 1e-14
            assert abs(d2) < 1e-14

    def test_chart_pushforward_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = random_modes(rng)
            if abs(m.rho0) < 0.05 or abs(m.rho1) < 0.05:
                continue
            d0, d1 = vf_modes(m, PARAMS)
            # cartesian push-forward
            c = rd.convert(m, rd.CARTESIAN)
            da, dal, dbe, dth = field(rd.CARTESIAN, c, PARAMS)
            a_dot = (np.conj(m.rho0) * d0).real / abs(m.rho0)
            th_dot = (d0 / m.rho0).imag
            c1_dot = (d1 - 1j * th_dot * m.rho1) * np.exp(-1j * c.theta)
            assert da == pytest.approx(a_dot, abs=1e-10)
            assert dth == pytest.approx(th_dot, abs=1e-10)
            assert dal == pytest.approx(c1_dot.real, abs=1e-10)
            assert dbe == pytest.approx(c1_dot.imag, abs=1e-10)
            # polar push-forward
            p = rd.convert(m, rd.POLAR)
            dr0, dr1, ddth, dth0 = field(rd.POLAR, p, PARAMS)
            assert dr0 == pytest.approx(
                (np.conj(m.rho0) * d0).real / abs(m.rho0), abs=1e-10)
            assert dr1 == pytest.approx(
                (np.conj(m.rho1) * d1).real / abs(m.rho1), abs=1e-10)
            assert ddth == pytest.approx(
                (d1 / m.rho1).imag - (d0 / m.rho0).imag, abs=1e-10)


class TestInvariants:
    def test_zero_state(self):
        n, h = rd.invariants(rd.ModeAmplitudes(0j, 0j), PARAMS)
        assert n == 0.0 and h == 0.0

    def test_symmetric_equilibrium_value(self):
        n_level = 0.15
        st = rd.CartesianChart(A=np.sqrt(n_level), alpha=0.0, beta=0.0)
        n, h = rd.invariants(st, PARAMS)
        assert n == pytest.approx(n_level, rel=1e-14)
        assert h == pytest.approx(PARAMS.omega0 * n_level - n_level**2 / 2,
                                  rel=1e-14)

    def test_cross_chart_agreement(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = random_modes(rng)
            n0, h0 = rd.invariants(m, PARAMS)
            for chart in (rd.CARTESIAN, rd.POLAR):
                if abs(m.rho0) < 1e-6:
                    continue
                n1, h1 = rd.invariants(rd.convert(m, chart), PARAMS)
                assert n1 == pytest.approx(n0, abs=1e-12)
                assert h1 == pytest.approx(h0, abs=1e-12)


class TestConversions:
    def test_real_axis(self):
        c = rd.convert(rd.ModeAmplitudes(2.0 + 0j, 0j), rd.CARTESIAN)
        assert (c.A, c.alpha, c.beta, c.theta) == (2.0, 0.0, 0.0, 0.0)

    def test_cartesian_roundtrip(self):
        st = rd.CartesianChart(A=1.0, alpha=0.1, beta=0.2, theta=np.pi / 3)
        back = rd.convert(rd.convert(st, rd.MODES), rd.CARTESIAN)
        assert back.A == pytest.approx(st.A, abs=1e-12)
        assert back.alpha == pytest.approx(st.alpha, abs=1e-12)
        assert back.beta == pytest.approx(st.beta, abs=1e-12)
        assert (back.theta - st.theta) % (2 * np.pi) == pytest.approx(
            0.0, abs=1e-12)

    def test_modes_to_polar_definition(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = random_modes(rng)
            if abs(m.rho0) < 1e-3 or abs(m.rho1) < 1e-3:
                continue
            p = rd.convert(m, rd.POLAR)
            assert p.r0 == pytest.approx(abs(m.rho0), rel=1e-14)
            assert p.r1 == pytest.approx(abs(m.rho1), rel=1e-14)
            expected = np.angle(m.rho1) - np.angle(m.rho0)
            expected = np.arctan2(np.sin(expected), np.cos(expected))
            assert p.dtheta == pytest.approx(expected, abs=1e-12)

    def test_all_roundtrips(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = random_modes(rng)
            if abs(m.rho0) < 0.01:
                continue
            for chart in (rd.CARTESIAN, rd.POLAR):
                back = rd.convert(rd.convert(m, chart), rd.MODES)
                assert back.rho0 == pytest.approx(m.rho0, abs=1e-12)
                assert back.rho1 == pytest.approx(m.rho1, abs=1e-12)


class TestIntegration:
    def test_equilibrium_stays_put(self):
        n_level = 0.05
        st = rd.CartesianChart(A=np.sqrt(n_level), alpha=0.0, beta=0.0)
        traj = rd.integrate(st, PARAMS, (0.0, 50.0), 0.02, record_every=100)
        a, al, be, th = traj.cartesian_series()
        assert np.max(np.abs(a - st.A)) < 1e-12
        assert np.max(np.abs(al)) < 1e-12
        # theta advances linearly at -Omega0 + N
        rate = (th[-1] - th[0]) / (traj.times[-1] - traj.times[0])
        assert rate == pytest.approx(-PARAMS.omega0 + n_level, rel=1e-8)

    def test_invariant_conservation_midpoint(self):
        eq = bf.equilibria(0.15, 0.1)[1]
        t_lin = bf.linear_period(eq, 0.15, 0.1)
        ic = rd.CartesianChart(A=np.sqrt(0.15 - (eq.alpha + 0.02)**2),
                               alpha=eq.alpha + 0.02, beta=0.0)
        traj = rd.integrate(ic, PARAMS, (0.0, 20 * t_lin), t_lin / 2000,
                            record_every=200)
        assert np.max(np.abs(traj.n_series - traj.n_series[0])) < 1e-11
        assert np.max(np.abs(traj.h_series - traj.h_series[0])) < 1e-10

    def test_chart_equivalence_over_ten_periods(self):
        eq = bf.equilibria(0.15, 0.1)[1]
        t_lin = bf.linear_period(eq, 0.15, 0.1)
        ic = rd.CartesianChart(A=np.sqrt(0.15 - (eq.alpha + 0.03)**2),
                               alpha=eq.alpha + 0.03, beta=0.0)
        m0 = rd.convert(ic, rd.MODES)
        p0 = rd.convert(ic, rd.POLAR)
        span = (0.0, 10 * t_lin)
        kw = dict(method="adaptive_rk", rtol=1e-10, atol=1e-13,
                  record_every=20)
        t_c = rd.integrate(ic, PARAMS, span, t_lin / 500, **kw)
        t_m = rd.integrate(m0, PARAMS, span, t_lin / 500, **kw)
        t_p = rd.integrate(p0, PARAMS, span, t_lin / 500, **kw)
        for traj in (t_m, t_p):
            assert np.allclose(traj.times, t_c.times)
        for other in (t_m, t_p):
            for i in (len(t_c.times) // 2, len(t_c.times) - 1):
                ma = rd.convert(t_c.state(i), rd.MODES)
                mb = rd.convert(other.state(i), rd.MODES)
                assert abs(ma.rho0 - mb.rho0) < 1e-6
                assert abs(ma.rho1 - mb.rho1) < 1e-6

    def test_reflection_equivariance(self):
        # (alpha, beta) -> (-alpha, -beta) maps trajectories to trajectories
        ic = rd.CartesianChart(A=0.3, alpha=0.08, beta=0.02)
        icr = rd.CartesianChart(A=0.3, alpha=-0.08, beta=-0.02)
        t1 = rd.integrate(ic, PARAMS, (0.0, 40.0), 0.01, record_every=50)
        t2 = rd.integrate(icr, PARAMS, (0.0, 40.0), 0.01, record_every=50)
        assert np.allclose(t1.states[:, 0], t2.states[:, 0], atol=1e-12)
        assert np.allclose(t1.states[:, 1], -t2.states[:, 1], atol=1e-12)
        assert np.allclose(t1.states[:, 2], -t2.states[:, 2], atol=1e-12)

    def test_time_reversal_structure(self):
        # launched from beta = 0: alpha even, beta odd in time, so the
        # cross moment integrates to zero over a full period
        eq = bf.equilibria(0.15, 0.1)[1]
        t_lin = bf.linear_period(eq, 0.15, 0.1)
        ic = rd.CartesianChart(A=np.sqrt(0.15 - (eq.alpha + 0.03)**2),
                               alpha=eq.alpha + 0.03, beta=0.0)
        traj = rd.integrate(ic, PARAMS, (0.0, 3 * t_lin), t_lin / 4000)
        per = rd.detect_period(traj)
        tt = traj.times
        mask = tt <= per.period
        integrand = traj.states[mask, 1] * traj.states[mask, 2]
        integral = np.trapezoid(integrand, tt[mask])
        assert abs(integral) < 1e-6

    def test_level_set_orbits_close(self):
        # bounded nonequilibrium trajectories on the level set recur within
        # 3 linear periods
        rng = np.random.default_rng(9)
        eq = bf.equilibria(0.15, 0.1)[1]
        t_lin = bf.linear_period(eq, 0.15, 0.1)
        for _ in range(5):
            amp = rng.uniform(0.005, 0.04)
            ic = rd.CartesianChart(A=np.sqrt(0.15 - (eq.alpha + amp)**2),
                                   alpha=eq.alpha + amp, beta=0.0)
            traj = rd.integrate(ic, PARAMS, (0.0, 3.2 * t_lin), t_lin / 3000)
            per = rd.detect_period(traj)
            assert per.period < 3 * t_lin

    def test_chart_breakdown_fallback_to_modes(self):
        # starting almost at A = 0 forces the modes-chart retry
        ic = rd.CartesianChart(A=1e-9, alpha=0.2, beta=0.0)
        with pytest.raises(ChartBreakdown):
            field(rd.CARTESIAN, ic, PARAMS)
        # integrate never raises: it falls back internally
        m = rd.ModeAmplitudes(complex(1e-9, 0.0), complex(0.2, 0.0))
        traj = rd.integrate(m, PARAMS, (0.0, 5.0), 0.01)
        assert traj.chart == rd.MODES
        assert np.all(np.isfinite(traj.states))

    def test_cartesian_breakdown_retried_in_modes(self):
        # the A floor trips inside the cartesian integration, which
        # integrate catches and repeats in the modes chart
        ic = rd.CartesianChart(A=1e-9, alpha=0.2, beta=0.0)
        traj = rd.integrate(ic, PARAMS, (0.0, 1.0), 0.01)
        assert traj.chart == rd.MODES
        assert np.all(np.isfinite(traj.states))

    def test_midpoint_runs_on_python_floats(self, monkeypatch):
        # a numpy scalar dt or t_span must not reach the field: numpy
        # scalar arithmetic would run the whole loop several times slower
        seen = set()
        chart_field = rd.chart_field

        def spy(chart, params):
            field = chart_field(chart, params)

            def wrapped(*y):
                seen.update(type(v) for v in y)
                return field(*y)

            return wrapped

        monkeypatch.setattr(rd, "chart_field", spy)
        rd.integrate(rd.CartesianChart(A=0.3, alpha=0.1, beta=0.0), PARAMS,
                     (np.float64(0.0), np.float64(1.0)), np.float64(0.01))
        assert seen == {float}

    def test_adaptive_rk_samples_stay_inside_span(self):
        # arange over the dt grid lands at 2.3000000000000003 here, which
        # solve_ivp rejects as outside t_span
        traj = rd.integrate(rd.CartesianChart(A=0.3, alpha=0.1, beta=0.0),
                            rd.ReducedParams.from_ncr(0.1, omega0=-1.0),
                            (0.0, 2.3), 0.01, method="adaptive_rk")
        assert traj.times[-1] == 2.3
        assert len(traj.times) == 231


class TestDetectPeriod:
    def test_small_orbit_period_below(self):
        # symmetric center: T -> pi / sqrt((n_cr - N) n_cr)
        n_level, ncr = 0.05, 0.1
        t_lin = np.pi / np.sqrt((ncr - n_level) * ncr)
        ic = rd.CartesianChart(A=np.sqrt(n_level - 1e-8), alpha=1e-4, beta=0.0)
        traj = rd.integrate(ic, PARAMS, (0.0, 6 * t_lin), t_lin / 4000)
        per = rd.detect_period(traj)
        assert per.period == pytest.approx(t_lin, rel=1e-4)

    def test_small_orbit_period_above(self):
        # asymmetric center: T -> pi / sqrt(N^2 - n_cr^2)
        n_level, ncr = 0.15, 0.1
        t_lin = np.pi / np.sqrt(n_level**2 - ncr**2)
        eq = bf.equilibria(n_level, ncr)[1]
        ic = rd.CartesianChart(A=np.sqrt(n_level - (eq.alpha + 1e-4)**2),
                               alpha=eq.alpha + 1e-4, beta=0.0)
        traj = rd.integrate(ic, PARAMS, (0.0, 6 * t_lin), t_lin / 4000)
        per = rd.detect_period(traj)
        assert per.period == pytest.approx(t_lin, rel=1e-4)

    def test_no_crossing_at_equilibrium(self):
        st = rd.CartesianChart(A=np.sqrt(0.05), alpha=0.0, beta=0.0)
        traj = rd.integrate(st, PARAMS, (0.0, 50.0), 0.05)
        with pytest.raises(NoCrossing):
            rd.detect_period(traj)

    def test_polar_section(self):
        # trapped orbit around (sqrt(n/2), 0) crosses dtheta = 0 upward
        ncr, n = 0.2, 0.05
        params = rd.ReducedParams.from_ncr(ncr, omega0=-1.0)
        eps1 = np.sqrt(n / 2) * 1.15
        r0 = np.sqrt(ncr + n - eps1**2)
        ic = rd.PolarChart(r0=r0, r1=eps1, dtheta=0.0)
        traj = rd.integrate(ic, params, (0.0, 300.0), 0.02, record_every=5)
        per = rd.detect_period(traj)
        assert np.isfinite(per.period) and per.period > 0


class TestLandPeriod:
    N_LEVEL, NCR = 0.15, 0.1

    def _start(self):
        eq = bf.equilibria(self.N_LEVEL, self.NCR)[1]
        al = 1.2 * eq.alpha
        return rd.CartesianChart(A=np.sqrt(self.N_LEVEL - al**2), alpha=al,
                                 beta=0.0)

    def test_matches_crossings(self):
        # the landing is the modes-chart midpoint's own period: linear
        # interpolation between every step's records agrees to O(dt^2)
        ic = rd.convert(self._start(), rd.MODES)
        dt = 0.01
        traj = rd.integrate(ic, PARAMS, (0.0, 80.0), dt)
        per = rd.detect_period(traj).period
        landed, steps = rd.land_period(ic, PARAMS, dt, 100.0)
        assert landed == pytest.approx(per, rel=1e-7)
        # one landing: the start is on the section with beta decreasing
        assert landed / dt < steps <= landed / dt + rd.LANDING_CHUNK + 50

    def test_start_off_the_section_lands_twice(self):
        ic = rd.convert(self._start(), rd.MODES)
        dt = 0.01
        landed, steps = rd.land_period(ic, PARAMS, dt, 100.0)
        off = rd.integrate(ic, PARAMS, (0.0, 3.0), dt).state(-1)
        assert rd.convert(off, rd.CARTESIAN).beta != 0.0
        again, steps_off = rd.land_period(off, PARAMS, dt, 100.0)
        # the partial steps are not steps of the map: each landing is
        # O(dt^3) off, 1.2e-9 relative here
        assert again == pytest.approx(landed, rel=1e-8)
        assert steps_off > steps

    def test_no_crossing_at_equilibrium(self):
        st = rd.CartesianChart(A=np.sqrt(0.05), alpha=0.0, beta=0.0)
        with pytest.raises(NoCrossing):
            rd.land_period(st, PARAMS, 0.05, 50.0)


class TestPhasePlaneDichotomy:
    def test_trapped_orbits_above(self):
        # n > 0: orbits launched near (sqrt(n/2), 0) stay trapped around it
        ncr, n = 0.2, 0.05
        params = rd.ReducedParams.from_ncr(ncr, omega0=-1.0)
        eps_star = np.sqrt(n / 2)
        for fac in (1.1, 1.25):
            eps1 = eps_star * fac
            ic = rd.PolarChart(r0=np.sqrt(ncr + n - eps1**2), r1=eps1,
                               dtheta=0.0)
            traj = rd.integrate(ic, params, (0.0, 400.0), 0.02,
                                record_every=10)
            eps_series = traj.states[:, 1]
            assert np.all(eps_series > 0.2 * eps_star)
            assert np.max(np.abs(traj.states[:, 2])) < np.pi / 2

    def test_amplitude_vanishes_below(self):
        # n < 0: max eps1 along the orbit shrinks with eps1(0)
        ncr, n = 0.2, -0.05
        params = rd.ReducedParams.from_ncr(ncr, omega0=-1.0)
        maxima = []
        for eps10 in (0.08, 0.04, 0.02, 0.01):
            ic = rd.PolarChart(r0=np.sqrt(ncr + n - eps10**2), r1=eps10,
                               dtheta=0.0)
            traj = rd.integrate(ic, params, (0.0, 500.0), 0.02,
                                record_every=10)
            maxima.append(float(np.max(traj.states[:, 1])))
        assert all(a > b for a, b in zip(maxima, maxima[1:]))
        assert maxima[-1] < 0.05
