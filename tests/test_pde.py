import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from dwnls.errors import NonlinearIterationDiverged
from dwnls.grids import Grid
from dwnls import linear_spectrum as ls
from dwnls import pde


@pytest.fixture(scope="module")
def sech_grid():
    return Grid.symmetric(20.0 * np.pi, 4096)


def sech_soliton(grid):
    return np.sqrt(2.0) / np.cosh(grid.x) + 0.0j


class TestSplitStep:
    def test_standing_sech_soliton(self, sech_grid):
        # u = e^{it} sqrt(2) sech(x) solves the constant-potential equation
        u0 = sech_soliton(sech_grid)
        params = pde.EvolveParams(dt=1e-3, t_end=10.0, scheme="split_step",
                                  record_every=2000)
        final, diags = pde.evolve(pde.FieldState(sech_grid, u0), params,
                                  np.zeros(sech_grid.n_points))
        assert np.max(np.abs(np.abs(final.values) - np.abs(u0))) < 1e-3
        # phase advances at +1
        mid = sech_grid.n_points // 2
        assert np.angle(final.values[mid]) == pytest.approx(
            np.angle(np.exp(1j * 10.0)), abs=1e-2)

    def test_zero_data(self, sech_grid):
        u0 = np.zeros(sech_grid.n_points, dtype=complex)
        params = pde.EvolveParams(dt=1e-2, t_end=0.5, scheme="split_step")
        final, diags = pde.evolve(pde.FieldState(sech_grid, u0), params, None)
        assert np.all(final.values == 0.0)
        assert np.all(diags.mass == 0.0)

    def test_mass_conserved_to_rounding(self, sech_grid):
        u0 = sech_soliton(sech_grid) * np.exp(0.2j * sech_grid.x)
        params = pde.EvolveParams(dt=1e-3, t_end=2.0, scheme="split_step",
                                  record_every=500)
        _, diags = pde.evolve(pde.FieldState(sech_grid, u0), params,
                              np.zeros(sech_grid.n_points))
        assert np.max(np.abs(diags.mass - diags.mass[0])) < 1e-10

    def test_gauge_covariance(self, sech_grid):
        u0 = sech_soliton(sech_grid)
        params = pde.EvolveParams(dt=1e-3, t_end=1.0, scheme="split_step")
        f1, _ = pde.evolve(pde.FieldState(sech_grid, u0), params, None)
        phase = np.exp(0.7j)
        f2, _ = pde.evolve(pde.FieldState(sech_grid, phase * u0), params, None)
        assert np.max(np.abs(f2.values - phase * f1.values)) < 1e-10

    def test_linear_eigenmode_splitstep(self, gauss_sigma1_L3):
        sd = gauss_sigma1_L3
        u0 = sd.psi0.eigenfunction.astype(complex)
        # nonlinearity disabled: modulus stationary up to O(dx^2)+O(dt^2)
        params = pde.EvolveParams(dt=1e-3, t_end=2.0, scheme="split_step",
                                  nonlinear=False)
        v = ls.build_potential(sd.spec, sd.grid)
        final, _ = pde.evolve(pde.FieldState(sd.grid, u0), params, v)
        # FFT kinetic vs FD eigenvector: O(dx^2) modulus wobble
        assert np.max(np.abs(np.abs(final.values) - np.abs(u0))) < 5e-4


class TestCrankNicolson:
    def test_mass_conservation_1e4_steps(self, delta_s1_L10):
        sd = delta_s1_L10
        u0 = (0.4 * sd.psi0.eigenfunction
              + 0.25 * sd.psi1.eigenfunction).astype(complex)
        params = pde.EvolveParams(dt=1e-3, t_end=10.0, scheme="crank_nicolson",
                                  record_every=2500)
        _, diags = pde.evolve(pde.FieldState(sd.grid, u0), params, sd.spec)
        rel = np.max(np.abs(diags.mass - diags.mass[0])) / diags.mass[0]
        assert rel <= 1e-8

    def test_linear_eigenmode_phase(self, delta_s1_L10):
        sd = delta_s1_L10
        u0 = sd.psi0.eigenfunction.astype(complex)
        params = pde.EvolveParams(dt=1e-3, t_end=3.0, scheme="crank_nicolson",
                                  nonlinear=False, record_every=10**9)
        final, _ = pde.evolve(pde.FieldState(sd.grid, u0), params, sd.spec)
        # discrete eigenvector: modulus stationary to roundoff, phase at
        # the discrete eigenvalue up to the CN O(dt^2) bias
        assert np.max(np.abs(np.abs(final.values) - np.abs(u0))) < 1e-12
        ref = np.exp(-1j * sd.omega0 * 3.0) * u0
        assert np.max(np.abs(final.values - ref)) < 1e-6

    def test_refinement_ratio(self):
        # halving dx and dt divides the deviation from the transcendental
        # eigenmode evolution by ~4
        ke, _ = ls.solve_double_delta_levels(1.0, 10.0)
        spec = ls.PotentialSpec("delta", 1.0, 10.0)
        errs = []
        for n, dt in ((2048, 2e-3), (4096, 1e-3)):
            grid = Grid.symmetric(40.0, n)
            sd = ls.spectral_data(spec, grid)
            u0 = sd.psi0.eigenfunction.astype(complex)
            params = pde.EvolveParams(dt=dt, t_end=5.0,
                                      scheme="crank_nicolson",
                                      nonlinear=False, record_every=10**9)
            final, _ = pde.evolve(pde.FieldState(grid, u0), params, spec)
            ref = np.exp(1j * ke * ke * 5.0) * u0
            w = grid.quad_weights()
            errs.append(np.sqrt(np.sum(w * np.abs(final.values - ref) ** 2)))
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_parity_preservation(self, delta_s1_L10):
        sd = delta_s1_L10
        u0 = sd.psi0.eigenfunction.astype(complex) * 0.5
        params = pde.EvolveParams(dt=1e-3, t_end=2.0, scheme="crank_nicolson")
        final, _ = pde.evolve(pde.FieldState(sd.grid, u0), params, sd.spec)
        assert np.max(np.abs(final.values - ls.reflect(final.values))) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(amp=st.floats(0.05, 1.0), mix=st.floats(0.0, np.pi / 2),
           phase0=st.floats(-np.pi, np.pi), phase1=st.floats(-np.pi, np.pi),
           dt=st.floats(1e-4, 5e-3))
    def test_step_solves_dfp_equation_and_conserves_mass(
            self, shadow_well, amp, mix, phase0, phase1, dt):
        # one step z = CN(u) must satisfy the Delfour-Fortin-Payre equation
        #   (I + (i dt/2)(H0 - rho)) z = (I - (i dt/2)(H0 - rho)) u,
        #   rho = (|z|^2 + |u|^2)/2,
        # on the unpinned rows, to the level the fixed-point tolerance
        # allows, and keep the discrete mass
        sd = shadow_well
        u = amp * (np.cos(mix) * np.exp(1j * phase0) * sd.psi0.eigenfunction
                   + np.sin(mix) * np.exp(1j * phase1) * sd.psi1.eigenfunction)
        u[0] = 0.0                        # the pinned node
        v = ls.potential_samples(sd.spec, sd.grid)
        stepper = pde.CrankNicolsonStepper(sd.grid, v, dt)
        z = stepper.step(u)
        assert z[0] == 0.0

        def h(f):
            return ls.apply_hamiltonian(sd.spec, sd.grid, f)

        rho = 0.5 * (np.abs(z) ** 2 + np.abs(u) ** 2)
        c = 0.5j * dt
        res = (z + c * (h(z) - rho * z)) - (u - c * (h(u) - rho * u))
        # the sweep stops within tol of the fixed point; the operator
        # magnifies that by at most 1 + dt/2 (4/dx^2 + max|V| + max rho)
        op_norm = 1.0 + 0.5 * dt * (4.0 / sd.grid.dx**2 + np.max(np.abs(v))
                                    + np.max(rho))
        assert np.max(np.abs(res[1:])) <= 10.0 * stepper.tol * op_norm
        m0 = np.sum(np.abs(u) ** 2)
        assert abs(np.sum(np.abs(z) ** 2) - m0) <= 1e-12 * m0

    def test_iteration_divergence_guard(self, delta_s1_L10):
        sd = delta_s1_L10
        u0 = 100.0 * sd.psi0.eigenfunction.astype(complex)
        stepper = pde.CrankNicolsonStepper(
            sd.grid, ls.potential_samples(sd.spec, sd.grid), dt=0.5,
            max_sweeps=3)
        with pytest.raises(NonlinearIterationDiverged):
            stepper.step(u0)


class TestHamiltonian:
    def test_zero_field(self, sech_grid):
        st = pde.FieldState(sech_grid, np.zeros(sech_grid.n_points, complex))
        assert pde.hamiltonian(st, None) == 0.0

    def test_sech_value_vs_quadrature(self, sech_grid):
        # H[sqrt(2) sech] = int(2 sech^2 tanh^2 - sech^4) dx, which the
        # adaptive quadrature oracle evaluates as zero
        oracle = quad(lambda x: 2 * np.cosh(x) ** -2 * np.tanh(x) ** 2
                      - np.cosh(x) ** -4, -50, 50)[0]
        assert oracle == pytest.approx(0.0, abs=1e-10)
        st = pde.FieldState(sech_grid, sech_soliton(sech_grid))
        # centered-difference gradient quadrature carries O(dx^2) error
        assert pde.hamiltonian(st, None) == pytest.approx(
            oracle, abs=5.0 * sech_grid.dx**2)

    def test_delta_contribution(self, delta_s1_L10):
        sd = delta_s1_L10
        u = sd.psi0.eigenfunction.astype(complex)
        h = pde.hamiltonian(pde.FieldState(sd.grid, u), sd.spec)
        i_left = sd.grid.node_index(-5.0)
        i_right = sd.grid.node_index(5.0)
        h_free = pde.hamiltonian(pde.FieldState(sd.grid, u), None)
        expected = h_free - 1.0 * (abs(u[i_left]) ** 2 + abs(u[i_right]) ** 2)
        assert h == pytest.approx(expected, rel=1e-12)

    def test_conserved_energy_drift_second_order_splitstep(self, sech_grid):
        # the conserved functional carries |u|^4/2; its split-step drift is
        # O(dt^2), so halving dt divides the drift by ~4
        x = sech_grid.x
        u0 = (np.sqrt(2.0) / np.cosh(x) * np.exp(0.3j * x)).astype(complex)
        w = sech_grid.quad_weights()

        def conserved(u):
            du = np.gradient(u, sech_grid.dx)
            return float(np.sum(w * (np.abs(du) ** 2 - 0.5 * np.abs(u) ** 4)))

        drifts = []
        for dt in (2e-3, 1e-3):
            params = pde.EvolveParams(dt=dt, t_end=1.0, scheme="split_step")
            final, _ = pde.evolve(pde.FieldState(sech_grid, u0), params,
                                  np.zeros(sech_grid.n_points))
            drifts.append(abs(conserved(final.values) - conserved(u0)))
        assert 3.0 < drifts[0] / drifts[1] < 5.0

    def test_discrete_energy_conserved_cn(self, delta_s1_L10):
        # the CN closure conserves the scheme-consistent discrete energy
        sd = delta_s1_L10
        d, e = ls.hamiltonian_tridiagonal(sd.spec, sd.grid)
        dx = sd.grid.dx

        def discrete_energy(u):
            hu = ls.apply_hamiltonian(sd.spec, sd.grid, u)
            quad_part = float(np.real(np.vdot(u, hu))) * dx
            return quad_part - 0.5 * float(np.sum(np.abs(u) ** 4)) * dx

        u0 = (0.4 * sd.psi0.eigenfunction
              + 0.25 * sd.psi1.eigenfunction).astype(complex)
        params = pde.EvolveParams(dt=1e-3, t_end=2.0, scheme="crank_nicolson")
        final, _ = pde.evolve(pde.FieldState(sd.grid, u0), params, sd.spec)
        assert abs(discrete_energy(final.values) - discrete_energy(u0)) < 1e-8


class TestGridConvergence:
    def test_smooth_solution_second_order(self, gauss_sigma1_L3):
        # three-grid Richardson on a smooth nonlinear run at t = 1
        spec = ls.PotentialSpec("gauss", 1.0, 3.0)
        sols = {}
        for n in (1024, 2048, 4096):
            grid = Grid.symmetric(40.0, n)
            u0 = (0.6 * np.exp(-((grid.x - 3.0) ** 2))).astype(complex)
            params = pde.EvolveParams(dt=2.5e-4, t_end=1.0,
                                      scheme="crank_nicolson")
            final, _ = pde.evolve(pde.FieldState(grid, u0), params,
                                  ls.build_potential(spec, grid))
            sols[n] = final.values
        e1 = np.max(np.abs(sols[2048][::2] - sols[1024]))
        e2 = np.max(np.abs(sols[4096][::2] - sols[2048]))
        order = np.log2(e1 / e2)
        assert order >= 1.8


class TestTailFilter:
    def test_filter_bookkeeping(self, delta_s1_L10):
        sd = delta_s1_L10
        # seed mass outside the cutoff so the filter has something to remove
        bump = np.exp(-((sd.grid.x - 33.0) ** 2)).astype(complex)
        u0 = 0.3 * sd.psi0.eigenfunction.astype(complex) + 0.1 * bump
        filt = pde.TailFilter(trigger_steps=100, cutoff_radius=30.0)
        params = pde.EvolveParams(dt=1e-3, t_end=0.5, scheme="crank_nicolson",
                                  tail_filter=filt, record_every=100)
        _, diags = pde.evolve(pde.FieldState(sd.grid, u0), params, sd.spec)
        assert diags.removed_mass[-1] > 1e-4
        # mass accounting: remaining + removed = initial
        total = diags.mass[-1] + diags.removed_mass[-1]
        assert total == pytest.approx(diags.mass[0], rel=1e-8)


class TestDiagnostics:
    def test_center_of_mass_odd_state(self, delta_s1_L10):
        sd = delta_s1_L10
        right = sd.psi0.eigenfunction + sd.psi1.eigenfunction
        st = pde.FieldState(sd.grid, right.astype(complex))
        assert pde.center_of_mass(st) > 1.0
        st2 = pde.FieldState(sd.grid, sd.psi0.eigenfunction.astype(complex))
        assert abs(pde.center_of_mass(st2)) < 1e-10

    def test_snapshot_csv(self, delta_s1_L10):
        sd = delta_s1_L10
        st = pde.FieldState(sd.grid, sd.psi0.eigenfunction.astype(complex))
        lines = pde.snapshot_csv(st).strip().split("\n")
        assert lines[0] == "x,re_u,im_u,abs_u"
        assert len(lines) == sd.grid.n_points + 1
