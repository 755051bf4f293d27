import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg.lapack import zgtsv

from dwnls.errors import NonlinearIterationDiverged
from dwnls.grids import Grid, norm2
from dwnls import linear_spectrum as ls
from dwnls import pde


@pytest.fixture(scope="module")
def sech_grid():
    return Grid.symmetric(20.0 * np.pi, 4096)


def sech_soliton(grid):
    return np.sqrt(2.0) / np.cosh(grid.x) + 0.0j


def two_phase_step(stepper, u):
    """SplitStepper.step as it was when every step built both half-step
    phases itself: the reference for the step that reuses one."""
    half = stepper.v - (np.abs(u) ** 2 if stepper.nonlinear else 0.0)
    u = np.exp(-0.5j * stepper.dt * half) * u
    u = np.fft.ifft(stepper.kinetic_phase * np.fft.fft(u))
    half = stepper.v - (np.abs(u) ** 2 if stepper.nonlinear else 0.0)
    return np.exp(-0.5j * stepper.dt * half) * u


class NumpyFftStep:
    """SplitStepper.step as it ran on numpy.fft, out of place, with its own
    wavenumbers from np.fft.fftfreq: the reference for the step that runs
    in place on scipy's pocketfft.  Call it with the field; call cut() on
    a tail-filter cut, after which it builds a fresh opening phase."""

    def __init__(self, grid, v, dt, nonlinear):
        self.v, self.dt, self.nonlinear = np.asarray(v, float), dt, nonlinear
        k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)
        self.kinetic_phase = np.exp(-1j * dt * k * k)
        self.phase = None if nonlinear else np.exp(-0.5j * dt * self.v)
        self.last = None

    def half_phase(self, u):
        theta = -0.5 * self.dt * (self.v - np.abs(u) ** 2)
        phase = np.empty(theta.shape, dtype=complex)
        np.cos(theta, out=phase.real)
        np.sin(theta, out=phase.imag)
        return phase

    def cut(self):
        self.last = None

    def __call__(self, u):
        if not self.nonlinear or u is self.last:
            opening = self.phase
        else:
            opening = self.half_phase(u)
        f = np.fft.fft(opening * u)
        np.multiply(self.kinetic_phase, f, out=f)
        w = np.fft.ifft(f)
        if self.nonlinear:
            self.phase = self.half_phase(w)
        self.last = self.phase * w
        return self.last


def split_data(grid, amp, center, width, k0, depth):
    """A smooth moving bump and a smooth well on a small periodic grid."""
    x = grid.x
    u = amp * np.exp(-((x - center) / width) ** 2 + 1j * k0 * x)
    v = -depth * np.exp(-0.5 * x**2) + 0.3 * depth * np.cos(2.0 * np.pi
                                                            * x / grid.x_max)
    return u, v


class TestSplitStep:
    def test_standing_sech_soliton(self, sech_grid):
        # u = e^{it} sqrt(2) sech(x) solves the constant-potential equation
        u0 = sech_soliton(sech_grid)
        params = pde.EvolveParams(dt=1e-3, t_end=10.0, scheme="split_step",
                                  record_every=2000)
        final, diags = pde.evolve(u0, sech_grid, params,
                                  np.zeros(sech_grid.n_points))
        assert np.max(np.abs(np.abs(final) - np.abs(u0))) < 1e-3
        # phase advances at +1
        mid = sech_grid.n_points // 2
        assert np.angle(final[mid]) == pytest.approx(
            np.angle(np.exp(1j * 10.0)), abs=1e-2)

    def test_zero_data(self, sech_grid):
        u0 = np.zeros(sech_grid.n_points, dtype=complex)
        params = pde.EvolveParams(dt=1e-2, t_end=0.5, scheme="split_step")
        final, diags = pde.evolve(u0, sech_grid, params,
                                  np.zeros(sech_grid.n_points))
        assert np.all(final == 0.0)
        assert np.all(diags.mass == 0.0)

    def test_mass_conserved_to_rounding(self, sech_grid):
        u0 = sech_soliton(sech_grid) * np.exp(0.2j * sech_grid.x)
        params = pde.EvolveParams(dt=1e-3, t_end=2.0, scheme="split_step",
                                  record_every=500)
        _, diags = pde.evolve(u0, sech_grid, params,
                              np.zeros(sech_grid.n_points))
        assert np.max(np.abs(diags.mass - diags.mass[0])) < 1e-10

    def test_mass_conserved_across_the_seam(self):
        # a bump moving right at speed 6 crosses x_max into -x_max; the
        # periodic Strang step conserves dx sum |u|^2 over all nodes, which
        # N must report while mass sits on the edge nodes
        grid = Grid.symmetric(10.0, 256)
        u0, v = split_data(grid, 0.5, 6.0, 1.0, 3.0, 1.0)
        params = pde.EvolveParams(dt=1e-3, t_end=1.0, scheme="split_step",
                                  record_every=50)
        final, diags = pde.evolve(u0, grid, params, v)
        assert abs(final[0]) > 0.1
        drift = np.max(np.abs(diags.mass - diags.mass[0]))
        assert drift <= 1e-13 * diags.mass[0]

    def test_gauge_covariance(self, sech_grid):
        u0 = sech_soliton(sech_grid)
        params = pde.EvolveParams(dt=1e-3, t_end=1.0, scheme="split_step")
        f1, _ = pde.evolve(u0, sech_grid, params, np.zeros(sech_grid.n_points))
        phase = np.exp(0.7j)
        f2, _ = pde.evolve(phase * u0, sech_grid, params,
                           np.zeros(sech_grid.n_points))
        assert np.max(np.abs(f2 - phase * f1)) < 1e-10

    def test_linear_eigenmode_splitstep(self, gauss_sigma1_L3):
        sd = gauss_sigma1_L3
        u0 = sd.psi0.astype(complex)
        # nonlinearity disabled: modulus stationary up to O(dx^2)+O(dt^2)
        params = pde.EvolveParams(dt=1e-3, t_end=2.0, scheme="split_step",
                                  nonlinear=False)
        v = ls.potential_samples(sd.spec, sd.grid)
        final, _ = pde.evolve(u0, sd.grid, params, v)
        # FFT kinetic vs FD eigenvector: O(dx^2) modulus wobble
        assert np.max(np.abs(np.abs(final) - np.abs(u0))) < 5e-4

    @settings(max_examples=60, deadline=None)
    @given(amp=st.floats(0.1, 2.0), center=st.floats(-4.0, 4.0),
           width=st.floats(0.5, 3.0), k0=st.floats(-3.0, 3.0),
           depth=st.floats(0.0, 3.0), dt=st.floats(1e-3, 5e-2),
           cut_at=st.integers(1, 12), after=st.integers(1, 8),
           radius=st.floats(2.0, 9.0), nonlinear=st.booleans())
    @example(amp=1.0, center=4.0, width=0.5, k0=0.0, depth=0.0,
             dt=0.0078125, cut_at=2, after=1, radius=2.0, nonlinear=True)
    def test_reused_phase_matches_two_phase_step(
            self, amp, center, width, k0, depth, dt, cut_at, after, radius,
            nonlinear):
        # a march with a tail-filter cut at step cut_at: every step within
        # 1e-12 of the two-phase reference; the first step and the step
        # after the cut build their own opening phase, so they equal the
        # reference applied to the same field bit for bit (a phase kept
        # across the cut would differ in the last digits); without the
        # cubic term the phase is constant and every step is bit-identical.
        # The rounding the two marches differ by was made at the largest
        # field seen so far, so that is the scale of the bound: a cut can
        # leave a tail of 1e-7 of the field that carries it
        grid = Grid.symmetric(10.0, 256)
        u0, v = split_data(grid, amp, center, width, k0, depth)
        u0_before = u0.copy()
        keep = np.abs(grid.x) <= radius
        stepper = pde.SplitStepper(grid, v, dt, nonlinear)
        u, ref = u0, u0
        scale = 0.0
        for k in range(1, cut_at + after + 1):
            u_in = u
            u = stepper.step(u)
            if k in (1, cut_at + 1):
                assert np.array_equal(u, two_phase_step(stepper, u_in))
            ref = two_phase_step(stepper, ref)
            if not nonlinear:
                assert np.array_equal(u, ref)
            scale = max(scale, np.max(np.abs(ref)))
            assert np.max(np.abs(u - ref)) <= 1e-12 * scale
            if k == cut_at:
                u, removed = stepper.cut(u, keep)
                ref, removed_ref = pde.cut_on_grid(grid, ref, keep)
                assert abs(removed - removed_ref) <= 1e-12 * amp**2
        assert np.array_equal(u0, u0_before)

    @pytest.mark.parametrize("scale", [1.0, 40.0])
    @settings(max_examples=30, deadline=None)
    @given(amp=st.floats(1e-3, 5e-2), depth=st.floats(1e-3, 5e-2),
           dt=st.floats(1e-3, 5e-2))
    def test_half_phase_is_complex_exp_bit_for_bit(self, scale, amp, depth,
                                                   dt):
        # at the 4096 points evolve runs, so that the vectorised loops of
        # cos and sin reach their tails as they do there; at scale 1 every
        # angle is below 2e-3, where cos and sin take their small-angle
        # paths, and scaling depth and dt by 40 takes |theta| up to 1.4
        grid = Grid.symmetric(10.0 * np.pi, 4096)
        depth, dt = scale * depth, scale * dt
        u, v = split_data(grid, amp, 1.0, 1.5, 0.7, depth)
        phase = pde.SplitStepper(grid, v, dt)._half_phase(u)
        assert np.array_equal(phase,
                              np.exp(-0.5j * dt * (v - np.abs(u) ** 2)))

    @pytest.mark.parametrize("nonlinear", [True, False],
                             ids=["nonlinear", "linear"])
    def test_step_is_numpy_fft_step_bit_for_bit(self, nonlinear):
        # 300 steps at the 4,096 points evolve runs, with a tail-filter cut
        # after step 150: every step, and the mass the cut removes, equal
        # the out-of-place numpy.fft step's bits
        grid = Grid.symmetric(40.0, 4096)
        u, v = split_data(grid, 1.5, 2.0, 1.5, 0.7, 2.0)
        keep = np.abs(grid.x) <= 6.0
        dt = 5e-3
        stepper = pde.SplitStepper(grid, v, dt, nonlinear)
        ref_step = NumpyFftStep(grid, v, dt, nonlinear)
        ref = u
        for k in range(1, 301):
            u, ref = stepper.step(u), ref_step(ref)
            assert np.array_equal(u, ref), k
            if k == 150:
                u, removed = stepper.cut(u, keep)
                ref, removed_ref = pde.cut_on_grid(grid, ref, keep)
                ref_step.cut()
                assert removed > 0.0 and removed == removed_ref
                assert np.array_equal(u, ref)

    @settings(max_examples=100, deadline=None)
    @given(x_max=st.floats(0.5, 500.0), k=st.integers(2, 14))
    def test_wavenumbers_are_fftfreq_bit_for_bit(self, x_max, k):
        grid = Grid.symmetric(x_max, 2**k)
        assert np.array_equal(
            pde.wavenumbers(grid),
            2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx))

    def test_phase_reused_only_for_the_returned_array(self):
        # a field that is not the array the last step returned (a copy, or
        # one the caller changed) steps exactly as with a fresh stepper
        grid = Grid.symmetric(10.0, 256)
        u0, v = split_data(grid, 1.5, 1.0, 1.2, 0.7, 2.0)
        dt = 2e-2

        def stepper():
            return pde.SplitStepper(grid, v, dt)

        for change in (np.copy, lambda f: 1.5 * f,
                       lambda f: np.where(grid.x < 0, f, 0.0)):
            s = stepper()
            last = s.step(s.step(u0))
            with pytest.raises(ValueError):
                last[0] = 0.0             # it can only change as a new array
            field = change(last)
            assert np.array_equal(s.step(field), stepper().step(field))


class TestCrankNicolson:
    def test_mass_conservation_1e4_steps(self, delta_s1_L10):
        sd = delta_s1_L10
        u0 = (0.4 * sd.psi0 + 0.25 * sd.psi1).astype(complex)
        params = pde.EvolveParams(dt=1e-3, t_end=10.0, scheme="crank_nicolson",
                                  record_every=2500)
        _, diags = pde.evolve(u0, sd.grid, params, _v(sd))
        rel = np.max(np.abs(diags.mass - diags.mass[0])) / diags.mass[0]
        assert rel <= 1e-8

    def test_linear_eigenmode_phase(self, delta_s1_L10):
        sd = delta_s1_L10
        u0 = sd.psi0.astype(complex)
        params = pde.EvolveParams(dt=1e-3, t_end=3.0, scheme="crank_nicolson",
                                  nonlinear=False, record_every=10**9)
        final, _ = pde.evolve(u0, sd.grid, params, _v(sd))
        # discrete eigenvector: modulus stationary to roundoff, phase at
        # the discrete eigenvalue up to the CN O(dt^2) bias
        assert np.max(np.abs(np.abs(final) - np.abs(u0))) < 1e-12
        ref = np.exp(-1j * sd.omega0 * 3.0) * u0
        assert np.max(np.abs(final - ref)) < 1e-6

    def test_refinement_ratio(self):
        # halving dx and dt divides the deviation from the transcendental
        # eigenmode evolution by ~4
        ke, _ = ls.solve_double_delta_levels(1.0, 10.0)
        spec = ls.PotentialSpec("delta", 1.0, 10.0)
        errs = []
        for n, dt in ((2048, 2e-3), (4096, 1e-3)):
            grid = Grid.symmetric(40.0, n)
            sd = ls.spectral_data(spec, grid)
            u0 = sd.psi0.astype(complex)
            params = pde.EvolveParams(dt=dt, t_end=5.0,
                                      scheme="crank_nicolson",
                                      nonlinear=False, record_every=10**9)
            final, _ = pde.evolve(u0, grid, params,
                                  ls.potential_samples(spec, grid))
            ref = np.exp(1j * ke * ke * 5.0) * u0
            errs.append(norm2(final - ref, grid))
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_parity_preservation(self, delta_s1_L10):
        sd = delta_s1_L10
        u0 = sd.psi0.astype(complex) * 0.5
        params = pde.EvolveParams(dt=1e-3, t_end=2.0, scheme="crank_nicolson")
        final, _ = pde.evolve(u0, sd.grid, params, _v(sd))
        assert np.max(np.abs(final - ls.reflect(final))) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(amp=st.floats(0.05, 1.0), mix=st.floats(0.0, np.pi / 2),
           phase0=st.floats(-np.pi, np.pi), phase1=st.floats(-np.pi, np.pi),
           dt=st.floats(1e-4, 5e-3))
    def test_step_solves_relaxation_equation_and_conserves_mass(
            self, shadow_well, amp, mix, phase0, phase1, dt):
        # each of two steps u -> z must satisfy Besse's relaxation equation
        #   (I + (i dt/2)(H - Phi)) z = (I - (i dt/2)(H - Phi)) u
        # on the unpinned rows to rounding, with Phi^{1/2} = |u^0|^2 and
        # Phi^{3/2} = 2|u^1|^2 - Phi^{1/2}, and keep the free-node mass to
        # 1e-14 relative
        sd = shadow_well
        u = _two_mode(sd, amp, mix, phase0, phase1)
        stepper = pde.CrankNicolsonStepper(sd.grid, _v(sd), dt)
        m0 = pde.mass(u, sd.grid)
        phi = np.abs(u) ** 2
        for _ in range(2):
            z = stepper.step(u)
            assert z[0] == 0.0
            res = _relaxation_residual(sd, dt, phi, u, z)
            assert np.max(np.abs(res[1:])) <= 1e-14 * _op_norm(sd, dt) * amp
            assert abs(pde.mass(z, sd.grid) - m0) <= 1e-14 * m0
            phi = 2.0 * np.abs(z) ** 2 - phi
            u = z

    def test_mass_and_modified_energy_over_many_steps(self, shadow_well):
        # over 2,000 steps of shadowing data the free-node mass and the
        # modified energy Q(u^n) - 1/2 dx sum Phi^{n+1/2} Phi^{n-1/2} hold
        # to rounding (per step the mass holds to 1e-14, see above; the
        # rounding adds up); H itself only stays O(dt^2)-close
        sd = shadow_well
        grid, dx = sd.grid, sd.grid.dx
        u = _two_mode(sd, 0.3, 0.6, 0.0, 1.5)
        stepper = pde.CrankNicolsonStepper(grid, _v(sd), 4e-3)
        h = ls.pinned_hamiltonian(sd.spec, grid)

        def quadratic_form(f):
            return dx * float(np.vdot(f, h.apply(f)).real)

        phi_prev = np.abs(u) ** 2                 # Phi^{-1/2}
        masses, energies, hs = [], [], []
        for _ in range(2000):
            phi_next = 2.0 * np.abs(u) ** 2 - phi_prev
            masses.append(pde.mass(u, grid))
            energies.append(quadratic_form(u)
                            - 0.5 * dx * float(np.sum(phi_next * phi_prev)))
            hs.append(pde.hamiltonian(u, grid, _v(sd)))
            u = stepper.step(u)
            phi_prev = phi_next
        masses, energies, hs = map(np.array, (masses, energies, hs))
        assert energies[0] == pytest.approx(hs[0], abs=1e-14)
        assert np.max(np.abs(masses - masses[0])) <= 1e-13 * masses[0]
        e_drift = np.max(np.abs(energies - energies[0]))
        assert e_drift <= 1e-13 * abs(energies[0])
        assert np.max(np.abs(hs - hs[0])) > 1e3 * e_drift

    def test_phi_is_cut_with_the_field(self, shadow_well):
        # a tail-filter cut zeroes u and Phi^{n-1/2} outside the filter and
        # the recursion runs on: the step after the cut solves the
        # relaxation equation with Phi = 2|u_cut|^2 - Phi_cut, and the mass
        # removed is the free-node mass of what was cut away
        sd = shadow_well
        grid, dt = sd.grid, 4e-3
        bump = np.exp(-((grid.x - 12.0) ** 2)).astype(complex)
        u = _two_mode(sd, 0.3, 0.6, 0.0, 1.5) + 0.1 * bump
        u[0] = 0.0
        stepper = pde.CrankNicolsonStepper(grid, _v(sd), dt)
        phi_prev = np.abs(u) ** 2
        for _ in range(5):
            phi_prev = 2.0 * np.abs(u) ** 2 - phi_prev
            u = stepper.step(u)
        keep = np.abs(grid.x) <= 10.0
        u_cut, removed = stepper.cut(u, keep)
        assert np.array_equal(u_cut, np.where(keep, u, 0.0))
        gone = np.where(keep, 0.0, u)
        assert removed == pytest.approx(pde.mass(gone, grid), rel=1e-14)
        assert removed > 1e-4
        phi = 2.0 * np.abs(u_cut) ** 2 - np.where(keep, phi_prev, 0.0)
        z = stepper.step(u_cut)
        res = _relaxation_residual(sd, dt, phi, u_cut, z)
        assert np.max(np.abs(res[1:])) <= 1e-14 * _op_norm(sd, dt)

    def test_step_makes_one_zgtsv_call(self, shadow_well, monkeypatch):
        # a work count, not a time: every step, with or without the cubic
        # term, is one solve through the module's zgtsv, the name the
        # benchmark's tracer wraps to count and time the CN solves
        sd = shadow_well
        solves = [0]
        zgtsv = pde.zgtsv

        def counted(*args, **kwargs):
            solves[0] += 1
            return zgtsv(*args, **kwargs)

        monkeypatch.setattr(pde, "zgtsv", counted)
        u = _two_mode(sd, 0.3, 0.6, 0.0, 1.5)
        for nonlinear in (True, False):
            stepper = pde.CrankNicolsonStepper(sd.grid, _v(sd), 4e-3, nonlinear)
            solves[0] = 0
            for _ in range(50):
                u = stepper.step(u)
            assert solves[0] == 50

    def test_in_place_step_matches_the_formula(self, shadow_well):
        # the step solves in place in a copy of u and forms 2y - u there;
        # bit for bit the same as solving into a new array and forming
        # 2y - u in a third, over 50 steps of random data
        sd = shadow_well
        rng = np.random.default_rng(11)
        n = sd.grid.n_points
        u = 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        stepper = pde.CrankNicolsonStepper(sd.grid, _v(sd), 4e-3)
        phi_prev = None
        for _ in range(50):
            free = u[1:]
            phi = free.real * free.real + free.imag * free.imag
            if phi_prev is not None:
                phi *= 2.0
                phi -= phi_prev
            phi_prev = phi
            diag = stepper._diag - stepper._c * phi
            *_, y, info = zgtsv(stepper._off, diag, stepper._off, free)
            want = np.empty(n, complex)
            want[0] = 0.0
            np.multiply(y, 2.0, out=want[1:])
            want[1:] -= free
            got = stepper.step(u)
            assert info == 0
            assert got[0] == 0.0
            assert np.array_equal(got, want)
            u = got

    def test_iteration_divergence_guard(self, delta_s1_L10, monkeypatch):
        # a failed solve (LAPACK info != 0) raises with the info in its
        # message, and march records the step it failed in
        sd = delta_s1_L10
        zgtsv = pde.zgtsv
        calls = [0]

        def failing(*args, **kwargs):
            calls[0] += 1
            *out, info = zgtsv(*args, **kwargs)
            return (*out, 7 if calls[0] == 3 else info)

        monkeypatch.setattr(pde, "zgtsv", failing)
        u0 = 0.5 * sd.psi0.astype(complex)
        stepper = pde.CrankNicolsonStepper(sd.grid, _v(sd), 1e-3)
        with pytest.raises(NonlinearIterationDiverged, match="zgtsv info 7") as exc:
            pde.march(u0, stepper, 5, 1, lambda k, u, removed: None)
        assert exc.value.step == 3


def _v(sd):
    return ls.potential_samples(sd.spec, sd.grid)


def _two_mode(sd, amp, mix, phase0, phase1):
    """amp (cos(mix) e^{i phase0} psi0 + sin(mix) e^{i phase1} psi1), zero
    at the pinned node."""
    u = amp * (np.cos(mix) * np.exp(1j * phase0) * sd.psi0
               + np.sin(mix) * np.exp(1j * phase1) * sd.psi1)
    u[0] = 0.0
    return u


def _relaxation_residual(sd, dt, phi, u, z):
    """(I + (i dt/2)(H - phi)) z - (I - (i dt/2)(H - phi)) u."""
    c = 0.5j * dt
    hp = ls.pinned_hamiltonian(sd.spec, sd.grid)

    def h(f):
        return hp.apply(f) - phi * f

    return (z + c * h(z)) - (u - c * h(u))


def _op_norm(sd, dt):
    """A bound on the max-norm of I + (i dt/2)(H - phi) for |phi| <= 1."""
    return 1.0 + 0.5 * dt * (4.0 / sd.grid.dx**2
                             + float(np.max(np.abs(_v(sd)))) + 1.0)


class TestHamiltonian:
    def test_zero_field(self, sech_grid):
        u = np.zeros(sech_grid.n_points, complex)
        v = np.zeros(sech_grid.n_points)
        assert pde.hamiltonian(u, sech_grid, v) == 0.0

    def test_sech_value_vs_quadrature(self, sech_grid):
        # H[sqrt(2) sech] = int(2 sech^2 tanh^2 - 2 sech^4) dx, the
        # conserved functional with |u|^4/2, which is -4/3
        oracle = quad(lambda x: 2 * np.cosh(x) ** -2 * np.tanh(x) ** 2
                      - 2 * np.cosh(x) ** -4, -50, 50)[0]
        assert oracle == pytest.approx(-4.0 / 3.0, abs=1e-10)
        u, v = sech_soliton(sech_grid), np.zeros(sech_grid.n_points)
        # the finite-difference kinetic energy carries O(dx^2) error, the
        # spectral one is exact to rounding for this resolved profile
        assert pde.hamiltonian(u, sech_grid, v) == pytest.approx(
            oracle, abs=5.0 * sech_grid.dx**2)
        assert pde.hamiltonian(u, sech_grid, v, "split_step") == pytest.approx(
            oracle, abs=1e-12)

    def test_delta_contribution(self, delta_s1_L10):
        sd = delta_s1_L10
        u = sd.psi0.astype(complex)
        h = pde.hamiltonian(u, sd.grid, _v(sd))
        i_left = sd.grid.node_index(-5.0)
        i_right = sd.grid.node_index(5.0)
        h_free = pde.hamiltonian(u, sd.grid, np.zeros(sd.grid.n_points))
        expected = h_free - 1.0 * (abs(u[i_left]) ** 2 + abs(u[i_right]) ** 2)
        assert h == pytest.approx(expected, rel=1e-12)

    def test_conserved_energy_drift_second_order_splitstep(self, sech_grid):
        # the conserved functional carries |u|^4/2; its split-step drift is
        # O(dt^2), so halving dt divides the drift by ~4
        x = sech_grid.x
        u0 = (np.sqrt(2.0) / np.cosh(x) * np.exp(0.3j * x)).astype(complex)
        def conserved(u):
            du = np.gradient(u, sech_grid.dx)
            return sech_grid.dx * float(np.sum(np.abs(du) ** 2
                                               - 0.5 * np.abs(u) ** 4))

        drifts = []
        for dt in (2e-3, 1e-3):
            params = pde.EvolveParams(dt=dt, t_end=1.0, scheme="split_step")
            final, _ = pde.evolve(u0, sech_grid, params,
                                  np.zeros(sech_grid.n_points))
            drifts.append(abs(conserved(final) - conserved(u0)))
        assert 3.0 < drifts[0] / drifts[1] < 5.0

    @pytest.mark.parametrize("scheme,well", [
        ("crank_nicolson", "delta_s1_L10"), ("split_step", "gauss_sigma1_L3")],
        ids=["crank_nicolson", "split_step"])
    def test_reported_energy_drift(self, scheme, well, request):
        # the H column is each scheme's own energy: Crank-Nicolson keeps
        # it within O(dt^2) of the modified energy it conserves (1.6e-11
        # here), the Strang step to O(dt^2) (1e-10 here)
        sd = request.getfixturevalue(well)
        u0 = (0.6 * sd.psi0 + 0.3 * sd.psi1).astype(complex)
        params = pde.EvolveParams(dt=1e-3, t_end=2.0, scheme=scheme,
                                  record_every=250)
        _, diags = pde.evolve(u0, sd.grid, params, _v(sd))
        drift = float(np.max(np.abs(diags.hamiltonian - diags.hamiltonian[0])))
        assert drift <= 1e-8

    def test_discrete_energy_conserved_cn(self, delta_s1_L10):
        # the relaxation step keeps the scheme-consistent discrete energy
        # within O(dt^2) of the modified energy it conserves
        sd = delta_s1_L10
        h = ls.pinned_hamiltonian(sd.spec, sd.grid)
        dx = sd.grid.dx

        def discrete_energy(u):
            hu = h.apply(u)
            quad_part = float(np.real(np.vdot(u, hu))) * dx
            return quad_part - 0.5 * float(np.sum(np.abs(u) ** 4)) * dx

        u0 = (0.4 * sd.psi0 + 0.25 * sd.psi1).astype(complex)
        params = pde.EvolveParams(dt=1e-3, t_end=2.0, scheme="crank_nicolson")
        final, _ = pde.evolve(u0, sd.grid, params, _v(sd))
        assert abs(discrete_energy(final) - discrete_energy(u0)) < 1e-8


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
            final, _ = pde.evolve(u0, grid, params,
                                  ls.potential_samples(spec, grid))
            sols[n] = final
        e1 = np.max(np.abs(sols[2048][::2] - sols[1024]))
        e2 = np.max(np.abs(sols[4096][::2] - sols[2048]))
        order = np.log2(e1 / e2)
        assert order >= 1.8


class TestTailFilter:
    @pytest.mark.parametrize("scheme,well", [
        ("crank_nicolson", "delta_s1_L10"), ("split_step", "gauss_sigma1_L3")],
        ids=["crank_nicolson", "split_step"])
    def test_filter_bookkeeping(self, scheme, well, request):
        sd = request.getfixturevalue(well)
        # seed mass outside the cutoff so the filter has something to remove
        bump = np.exp(-((sd.grid.x - 33.0) ** 2)).astype(complex)
        u0 = 0.3 * sd.psi0.astype(complex) + 0.1 * bump
        filt = pde.TailFilter(trigger_steps=100, cutoff_radius=30.0)
        params = pde.EvolveParams(dt=1e-3, t_end=0.5, scheme=scheme,
                                  tail_filter=filt, record_every=100)
        _, diags = pde.evolve(u0, sd.grid, params, _v(sd))
        assert diags.removed_mass[-1] > 1e-4
        # mass accounting: remaining + removed = initial
        total = diags.mass[-1] + diags.removed_mass[-1]
        assert total == pytest.approx(diags.mass[0], rel=1e-8)


class TestDiagnostics:
    def test_center_of_mass_odd_state(self, delta_s1_L10):
        sd = delta_s1_L10
        right = sd.psi0 + sd.psi1
        assert pde.center_of_mass(right.astype(complex), sd.grid) > 1.0
        u = sd.psi0.astype(complex)
        assert abs(pde.center_of_mass(u, sd.grid)) < 1e-10

    def test_snapshot_csv(self, delta_s1_L10):
        sd = delta_s1_L10
        u = sd.psi0.astype(complex)
        lines = pde.snapshot_csv(u, sd.grid).strip().split("\n")
        assert lines[0] == "x,re_u,im_u,abs_u"
        assert len(lines) == sd.grid.n_points + 1
