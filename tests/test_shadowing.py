import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.linalg.lapack import zgttrf, zgttrs
from hypothesis import assume, given, settings, strategies as st

from dwnls.errors import (
    ChartBreakdown,
    DomainTooSmall,
    NonlinearIterationDiverged,
)
from dwnls.io_utils import dumps_17g
from dwnls.grids import Grid, inner, norm2
from dwnls import linear_spectrum as ls
from dwnls import pde
from dwnls import reduced_dynamics as rd
from dwnls import shadowing as sh
from rk45 import rk45_integrate
from tilde_r_full import FullTildeREvolver, full_tilde_r_evolve
from well_tuning import tune_delta_well_for_ncr


class TestProjection:
    def test_pure_mode(self, shadow_well):
        sd = shadow_well
        c0, c1, r = sh.project(2.0 * sd.psi0 + 0j, sd)
        assert c0 == pytest.approx(2.0, abs=1e-12)
        assert c1 == pytest.approx(0.0, abs=1e-12)
        assert norm2(r, sd.grid) < 1e-12
        assert abs(inner(sd.psi0, r, sd.grid)) \
            + abs(inner(sd.psi1, r, sd.grid)) < 1e-12

    def test_orthogonal_decomposition(self, shadow_well):
        sd = shadow_well
        rho = sh.project(np.exp(-(sd.grid.x - 1.0) ** 2) + 0j, sd)[2]
        c0, c1, r = sh.project(sd.psi0 + 1j * sd.psi1 + rho, sd)
        assert c0 == pytest.approx(1.0, abs=1e-10)
        assert c1 == pytest.approx(1j, abs=1e-10)
        assert np.max(np.abs(r - rho)) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-6, 1e6),
           width=st.floats(0.5, 20.0))
    def test_residual_orthogonal_to_modes(self, gauss_edge, seed, scale,
                                          width):
        # a random field: its continuous-spectrum part is orthogonal to psi0
        # and psi1 in grids.inner to rounding, on a well whose modes have
        # weight at the domain edge
        sd = gauss_edge
        rng = np.random.default_rng(seed)
        n = sd.grid.n_points
        f = scale * (rng.normal(size=n) + 1j * rng.normal(size=n)) \
            * np.exp(-(sd.grid.x / width) ** 2)
        size = norm2(f, sd.grid)
        r = sh.project(f, sd)[2]
        for psi in (sd.psi0, sd.psi1):
            assert abs(inner(psi, r, sd.grid)) <= 1e-15 * size

    def test_parseval_split(self, shadow_well):
        sd = shadow_well
        rng = np.random.default_rng(1)
        for _ in range(5):
            u = (rng.normal(size=sd.grid.n_points)
                 + 1j * rng.normal(size=sd.grid.n_points))
            u *= np.exp(-sd.grid.x**2 / 50.0)
            c0, c1, r = sh.project(u, sd)
            total = norm2(u, sd.grid) ** 2
            split = abs(c0) ** 2 + abs(c1) ** 2 + norm2(r, sd.grid) ** 2
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
        expected = np.sqrt(n_level) * sd.psi0
        assert np.max(np.abs(u0 - expected)) < 1e-14

    def test_asymmetric_point(self, shadow_well):
        sd = shadow_well
        u0 = sh.build_initial_data(
            rd.CartesianChart(np.sqrt(0.125), np.sqrt(0.025), 0.0), sd)
        c0, c1, _ = sh.project(u0, sd)
        assert c0 == pytest.approx(np.sqrt(0.125), abs=1e-12)
        assert c1 == pytest.approx(np.sqrt(0.025), abs=1e-12)

    def test_projection_inverse(self, shadow_well):
        sd = shadow_well
        pt = rd.CartesianChart(A=0.31, alpha=0.07, beta=-0.03, theta=0.6)
        u0 = sh.build_initial_data(pt, sd, theta0=pt.theta)
        c0, c1, r = sh.project(u0, sd)
        a, al, be, th = _moving_frame(c0, c1)
        assert (a, al, be) == pytest.approx((pt.A, pt.alpha, pt.beta),
                                            abs=1e-12)
        assert th == pytest.approx(pt.theta, abs=1e-12)
        assert norm2(r, sd.grid) < 1e-12


class TestModeSource:
    def test_projection_orthogonality(self, shadow_well):
        sd = shadow_well
        rng = np.random.default_rng(3)
        for _ in range(10):
            a_amp, al, be = rng.normal(size=3) * 0.3
            src = sh.mode_source(abs(a_amp), al, be, sd)
            assert abs(inner(sd.psi0, src, sd.grid)) < 1e-10
            assert abs(inner(sd.psi1, src, sd.grid)) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(a_amp=st.floats(0.0, 1.0), alpha=st.floats(-1.0, 1.0),
           beta=st.floats(-1.0, 1.0))
    def test_matches_projected_bracket(self, shadow_well, a_amp, alpha, beta):
        # mode_source combines mode_products by source_coefficients; it
        # must equal -P_c(bracket) with the bracket written out on the grid
        sd = shadow_well
        p0, p1 = sd.psi0, sd.psi1
        z = complex(alpha, beta)
        p = alpha * alpha + beta * beta
        bracket = (a_amp**3 * p0**3 + p * z * p1**3
                   + (a_amp * z * z + 2.0 * a_amp * p) * p0 * p1**2
                   + (a_amp**2 * z.conjugate() + 2.0 * a_amp**2 * z)
                   * p0**2 * p1)
        old = -1.0 * sh.project(bracket, sd)[2]
        new = sh.mode_source(a_amp, alpha, beta, sd)
        assert np.max(np.abs(new - old)) <= 1e-13 * max(np.max(np.abs(old)),
                                                         1e-300)

    def test_zero_orbit_zero_source(self, shadow_well):
        assert np.all(sh.mode_source(0.0, 0.0, 0.0, shadow_well) == 0.0)


class TestTildeR:
    def test_zero_orbit_stays_zero(self, shadow_well):
        sd = shadow_well
        fields = sh._TildeREvolver(sd, 0.01, _ConstantOrbit(0.0),
                                   500).at_steps(_record_steps(500))
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
        orbit = sh._ReferenceOrbit(rd.integrate(ic, params, (0.0, 60.0),
                                                0.02))
        fields = sh._TildeREvolver(sd, 4e-3, orbit, 15000).at_steps(
            _record_steps(15000))
        assert 0 < np.max(np.abs(fields[-1])) < 1e-2
        for f in fields[1::5]:
            size = norm2(f, sd.grid)
            assert abs(inner(sd.psi0, f, sd.grid)) <= 1e-10 * size
            assert abs(inner(sd.psi1, f, sd.grid)) <= 1e-10 * size
        assert all(f[0] == 0.0 for f in fields)    # the pinned node

    def test_step_is_exact_exponential(self):
        # zero source (the stepper's coefficients zeroed) and constant m:
        # one step is exp(-i dt (H - Omega0 + m)) on the free nodes, here
        # from expm
        grid = Grid.symmetric(16.0, 256)
        sd = ls.spectral_data(ls.PotentialSpec("delta", 4.0, 2.5), grid)
        dt, a_amp = 4e-3, 0.2
        stepper = _Sourceless(sd, dt, _ConstantOrbit(a_amp), 1)
        rng = np.random.default_rng(4)
        s0 = rng.normal(size=len(stepper.e)) \
            + 1j * rng.normal(size=len(stepper.e))
        r0, r1 = stepper.to_grid(np.array([s0, stepper.step(s0)]),
                                 stepper.theta[:2])
        hp = ls.pinned_hamiltonian(sd.spec, grid)
        m = sd.a[0, 0, 0, 0] * a_amp**2
        h = np.diag(hp.diag - sd.omega0 + m) + np.diag(hp.off, 1) \
            + np.diag(hp.off, -1)
        exact = expm(-1j * dt * h) @ r0[1:]
        assert r1[0] == 0.0
        assert np.max(np.abs(r1[1:] - exact)) <= 1e-13 * np.max(np.abs(r0))

    def test_source_needs_no_projection(self, shadow_well):
        # V leaves out psi0 and psi1, so V^T P_c f = V^T f: for each mode
        # product f, V^T f equals V^T of its continuous-spectrum part
        # (project) to rounding, so R~ takes the raw products
        sd = shadow_well
        (_, ve), (_, vo) = ls.pinned_hamiltonian(
            sd.spec, sd.grid).block_eigenpairs()
        no_even = np.zeros((vo.shape[1] - 1, ve.shape[0]))    # odd vectors
        v = np.concatenate((ls.unfold(ve[:, 1:].T, 0),
                            ls.unfold(no_even, vo[:, 1:].T)))
        for f in sh.mode_products(sd):
            g, g_c = v @ f[1:], v @ sh.project(f, sd)[2][1:]
            assert np.linalg.norm(g - g_c) <= 1e-12 * np.linalg.norm(g_c)

    def test_cut_is_projected_zeroing(self, shadow_well):
        # the tail filter in the eigenbasis is P_c of the field zeroed
        # beyond the cutoff on the grid
        sd = shadow_well
        stepper = sh._TildeREvolver(sd, 4e-3, _ConstantOrbit(0.2), 1)
        rng = np.random.default_rng(6)
        s0 = rng.normal(size=len(stepper.e)) \
            + 1j * rng.normal(size=len(stepper.e))
        keep = np.abs(sd.grid.x) <= 0.75 * sd.grid.x_max
        s1, got_removed = stepper.cut(s0, keep)
        r, got = stepper.to_grid(np.array([s0, s1]), [0, 0])
        want, removed = pde.cut_on_grid(sd.grid, r, keep)
        assert np.max(np.abs(got - sh.project(want, sd)[2])) \
            <= 1e-12 * np.max(np.abs(r))
        assert got_removed == pytest.approx(removed, rel=1e-12)

    def test_converged_at_the_shadowing_step(self, shadow_well):
        # the source is held at each step's midpoint, the only time error:
        # at dt = 4e-3 the field is within 1% (L2) of the run at dt/16
        sd = shadow_well
        orbit = _libration_orbit(sd, 8.0)
        coarse = sh._TildeREvolver(sd, 4e-3, orbit, 2000).at_steps([2000])[-1]
        fine = sh._TildeREvolver(sd, 2.5e-4, orbit, 32000).at_steps(
            [32000])[-1]
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
        exact = sh._TildeREvolver(sd, 4e-3, orbit, 2000).at_steps([2000])[-1]
        n_steps = int(round(horizon / dt))
        a, al, be = orbit.sample((np.arange(n_steps) + 0.5) * dt)
        m = sd.a[0, 0, 0, 0] * a * a \
            + sd.a[0, 0, 1, 1] * (3.0 * al * al + be * be)
        # P_c F_b on the free nodes: P_c is linear, so each step combines
        # the mode products projected once (project), as mode_source would
        coef = np.stack(sh.source_coefficients(a, al, be), axis=1)
        pc_products = np.array([sh.project(f, sd)[2][1:]
                                for f in sh.mode_products(sd)])
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
            rhs -= 2.0 * c * (coef[k] @ pc_products)
            *lu, info = zgttrf(off, diag, off)
            r, info = zgttrs(*lu, rhs)
        cn = np.concatenate(([0.0], r))
        err = norm2(exact - cn, sd.grid) / norm2(cn, sd.grid)
        print(f"L2 distance to CN at dt = {dt}: {err:.2e}")
        assert err <= 1e-2

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3 * sh.BLOCK),
           k0=st.integers(0, sh.BLOCK),
           window=st.sampled_from([sh.BLOCK, sh.BLOCK + 1, 100,
                                   sh.SOURCE_WINDOW]))
    def test_block_advance_equals_single_steps(self, small_tilde_r, seed, m,
                                               k0, window):
        # step(s, m) in closed form against m steps S <- E S + Phi G c_k;
        # source windows shorter than the run make blocks reload them
        stepper = small_tilde_r
        rng = np.random.default_rng(seed)
        n = len(stepper.e)
        s0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        shape = (stepper.n_steps, 4)
        stepper.table = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        want = s0
        for k in range(k0, k0 + m):
            want = stepper.e * want + stepper.g_phi @ stepper.table[k]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sh, "SOURCE_WINDOW", window)
            stepper._load(0, 0.0)
            stepper.k = k0
            got = stepper.step(s0, m)
        assert stepper.k == k0 + m
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_evolve_with_filter_equals_step_loop(self, shadow_well,
                                                 monkeypatch):
        # at_steps forms R~ only at its records and cuts; a loop of single
        # steps with a cut every 250 steps (before the record at the same
        # step) gives the same fields, also with source windows of 70
        # steps, which records, cuts and single steps reload; the windows
        # do not change a bit of at_steps
        sd = shadow_well
        orbit = _libration_orbit(sd, 3.0)
        dt, horizon, every = 4e-3, 3.0, 50
        n_steps = int(round(horizon / dt))
        steps = _record_steps(n_steps, every)
        one_window = None
        for window in (n_steps, 70):
            monkeypatch.setattr(sh, "SOURCE_WINDOW", window)
            fields = sh._TildeREvolver(sd, dt, orbit, n_steps).at_steps(
                steps, _shadow_tail_filter(sd, dt))
            if one_window is None:
                one_window = fields
            assert np.array_equal(fields, one_window)
            stepper = sh._TildeREvolver(sd, dt, orbit, n_steps)
            keep = np.abs(sd.grid.x) <= sh.CUTOFF_FRACTION * sd.grid.x_max
            s = np.zeros_like(stepper.e)
            want = [stepper.to_grid(s[None], [0])[0]]
            for k in range(1, n_steps + 1):
                s = stepper.step(s, 1)
                if k % 250 == 0:
                    s, _ = stepper.cut(s, keep)
                if k % every == 0 or k == n_steps:
                    theta = stepper.theta[k - stepper.k0]
                    want.append(stepper.to_grid(s[None], [theta])[0])
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
            sh._TildeREvolver(sd, 4e-3, orbit, 750).at_steps(
                _record_steps(750))


class TestParityBlocks:
    """R~ from the even and odd blocks of the pinned H against the whole
    matrix (tests/tilde_r_full.py), and the symmetry that makes them
    exact."""

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["delta", "gauss"]),
           strength=st.floats(0.5, 5.0), separation=st.floats(0.5, 20.0),
           x_max=st.floats(4.0, 100.0), log2_n=st.integers(2, 12))
    def test_free_nodes_reflection_symmetric(self, kind, strength,
                                             separation, x_max, log2_n):
        grid = Grid.symmetric(x_max, 2**log2_n)
        assert np.array_equal(grid.x[1:], -grid.x[:0:-1])
        try:
            v = ls.potential_samples(
                ls.PotentialSpec(kind, strength, separation), grid)
        except DomainTooSmall:
            assume(False)
        assert np.array_equal(v[1:], v[:0:-1])

    @pytest.mark.parametrize("well", ["delta_256", "gauss_256"])
    def test_matches_full_basis(self, well, request):
        sd = request.getfixturevalue(well)
        orbit = _libration_orbit(sd, 3.0)
        dt = 4e-3
        n_steps = int(round(3.0 / dt))
        steps = _record_steps(n_steps)
        tail_filter = _shadow_tail_filter(sd, dt)
        got = sh._TildeREvolver(sd, dt, orbit, n_steps).at_steps(
            steps, tail_filter)
        want = full_tilde_r_evolve(sd, dt, orbit, n_steps, steps,
                                   tail_filter)
        scale = np.max(np.abs(want))
        assert scale > 0
        for got_k, want_k in zip(got, want):
            assert np.max(np.abs(got_k - want_k)) <= 1e-12 * scale

    @pytest.mark.parametrize("outside", ["none", "outermost_pair", "shadow"])
    def test_cut_cases(self, gauss_256, outside):
        # one field cut in both bases; on the Gaussian well psi0, psi1
        # reach ~1e-5 at the cutoff, so the cut must remove both tails at
        # once to be P_c of the zeroing
        sd = gauss_256
        blocks = sh._TildeREvolver(sd, 4e-3, _ConstantOrbit(0.2), 1)
        full = FullTildeREvolver(sd, 4e-3, _ConstantOrbit(0.2), 1)
        rng = np.random.default_rng(7)
        s0 = rng.normal(size=len(blocks.e)) \
            + 1j * rng.normal(size=len(blocks.e))
        r = blocks.to_grid(s0[None], [0])[0]
        keep = np.ones(sd.grid.n_points, bool)
        if outside == "outermost_pair":
            keep[[1, -1]] = False
        elif outside == "shadow":
            keep = np.abs(sd.grid.x) <= sh.CUTOFF_FRACTION * sd.grid.x_max
        s1, got_removed = blocks.cut(s0, keep)
        f1, removed = full.cut(r[1:] @ full.v, keep)
        got = blocks.to_grid(s1[None], [0])[0]
        want = full.to_grid(f1[None], [0])[0]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(r))
        assert got_removed == pytest.approx(removed, rel=1e-12)
        if outside == "none":
            assert np.array_equal(s1, s0) and got_removed == 0.0

    def test_half_the_eigenvector_memory(self, delta_256):
        # the whole basis is (n - 1)^2 doubles; the blocks about half
        stepper = sh._TildeREvolver(delta_256, 4e-3, _ConstantOrbit(0.2), 1)
        owners = {}
        for a in vars(stepper).values():
            if isinstance(a, np.ndarray) and a.ndim == 2 \
                    and a.dtype == np.float64:
                while isinstance(a.base, np.ndarray):
                    a = a.base
                owners[id(a)] = a.nbytes
        n = delta_256.grid.n_points
        assert 0 < sum(owners.values()) <= 0.51 * 8 * (n - 1) ** 2


@pytest.fixture(scope="module")
def delta_256():
    return ls.spectral_data(ls.PotentialSpec("delta", 4.0, 2.5),
                            Grid.symmetric(16.0, 256))


@pytest.fixture(scope="module")
def gauss_256():
    """The Gaussian sigma = 1, L = 3 well of the gauss_sigma1_L3 fixture
    on 256 points."""
    return ls.spectral_data(ls.PotentialSpec("gauss", 1.0, 3.0),
                            Grid.symmetric(40.0, 256))


@pytest.fixture(scope="module")
def gauss_edge():
    """The Gaussian sigma = 1, L = 3 well on Grid.symmetric(16, 256): its
    modes keep 1e-3 of their peak at the domain edge."""
    return ls.spectral_data(ls.PotentialSpec("gauss", 1.0, 3.0),
                            Grid.symmetric(16.0, 256))


@pytest.fixture(scope="module")
def small_tilde_r():
    grid = Grid.symmetric(16.0, 256)
    sd = ls.spectral_data(ls.PotentialSpec("delta", 4.0, 2.5), grid)
    return _TabledSource(sd, 4e-3, _ConstantOrbit(0.2), 5 * sh.BLOCK)


class _Sourceless(sh._TildeREvolver):
    """R~'s stepper with every window's source coefficients zeroed (m, and
    so theta, as the orbit gives them)."""

    def _load(self, k0, carry):
        super()._load(k0, carry)
        self.c[:] = 0


class _TabledSource(sh._TildeREvolver):
    """R~'s stepper whose windows take their source coefficients from the
    rows of `table` (one a step), once it is set."""

    table = None

    def _load(self, k0, carry):
        super()._load(k0, carry)
        if self.table is not None:
            self.c = self.table[k0:k0 + len(self.c)]


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
            sd = tune_delta_well_for_ncr(tau**gamma, shadow_grid)
            params = rd.ReducedParams.from_spectral(sd)
            n_level = tau**gamma + tau
            al_eq = rd.equilibrium_alpha(params, n_level)
            al0 = 1.02 * al_eq
            ic = rd.ModeAmplitudes(complex(np.sqrt(n_level - al0**2), 0.0),
                                   complex(al0, 0.0))
            a_eff = 0.5 * (3 * params.a[0, 0, 1, 1] - params.a[0, 0, 0, 0])
            period = np.pi / (a_eff * np.sqrt(n_level**2 - tau**(2 * gamma)))
            orbit = sh._ReferenceOrbit(rd.integrate(
                ic, params, (0.0, 2.0 * period), period / 2000))
            n_steps = int(round(2.0 * period / 4e-3))
            fields = sh._TildeREvolver(sd, 4e-3, orbit, n_steps).at_steps(
                _record_steps(n_steps), _shadow_tail_filter(sd, 4e-3))
            sups.append(float(np.max(np.abs(fields))))
        slope = np.polyfit(np.log(taus), np.log(sups), 1)[0]
        assert sups[0] > sups[1] > sups[2]
        assert slope > 1.0


class TestCouplingErrors:
    def test_zero_residual(self, shadow_well):
        sd = shadow_well
        zero = np.zeros(sd.grid.n_points, complex)
        errs = sh.coupling_errors(0.3, 0.05, -0.02, zero, sd)
        assert errs == (0.0, 0.0, 0.0, 0.0)

    def test_chart_guard(self, shadow_well):
        sd = shadow_well
        zero = np.zeros(sd.grid.n_points, complex)
        with pytest.raises(ChartBreakdown):
            sh.coupling_errors(1e-9, 0.0, 0.0, zero, sd)

    def test_linear_scaling_in_residual(self, shadow_well):
        # two-point amplitude ladder: the functionals scale linearly in
        # ||R|| while the quadratic terms stay subdominant
        sd = shadow_well
        bump = sh.project(
            np.exp(-(sd.grid.x - 0.8) ** 2) * (1.0 + 0.5j) + 0j, sd)[2]
        slopes = []
        for h in (1e-3, 5e-4):
            vals = []
            for hh in (h, 0.5 * h):
                r = hh * bump
                vals.append(sh.coupling_errors(0.3, 0.06, -0.02, r, sd))
            vals = np.abs(np.array(vals))
            slopes.append(np.log2(vals[0] / vals[1]))
        for slope in slopes[1]:
            assert abs(slope - 1.0) < 0.1


class TestStrichartzMonitor:
    # strichartz_monitor gives each sample's H1 norm and sup|w|, the run
    # takes sup_t of the first and l4_in_time of the second
    def test_zero_series(self, shadow_grid):
        times = np.linspace(0.0, 1.0, 5)
        fields = [np.zeros(shadow_grid.n_points, complex) for _ in times]
        h1, sup = sh.strichartz_monitor(fields, shadow_grid)
        l4 = sh.l4_in_time(times, sup)
        assert np.max(h1) == 0.0 and l4 == 0.0

    def test_static_field(self, shadow_grid):
        f = np.exp(-shadow_grid.x**2) + 0j
        horizon = 2.0
        times = np.linspace(0.0, horizon, 41)
        h1, sup = sh.strichartz_monitor([f] * len(times), shadow_grid)
        l4 = sh.l4_in_time(times, sup)
        assert l4 == pytest.approx(float(np.max(np.abs(f)))
                                   * horizon**0.25, rel=1e-12)
        df = np.gradient(f, shadow_grid.dx)
        expected = np.sqrt(shadow_grid.dx * float(np.sum(np.abs(f) ** 2
                                                         + np.abs(df) ** 2)))
        assert np.max(h1) == pytest.approx(expected, rel=1e-12)
        assert h1 == pytest.approx(np.full(len(times), expected), rel=1e-12)


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

    def test_not_star_shaped_raises(self):
        # a three-quarter arc seen from its centroid leaves an angular gap
        # over 0.5 rad, where the polar parametrization does not hold
        phi = np.linspace(0.0, 1.5 * np.pi, 300)
        curve = np.column_stack([0.05 * np.cos(phi), 0.05 * np.sin(phi)])
        rel = curve - curve.mean(axis=0)
        polar = np.sort(np.arctan2(rel[:, 1], rel[:, 0]))
        assert np.max(np.diff(polar)) > 0.5
        with pytest.raises(ChartBreakdown, match="not star-shaped"):
            sh.annulus_width_ratio(curve, curve[::6])


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
        # the exact key set, so that a new series field of the report
        # cannot slip into shadow_report.json
        assert set(rep.to_json_dict()) == {
            "annulus_ok", "annulus_ratio", "com_sign_changes", "coupling_sup",
            "energy_drift", "eta_bound", "eta_bound_ok", "horizon",
            "horizon_truncated", "implied_gamma", "mass_drift", "n_cr",
            "n_level", "orbit_amplitude", "parseval_defect", "period",
            "pilot_steps", "removed_energy", "removed_mass", "side",
            "sup_eta", "tau", "tilde_r_removed_mass", "tilde_r_removed_ratio",
            "tilde_r_sup", "truncation", "w_l4_linf", "w_sup_h1"}
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
        orb = sh.OrbitSpec(side="below", horizon_periods=0.05, dt_pde=4e-3)
        rep = sh.run_shadow_experiment(sp, sd, orb)
        assert not rep.horizon_truncated
        assert rep.truncation is None
        assert rep.to_json_dict()["truncation"] is None


class TestStreamedMonitors:
    """The run forms R~ and w as the march samples and keeps only their
    norms; the offline path below stores every residual, evolves R~ to
    all the samples afterwards from one source table of the whole run,
    and takes the norms of the whole series by a loop over its fields.
    Both give the same bits."""

    @pytest.mark.parametrize("periods, fail_at", [
        (0.5, None),        # 34 samples, not a multiple of SAMPLE_CHUNK
        (1.0, None),        # the cut at step 3658 lands on sample 62
        (1.0, 19 * 59 + 5), # truncated mid-chunk, after 20 samples
    ], ids=["ragged_chunk", "cut_on_sample", "truncated"])
    def test_streamed_equals_offline(self, golden_well, monkeypatch,
                                     periods, fail_at):
        if fail_at is not None:
            original = pde.CrankNicolsonStepper.step
            calls = []

            def failing_step(self, u):
                calls.append(1)
                if len(calls) == fail_at:
                    raise NonlinearIterationDiverged("injected mid-chunk")
                return original(self, u)

            monkeypatch.setattr(pde.CrankNicolsonStepper, "step",
                                failing_step)
        orb = sh.OrbitSpec(side="above", amplitude_factor=0.7,
                           horizon_periods=periods, dt_pde=1.6e-2)
        rep, seen = _run_with_offline_monitors(golden_well, orb, monkeypatch)
        steps, tail_filter = seen["steps"], seen["tail_filter"]
        assert len(steps) % sh.SAMPLE_CHUNK != 0
        if periods == 1.0 and fail_at is None:
            assert np.any(steps[1:] % tail_filter.trigger_steps == 0)
        if fail_at is not None:
            assert rep.truncation == {
                "error": "NonlinearIterationDiverged",
                "message": "injected mid-chunk", "step": fail_at,
                "time": fail_at * 1.6e-2}
        assert (rep.w_sup_h1, rep.w_l4_linf, rep.tilde_r_sup) \
            == seen["offline"]

    def test_memory_flat_in_the_horizon(self, golden_well):
        # storing every sample's residual and R~ and n_steps-long source
        # tables grows the peak about 1.04 MB a period here; streamed, it
        # grows about 0.09 MB a period, the reference orbit's arrays
        sp = sh.ShadowParams(tau=0.05, n_cr=0.1)
        peaks = []
        for periods in (1.0, 3.0):
            orb = sh.OrbitSpec(side="above", amplitude_factor=0.7,
                               horizon_periods=periods, dt_pde=1.6e-2)
            tracemalloc.start()
            try:
                sh.run_shadow_experiment(sp, golden_well, orb)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_period = (peaks[1] - peaks[0]) / 2.0
        print(f"traced peaks {peaks[0] / 1e6:.2f}, {peaks[1] / 1e6:.2f} MB")
        assert per_period <= 0.4e6

    def test_reference_memory_per_period(self, golden_well, monkeypatch):
        # the reference orbit is recorded at each of its 2,000 steps a
        # period: as arrays it grows about 0.27 MB a period here, as a
        # list of 4-tuples 0.52 MB
        seen = {}

        class Captured(Exception):
            pass

        def capture(*args):
            seen["args"] = args
            raise Captured

        monkeypatch.setattr(sh, "reduced_reference", capture)
        orb = sh.OrbitSpec(side="above", amplitude_factor=0.7,
                           horizon_periods=1.0, dt_pde=1.6e-2)
        with pytest.raises(Captured):
            sh.run_shadow_experiment(sh.ShadowParams(tau=0.05, n_cr=0.1),
                                     golden_well, orb)
        monkeypatch.undo()
        state0, params, span, dt_red = seen["args"]
        period = span - 2.0 * dt_red
        peaks = []
        for periods in (1, 4):
            tracemalloc.start()
            try:
                sh.reduced_reference(state0, params,
                                     periods * period + 2.0 * dt_red, dt_red)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_period = (peaks[1] - peaks[0]) / 3.0
        print(f"traced peaks {peaks[0] / 1e6:.3f}, {peaks[1] / 1e6:.3f} MB")
        assert per_period <= 0.4e6


def _run_with_offline_monitors(sd, orb, monkeypatch):
    """run_shadow_experiment on sd, and the monitors of the offline path:
    (sup H1 of w, L4_t L^infty_x of w, sup |R~|) from the residuals that
    coupling_errors saw at the samples, and R~ at all of them with the
    run's orbit, step count and tail filter, its source formed in one
    window of the whole run."""
    seen, rows = {"k": 0}, []
    reduced_reference, march = sh.reduced_reference, sh.march
    coupling_errors = sh.coupling_errors

    def spy_reference(*args):
        seen["ref"] = reduced_reference(*args)
        return seen["ref"]

    def spy_march(*args):
        seen["n_steps"], seen["tail_filter"] = args[2], args[5]
        on_record = args[4]

        def record(k, *rest):
            seen["k"] = k            # the step of the sample taken next
            return on_record(k, *rest)

        return march(*args[:4], record, *args[5:])

    def spy_coupling(a_amp, alpha, beta, r, spectral):
        errs = coupling_errors(a_amp, alpha, beta, r, spectral)
        rows.append((seen["k"] * orb.dt_pde, r.copy()))
        return errs

    monkeypatch.setattr(sh, "reduced_reference", spy_reference)
    monkeypatch.setattr(sh, "march", spy_march)
    monkeypatch.setattr(sh, "coupling_errors", spy_coupling)
    rep = sh.run_shadow_experiment(sh.ShadowParams(tau=0.05, n_cr=0.1), sd,
                                   orb)
    dt = orb.dt_pde
    times = np.array([t for t, _ in rows])
    assert np.array_equal(times, rep.times)
    seen["steps"] = steps = np.rint(times / dt).astype(int)
    assert seen["n_steps"] > sh.SOURCE_WINDOW
    monkeypatch.setattr(sh, "SOURCE_WINDOW", seen["n_steps"])
    r_t = sh._TildeREvolver(sd, dt, seen["ref"], seen["n_steps"]).at_steps(
        steps, seen["tail_filter"])
    w = np.array([r for _, r in rows])
    w -= r_t
    seen["offline"] = (*_offline_strichartz(times, w, sd.grid),
                       float(np.max(np.abs(r_t))))
    return rep, seen


def _offline_strichartz(times, fields, grid):
    """(sup_t H1 norm, L4-in-time of sup_x |w|) of a sampled field series,
    one field at a time."""
    h1 = np.empty(len(fields))
    sup = np.empty(len(fields))
    for i, f in enumerate(fields):
        df = np.gradient(f, grid.dx)
        h1[i] = math.sqrt(grid.dx * float(np.sum(np.abs(f) ** 2
                                                 + np.abs(df) ** 2)))
        sup[i] = float(np.max(np.abs(f)))
    l4 = float(np.trapezoid(sup**4, times)) ** 0.25
    return float(np.max(h1)), l4


@pytest.fixture(scope="module")
def golden_well():
    """The well of the 256-point golden shadow run (test_cli.py)."""
    return ls.tune_delta_strength_for_ncr(0.1, 2.5, Grid.symmetric(16.0, 256),
                                          (2.0, 9.0))


class TestInvariants:
    def test_filter_removals_are_added_back(self, shadow_well):
        # the report's drifts add back what the tail filter removed: the
        # free-node mass holds to rounding and H to the O(dt^2) gap between
        # H and the relaxation's modified energy, while the cuts remove
        # thousands of times more energy than that
        sp = sh.ShadowParams(tau=0.05, n_cr=0.1)
        orb = sh.OrbitSpec(side="above", amplitude_factor=0.7,
                           horizon_periods=0.1, dt_pde=4e-3)
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
    return rd.detect_period(traj)


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
                             dtheta0=orb.dtheta0, horizon_periods=0.02)
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
        sd = tune_delta_well_for_ncr(tau**0.8, shadow_grid)
        sp = sh.ShadowParams(tau=tau, gamma=0.8)
        orb = sh.OrbitSpec(side="below", horizon_periods=0.05, dt_pde=4e-3)
        rep = sh.run_shadow_experiment(sp, sd, orb)
        params = rd.ReducedParams.from_spectral(sd)
        state0 = sh._orbit_initial_state(params, sp, orb)[0]
        traj = rk45_integrate(state0, params, (0.0, 700.0), 0.25,
                              rtol=1e-9, atol=1e-11)
        period = rd.detect_period(traj)
        assert rep.period == pytest.approx(period, rel=1e-4)
