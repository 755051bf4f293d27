import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

from dwnls.errors import (
    BranchLost,
    ConvergedToZero,
    IterationDiverged,
    NoBifurcationFound,
)
from dwnls.grids import Grid
from dwnls import bound_states as bs
from dwnls import linear_spectrum as ls


def _pinned(sd):
    """The pinned H of sd's well on its grid."""
    return ls.pinned_hamiltonian(sd.spec, sd.grid)


def trace_and_detect(sd, n_steps=60):
    seeds = bs.default_seeds(sd)
    step = 0.05 * sd.n_cr_fd * sd.a[0, 0, 0, 0]
    curve = bs.continue_in_omega(sd.spec, sd.grid, sd.omega0 - 0.25 * step,
                                 sd.omega0 - n_steps * step, step, seeds)
    return curve, seeds


@pytest.fixture(scope="module")
def gauss_threshold(gauss_sigma1_L3):
    sd = gauss_sigma1_L3
    curve, seeds = trace_and_detect(sd)
    thr = bs.detect_threshold(curve, sd.spec, sd.grid, seeds)
    return thr, seeds


class TestSpectralRenormalize:
    def test_small_amplitude_limit(self, delta_s1_L10):
        sd = delta_s1_L10
        eps = 1e-3
        st = bs.spectral_renormalize(_pinned(sd), sd.grid, sd.omega0 - eps,
                                     0.05 * sd.psi0.eigenfunction)
        # bifurcation from the linear ground state: N ~ eps / int psi0^4
        assert st.n == pytest.approx(eps / sd.a[0, 0, 0, 0], rel=5e-3)
        assert abs(st.asymmetry) < 1e-10
        assert st.residual <= 1e-8

    def test_below_threshold_unique_symmetric(self, delta_s1_L10):
        sd = delta_s1_L10
        om = sd.omega0 - 0.5 * sd.n_cr_fd * sd.a[0, 0, 0, 0]
        st = bs.spectral_renormalize(
            _pinned(sd), sd.grid, om,
            0.1 * (sd.psi0.eigenfunction + 0.3 * sd.psi1.eigenfunction))
        assert st.n < sd.n_cr_fd
        assert abs(st.asymmetry) < 1e-6

    def test_above_threshold_asymmetric(self, delta_s1_L10):
        sd = delta_s1_L10
        asyms = []
        for mult in (2.0, 3.0, 4.0):
            om = sd.omega0 - mult * sd.n_cr_fd * sd.a[0, 0, 0, 0]
            st = bs.spectral_renormalize(
                _pinned(sd), sd.grid, om,
                0.1 * (sd.psi0.eigenfunction + 0.3 * sd.psi1.eigenfunction))
            assert st.n > sd.n_cr_fd
            asyms.append(abs(st.asymmetry))
        assert asyms[0] > 0.01
        assert asyms[0] < asyms[1] < asyms[2]

    def test_residual_bound(self, delta_s1_L10):
        sd = delta_s1_L10
        om = sd.omega0 - 2.0 * sd.n_cr_fd * sd.a[0, 0, 0, 0]
        st = bs.spectral_renormalize(
            _pinned(sd), sd.grid, om,
            0.1 * (sd.psi0.eigenfunction + 0.3 * sd.psi1.eigenfunction))
        assert st.residual <= 1e-8

    def test_zero_seed_raises(self, delta_s1_L10):
        sd = delta_s1_L10
        with pytest.raises(ConvergedToZero):
            bs.spectral_renormalize(_pinned(sd), sd.grid, sd.omega0 - 1e-3,
                                    np.zeros(sd.grid.n_points))

    def test_phase_fix_positive_maximum(self, delta_s1_L10):
        sd = delta_s1_L10
        st = bs.spectral_renormalize(_pinned(sd), sd.grid, sd.omega0 - 1e-3,
                                     -0.05 * sd.psi0.eigenfunction)
        assert st.profile[np.argmax(np.abs(st.profile))] > 0

    @settings(max_examples=30, deadline=None)
    @given(shift=st.floats(1e-4, 1.0), a0=st.floats(-1.0, 1.0),
           a1=st.floats(-1.0, 1.0), bump=st.floats(0.05, 1.0),
           x0=st.floats(-10.0, 10.0))
    def test_newton_step_solves_lplus_on_free_nodes(self, delta_s1_L10,
                                                    shift, a0, a1, bump,
                                                    x0):
        # one Newton step from the seed scaled by S^{1/2}: the step
        # delta = psi - p solves L+(psi) delta = F(psi) on nodes 1..n-1,
        # with L+ = H - omega - 3 psi^2, F = (H - omega) psi - psi^3 and
        # p[0] = 0; a damped step is lam * delta with lam a power of two,
        # and the phase fix may flip the sign of p
        sd = delta_s1_L10
        grid = sd.grid
        om = sd.omega0 - shift
        seed = (a0 * sd.psi0.eigenfunction + a1 * sd.psi1.eigenfunction
                + bump * np.exp(-(grid.x - x0) ** 2))
        seed[0] = 0.0
        state = bs.spectral_renormalize(_pinned(sd), grid, om, seed,
                                        max_iter=1, best_effort=True)
        p = state.profile
        assert p[0] == 0.0

        h = ls.pinned_hamiltonian(sd.spec, grid)

        def l_op(f):
            return h.apply(f) - om * f

        w = grid.quad_weights()
        psi = seed * np.sqrt(np.sum(w * seed * l_op(seed))
                             / np.sum(w * seed**4))
        f = (l_op(psi) - psi**3)[1:]

        def abs_op(diag, g):
            out = np.abs(diag) * np.abs(g)
            out[:-1] += np.abs(h.off) * np.abs(g[1:])
            out[1:] += np.abs(h.off) * np.abs(g[:-1])
            return out

        fits = []
        for sign in (1.0, -1.0):
            step = psi - sign * p
            lstep = (l_op(step) - 3.0 * psi**2 * step)[1:]
            lam = float(lstep @ f) / float(f @ f)
            fits.append((np.max(np.abs(lstep - lam * f)), lam, step))
        res, lam, step = min(fits, key=lambda fit: fit[0])
        halvings = round(-np.log2(lam))
        assert 0 <= halvings <= 10
        assert lam == pytest.approx(2.0**-halvings, rel=1e-6)
        # roundoff of a backward-stable tridiagonal solve, eps |L+| |step|,
        # and of forming F: eps (|L| |psi| + |psi|^3)
        assert res <= 64 * np.finfo(float).eps * (
            np.max(abs_op(h.diag - om - 3.0 * psi[1:] ** 2, step[1:]))
            + np.max(abs_op(h.diag - om, psi[1:])) + np.max(np.abs(psi)) ** 3)

    @pytest.mark.parametrize("above", [1e-6, 0.05, 1.0])
    def test_omega_above_ground_state_raises(self, delta_s1_L10, above):
        # H - omega has a negative eigenvalue: the LDL^T factorization
        # meets a non-positive pivot and the solve must not go ahead
        sd = delta_s1_L10
        with pytest.raises(IterationDiverged,
                           match="H - Omega is not positive definite"):
            bs.spectral_renormalize(_pinned(sd), sd.grid, sd.omega0 + above,
                                    0.05 * sd.psi0.eigenfunction)


class TestContinuation:
    def test_reflection_equivariance(self, delta_s1_L10):
        sd = delta_s1_L10
        seeds_plus = {"asymmetric": 0.1 * (sd.psi0.eigenfunction
                                           + 0.3 * sd.psi1.eigenfunction)}
        seeds_minus = {"asymmetric": ls.reflect(seeds_plus["asymmetric"])}
        step = 0.2 * sd.n_cr_fd * sd.a[0, 0, 0, 0]
        kw = dict(omega_start=sd.omega0 - 0.25 * step,
                  omega_end=sd.omega0 - 15 * step, step=step)
        cp = bs.continue_in_omega(sd.spec, sd.grid, seeds=seeds_plus, **kw)
        cm = bs.continue_in_omega(sd.spec, sd.grid, seeds=seeds_minus, **kw)
        assert np.allclose(cp.n, cm.n, atol=1e-8)
        assert np.allclose(cp.asymmetry, -cm.asymmetry, atol=1e-8)

    def test_symmetric_branch_clean(self, delta_s1_L10):
        curve, _ = trace_and_detect(delta_s1_L10, n_steps=40)
        noise = max(abs(curve.asymmetry[i])
                    for i, b in enumerate(curve.branch) if b == bs.SYMMETRIC)
        assert noise < 1e-9

    def test_dn_domega_negative_small_amplitude(self, delta_s1_L10):
        # focusing branch: N grows as Omega decreases (monitored property)
        curve, _ = trace_and_detect(delta_s1_L10, n_steps=30)
        # both seed families are symmetric below threshold, so dedupe by omega
        sym = {}
        for i, b in enumerate(curve.branch):
            if b == bs.SYMMETRIC:
                sym[float(curve.omega[i])] = float(curve.n[i])
        omegas = sorted(sym, reverse=True)
        n_vals = [sym[o] for o in omegas[:len(omegas) // 2]]
        assert all(a < b for a, b in zip(n_vals, n_vals[1:]))

    def test_indefinite_resolvent_loses_branch_with_cause(self,
                                                           delta_s1_L10):
        sd = delta_s1_L10
        step = 0.01
        with pytest.raises(BranchLost) as info:
            bs.continue_in_omega(sd.spec, sd.grid, sd.omega0 + 1.5 * step,
                                 sd.omega0 - step, step,
                                 {"symmetric": 0.05 * sd.psi0.eigenfunction})
        assert isinstance(info.value.__cause__, IterationDiverged)
        assert "not positive definite" in str(info.value.__cause__)

    @pytest.mark.parametrize("info, poison, message", [
        (1, 1.0, "L+ solve failed (info 1)"),
        (0, np.nan, "non-finite Newton step")], ids=["info", "nan_step"])
    def test_failed_newton_solve_loses_branch_with_cause(
            self, delta_s1_L10, monkeypatch, info, poison, message):
        def failing_solve(dl, d, du, b, **kw):
            return dl, d, du, poison * b, info

        monkeypatch.setattr(bs, "dgtsv", failing_solve)
        sd = delta_s1_L10
        step = 0.01
        om = sd.omega0 - 0.5 * step
        with pytest.raises(BranchLost) as caught:
            bs.continue_in_omega(sd.spec, sd.grid, om, om - step, step,
                                 {"symmetric": 0.05 * sd.psi0.eigenfunction})
        cause = caught.value.__cause__
        assert isinstance(cause, IterationDiverged)
        assert str(cause) == f"{message} at Omega = {om:.17g}"

    def test_grid_point_next_to_the_pitchfork(self, gauss_sigma1_L3,
                                              gauss_threshold):
        # this grid puts a point 1e-4 above omega*, where L+ is nearly
        # singular; the asymmetric family must still converge there and
        # at every point, symmetric above omega* and asymmetric below it
        sd = gauss_sigma1_L3
        thr, seeds = gauss_threshold
        step = 0.0036355586499696546
        curve = bs.continue_in_omega(sd.spec, sd.grid,
                                     sd.omega0 - 0.25 * step,
                                     sd.omega0 - 20 * step, step,
                                     {"asymmetric": seeds["asymmetric"]})
        above = curve.omega > thr.omega_star
        nearest = int(np.argmin(np.where(above, curve.omega, np.inf)))
        assert curve.omega[nearest] - thr.omega_star == pytest.approx(
            1e-4, rel=1e-3)
        assert curve.branch[nearest] == bs.SYMMETRIC
        for i, b in enumerate(curve.branch):
            assert (b == bs.SYMMETRIC) == bool(above[i])

    def test_csv_layout(self, delta_s1_L10):
        curve, _ = trace_and_detect(delta_s1_L10, n_steps=10)
        lines = curve.to_csv().strip().split("\n")
        assert lines[0] == "omega,n,asymmetry,branch"
        assert len(lines) == len(curve.omega) + 1


class TestThreshold:
    def test_synthetic_curve(self):
        # constructed input: asymmetry = max(0, N - 0.1)
        n = np.linspace(0.01, 0.3, 40)
        asym = np.maximum(0.0, n - 0.1)
        branch = [bs.SYMMETRIC if a == 0 else bs.ASYM_PLUS for a in asym]
        curve = bs.SolitonCurve(omega=-n.copy(), n=n, asymmetry=asym,
                                branch=branch)
        n_star = bs.detect_threshold(curve).n_star
        assert n_star == pytest.approx(0.1, abs=0.01)

    def test_delta_wells_match_reduction(self, grid40):
        gaps = []
        for sep in (10.0, 14.0):
            sd = ls.spectral_data(ls.PotentialSpec("delta", 1.0, sep), grid40)
            curve, seeds = trace_and_detect(sd)
            n_star = bs.detect_threshold(curve, sd.spec, sd.grid, seeds).n_star
            gaps.append(abs(n_star - sd.n_cr_fd) / sd.n_cr_fd)
        assert gaps[0] <= 0.5
        assert gaps[1] < gaps[0]

    def test_gaussian_pitchfork_exists(self, gauss_sigma1_L3):
        curve, seeds = trace_and_detect(gauss_sigma1_L3)
        n_star = bs.detect_threshold(curve, gauss_sigma1_L3.spec,
                                     gauss_sigma1_L3.grid, seeds).n_star
        assert n_star > 0
        labels = set(curve.branch)
        assert bs.ASYM_PLUS in labels or bs.ASYM_MINUS in labels

    def test_no_bifurcation_single_well(self, grid40):
        # sL <= 2: no odd state, no second mode, no pitchfork; seeds are
        # built by hand since the linear problem has one bound state only
        spec = ls.PotentialSpec("delta", 1.0, 1.5)
        pair = ls.compute_eigenpairs(spec, grid40, count=1)[0]
        bump = pair.eigenfunction * (1.0 + 0.3 * np.tanh(grid40.x))
        seeds = {"symmetric": 0.1 * pair.eigenfunction, "asymmetric": 0.1 * bump}
        step = 2e-3
        curve = bs.continue_in_omega(spec, grid40,
                                     pair.eigenvalue - 0.25 * step,
                                     pair.eigenvalue - 20 * step, step, seeds)
        with pytest.raises(NoBifurcationFound):
            bs.detect_threshold(curve)

    def test_odd_lplus_eigenvalue_vanishes_at_root(self, gauss_sigma1_L3,
                                                   gauss_threshold):
        sd = gauss_sigma1_L3
        thr, _ = gauss_threshold
        state = bs.spectral_renormalize(_pinned(sd), sd.grid, thr.omega_star,
                                        0.1 * sd.psi0.eigenfunction,
                                        symmetrize=True)
        assert state.n == pytest.approx(thr.n_star, rel=1e-8)
        lp = ls.pinned_hamiltonian(sd.spec, sd.grid).shifted(
            state.omega).shifted(3.0 * state.profile[1:] ** 2)
        lam, vec = eigh_tridiagonal(lp.diag, lp.off, select="i",
                                    select_range=(0, 1))
        # roundoff of the eigenvalue: eps times the operator's row-sum norm
        norm = np.max(np.abs(lp.diag) + 2.0 * np.abs(lp.off[0]))
        tol = 32 * np.finfo(float).eps * norm
        assert abs(lam[1]) <= tol
        assert abs(thr.odd_eigenvalue) <= tol
        assert lam[0] < -1e-3                  # the even direction, L+ psi
        # free node j (1..n-1) reflects to n - j: reversed order
        even, odd = vec[:, 0], vec[:, 1]
        assert np.max(np.abs(even - even[::-1])) <= 1e-10
        assert np.max(np.abs(odd + odd[::-1])) <= 1e-10

    # 0.5% of the way from the root to the linear level: closer than the
    # bias that a 2,000-sweep classification leaves; no sweep budget, so
    # the solve must converge (or raise)
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_unbudgeted_asymmetric_seed_flips_at_root(self, gauss_sigma1_L3,
                                                      gauss_threshold, side):
        sd = gauss_sigma1_L3
        thr, seeds = gauss_threshold
        om = thr.omega_star + side * 0.005 * (sd.omega0 - thr.omega_star)
        st = bs.spectral_renormalize(_pinned(sd), sd.grid, om,
                                     seeds["asymmetric"], max_iter=1_000_000)
        if side < 0:
            assert abs(st.asymmetry) > 1e-2 * st.n
        else:
            assert abs(st.asymmetry) < 1e-6 * st.n
