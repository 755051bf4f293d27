import numpy as np
import pytest
from scipy.linalg import expm

from dwnls.errors import BelowThreshold, InvalidEquilibrium, NotPeriodic, SaddleCase
from dwnls import bifurcation as bf
from dwnls import reduced_dynamics as rd


PARAMS = rd.ReducedParams.from_ncr(0.1, omega0=-1.0)


class TestEquilibria:
    def test_below_threshold_only_symmetric(self):
        eqs = bf.equilibria(0.05, 0.1)
        assert len(eqs) == 1
        assert eqs[0].kind == bf.SYMMETRIC
        assert eqs[0].A == pytest.approx(np.sqrt(0.05), rel=1e-15)

    def test_above_threshold_three(self):
        eqs = bf.equilibria(0.15, 0.1)
        assert [e.kind for e in eqs] == [bf.SYMMETRIC, bf.ASYM_PLUS,
                                         bf.ASYM_MINUS]
        assert eqs[1].A == pytest.approx(np.sqrt(0.125), rel=1e-14)
        assert eqs[1].alpha == pytest.approx(np.sqrt(0.025), rel=1e-14)
        assert eqs[2].alpha == pytest.approx(-np.sqrt(0.025), rel=1e-14)

    def test_pitchfork_birth(self):
        eqs = bf.equilibria(0.1, 0.1)
        assert len(eqs) == 3
        assert eqs[1].alpha == 0.0

    def test_stationarity(self):
        # each equilibrium satisfies the rotating-frame stationarity system
        for n_level in (0.08, 0.2):
            for eq in bf.equilibria(n_level, 0.1, omega0=PARAMS.omega0):
                d = rd.chart_field(rd.CARTESIAN, PARAMS)(
                    *rd.pack(eq.chart_state()))
                assert max(abs(v) for v in d[:3]) < 1e-14
                # rotation consistency: theta' = -Omega*
                assert d[3] == pytest.approx(-eq.rotation, rel=1e-12)

    def test_rotation_merges_at_pitchfork(self):
        sym = bf.equilibria(0.1, 0.1, omega0=-1.0)[0]
        asym = bf.equilibria(0.1, 0.1, omega0=-1.0)[1]
        assert sym.rotation == pytest.approx(asym.rotation, rel=1e-14)


class TestLinearize:
    def test_closed_forms_at_examples(self):
        rep = bf.linearize(bf.equilibria(0.05, 0.1)[0], 0.05, 0.1)
        lam = rep.eigenvalues_closed[0]
        assert lam == pytest.approx(2j * np.sqrt(0.005), rel=1e-14)
        assert rep.classification == bf.ELLIPTIC

        rep = bf.linearize(bf.equilibria(0.15, 0.1)[0], 0.15, 0.1)
        lam = rep.eigenvalues_closed[0]
        assert lam == pytest.approx(2 * np.sqrt(0.005), rel=1e-14)
        assert rep.classification == bf.SADDLE

        rep = bf.linearize(bf.equilibria(0.15, 0.1)[1], 0.15, 0.1)
        lam = rep.eigenvalues_closed[0]
        assert lam == pytest.approx(2j * np.sqrt(0.0125), rel=1e-14)
        assert rep.classification == bf.ELLIPTIC

    def test_numeric_matches_closed(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            ncr = rng.uniform(0.05, 0.3)
            n_level = rng.uniform(0.2 * ncr, 3.0 * ncr)
            for eq in bf.equilibria(n_level, ncr):
                rep = bf.linearize(eq, n_level, ncr)
                lam = rep.eigenvalues_closed[0]
                nums = rep.eigenvalues_numeric
                closest = nums[np.argmin(np.abs(nums - lam))]
                assert abs(closest - lam) < 1e-6

    def test_invalid_equilibrium(self):
        eq = bf.equilibria(0.15, 0.1)[1]
        with pytest.raises(InvalidEquilibrium):
            bf.linearize(eq, 0.2, 0.1)

    def test_matrix_entries_symmetric(self):
        # tB-symm pattern: off-diagonal 2 n_cr and 2 (N - n_cr)
        rep = bf.linearize(bf.equilibria(0.15, 0.1)[0], 0.15, 0.1)
        bt = rep.b_reduced
        assert bt[0, 1] == pytest.approx(2 * 0.1, rel=1e-14)
        assert bt[1, 0] == pytest.approx(2 * (0.15 - 0.1), rel=1e-14)
        assert np.all(bt[2, :] == 0.0) and np.all(bt[:, 2] == 0.0)

    def test_matrix_entries_asymmetric(self):
        # tB-asymm pattern including the 2 sqrt(N^2 - n_cr^2) entry
        n_level, ncr = 0.15, 0.1
        rep = bf.linearize(bf.equilibria(n_level, ncr)[1], n_level, ncr)
        bt = rep.b_reduced
        s = np.sqrt(n_level**2 - ncr**2)
        assert bt[0, 1] == pytest.approx(n_level + ncr, rel=1e-14)
        assert bt[1, 0] == pytest.approx(-2 * (n_level - ncr), rel=1e-14)
        assert bt[1, 2] == pytest.approx(2 * s, rel=1e-12)
        assert bt[2, 1] == pytest.approx(-s, rel=1e-12)


class TestFiniteDifferenceJacobian:
    def test_matches_closed_form_at_equilibria(self):
        for n_level in (0.05, 0.15):
            for eq in bf.equilibria(n_level, 0.1):
                j3, j4 = bf.finite_difference_jacobian(eq.chart_state(), PARAMS)
                bt = bf.b_tilde(eq.alpha, eq.beta, eq.A, 0.1)
                b4 = bf.b_full(eq.alpha, eq.beta, eq.A, 0.1)
                assert np.max(np.abs(j3 - bt)) < 1e-8
                assert np.max(np.abs(j4 - b4)) < 1e-8

    def test_matches_along_generic_state(self):
        st = rd.CartesianChart(A=0.31, alpha=0.07, beta=-0.04, theta=0.2)
        j3, _ = bf.finite_difference_jacobian(st, PARAMS)
        bt = bf.b_tilde(st.alpha, st.beta, st.A, 0.1)
        assert np.max(np.abs(j3 - bt)) < 1e-8

    def test_zero_state_linear_block(self):
        # at the origin only the linear terms survive: J has the Omega10
        # off-diagonal block in (alpha, beta) (A-row needs A > 0, so use a
        # tiny amplitude and a loose tolerance)
        st = rd.CartesianChart(A=1e-4, alpha=0.0, beta=0.0)
        j3, _ = bf.finite_difference_jacobian(st, PARAMS)
        om10 = PARAMS.omega10
        assert j3[0, 1] == pytest.approx(om10, abs=1e-7)
        assert j3[1, 0] == pytest.approx(-om10, abs=1e-7)
        assert abs(j3[0, 0]) < 1e-7 and abs(j3[2, 2]) < 1e-7

    def test_h_bounds(self):
        eq = bf.equilibria(0.15, 0.1)[1]
        with pytest.raises(ValueError):
            bf.finite_difference_jacobian(eq.chart_state(), PARAMS, h=1e-2)


class TestStabilityExchange:
    def test_classification_flip_at_threshold(self):
        ncr = 0.1

        def is_saddle(n_level):
            eq = bf.equilibria(n_level, ncr)[0]
            return bf.linearize(eq, n_level, ncr).classification == bf.SADDLE

        lo, hi = 0.5 * ncr, 1.5 * ncr
        assert not is_saddle(lo) and is_saddle(hi)
        while hi - lo > 1e-11 * ncr:
            mid = 0.5 * (lo + hi)
            if is_saddle(mid):
                hi = mid
            else:
                lo = mid
        assert abs(0.5 * (lo + hi) - ncr) < 1e-10 * ncr


class TestLinearFlow:
    def test_identity_at_zero(self):
        eq = bf.equilibria(0.05, 0.1)[0]
        assert np.allclose(bf.linear_flow(eq, 0.0, 0.05, 0.1), np.eye(4),
                           atol=1e-14)

    def test_matches_numeric_exponential(self):
        for n_level, idx in ((0.05, 0), (0.15, 1)):
            eq = bf.equilibria(n_level, 0.1)[idx]
            t_lin = bf.linear_period(eq, n_level, 0.1)
            b4 = bf.b_full(eq.alpha, eq.beta, eq.A, 0.1)
            for t in (0.3 * t_lin, t_lin):
                closed = bf.linear_flow(eq, t, n_level, 0.1)
                assert np.max(np.abs(closed - expm(b4 * t))) < 1e-8

    def test_secular_phase_row(self):
        n_level = 0.05
        eq = bf.equilibria(n_level, 0.1)[0]
        t = 37.0
        m = bf.linear_flow(eq, t, n_level, 0.1)
        assert m[3, 2] == pytest.approx(2 * np.sqrt(n_level) * t, rel=1e-12)

    def test_quarter_period_entry(self):
        n_level, ncr = 0.05, 0.1
        eq = bf.equilibria(n_level, ncr)[0]
        t = 0.25 * bf.linear_period(eq, n_level, ncr)
        m = bf.linear_flow(eq, t, n_level, ncr)
        assert m[0, 1] == pytest.approx(np.sqrt(ncr / (ncr - n_level)),
                                        rel=1e-10)

    def test_saddle_case(self):
        eq = bf.equilibria(0.15, 0.1)[0]
        with pytest.raises(SaddleCase):
            bf.linear_flow(eq, 1.0, 0.15, 0.1)

    def test_linear_period_consistency(self):
        # 2 pi / |lambda| identities
        assert bf.linear_period(bf.equilibria(0.05, 0.1)[0], 0.05, 0.1) == \
            pytest.approx(np.pi / np.sqrt(0.05 * 0.1), rel=1e-14)
        assert bf.linear_period(bf.equilibria(0.15, 0.1)[1], 0.15, 0.1) == \
            pytest.approx(np.pi / np.sqrt(0.15**2 - 0.1**2), rel=1e-14)
        with pytest.raises(SaddleCase):
            bf.linear_period(bf.equilibria(0.15, 0.1)[0], 0.15, 0.1)


def small_orbit(n_level, ncr, amp, steps=4000, periods=3.2):
    eq = bf.equilibria(n_level, ncr)[1 if n_level > ncr else 0]
    t_lin = bf.linear_period(eq, n_level, ncr)
    ic = rd.CartesianChart(A=np.sqrt(n_level - (eq.alpha + amp)**2),
                           alpha=eq.alpha + amp, beta=0.0)
    traj = rd.integrate(ic, PARAMS, (0.0, periods * t_lin), t_lin / steps)
    return eq, t_lin, traj


class TestMonodromy:
    def test_degenerate_orbit_equals_exponential(self):
        # constant-coefficient case: the flow at an elliptic equilibrium
        eq = bf.equilibria(0.15, 0.1)[1]
        t_lin = bf.linear_period(eq, 0.15, 0.1)
        ic = eq.chart_state()
        traj = rd.integrate(ic, PARAMS, (0.0, 1.2 * t_lin), t_lin / 4000)
        rep = bf.monodromy(traj, PARAMS, period=t_lin, dt=t_lin / 16000)
        # secular theta-row entries are O(2 sqrt(N) T) ~ 40, so compare
        # entrywise at mixed tolerance
        lf = bf.linear_flow(eq, t_lin, 0.15, 0.1)
        assert np.max(np.abs(rep.monodromy - lf) / (1.0 + np.abs(lf))) < 1e-6

    def test_floquet_structure_small_orbit(self):
        _, _, traj = small_orbit(0.15, 0.1, 0.01)
        rep = bf.monodromy(traj, PARAMS, period=rd.detect_period(traj))
        assert rep.defect_of_unit_pair < 1e-6
        assert rep.product_defect < 1e-8
        assert np.max(np.abs(np.abs(rep.multipliers_full) - 1.0)) < 1e-6

    def test_monodromy_converges_to_exponential(self):
        # amplitude ladder 1e-2, 1e-3, 1e-4 of |N - n_cr|
        gaps = []
        for amp_frac in (1e-2, 1e-3, 1e-4):
            eq, t_lin, traj = small_orbit(0.15, 0.1, amp_frac * 0.05)
            period = rd.detect_period(traj)
            rep = bf.monodromy(traj, PARAMS, period=period)
            ebt = bf.linear_flow(eq, period, 0.15, 0.1)
            gaps.append(np.max(np.abs(rep.monodromy[:3, :3] - ebt[:3, :3])))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_walks_the_orbit_of_integrate(self, monkeypatch):
        # the monodromy's orbit is integrate's implicit midpoint at the
        # same dt, bit for bit
        _, _, traj = small_orbit(0.15, 0.1, 0.01)
        period = rd.detect_period(traj)
        dt = period / 3000
        ends = []
        path = bf._implicit_midpoint_path

        def spy(*args, **kwargs):
            times, states = path(*args, **kwargs)
            ends.append(states[-1])
            return times, states

        monkeypatch.setattr(bf, "_implicit_midpoint_path", spy)
        bf.monodromy(traj, PARAMS, period=period, dt=dt)
        ref = rd.integrate(rd.convert(traj.state(0), rd.CARTESIAN), PARAMS,
                           (0.0, period), dt)
        assert len(ends) == 1
        assert np.array_equal(ends[0], ref.states[-1])

    def test_not_periodic(self):
        _, _, traj = small_orbit(0.15, 0.1, 0.01)
        with pytest.raises(NotPeriodic):
            bf.monodromy(traj, PARAMS, period=10.0)


class TestEnergyBarrier:
    def test_vanishes_at_threshold(self):
        vals = [bf.energy_barrier(0.1 + eps, 0.1) for eps in (0.04, 0.02, 0.01)]
        assert vals[0] > vals[1] > vals[2] > 0.0
        assert vals[2] < 1e-4

    def test_closed_form_value(self):
        # direct substitution gives (N - n_cr)^2 / 2
        assert bf.energy_barrier(0.15, 0.1) == pytest.approx(0.05**2 / 2,
                                                             rel=1e-12)

    def test_below_threshold_raises(self):
        with pytest.raises(BelowThreshold):
            bf.energy_barrier(0.05, 0.1)

    def test_separatrix_trajectory_oracle(self):
        # an orbit launched just inside the separatrix carries H close to
        # the saddle level, so its gap to the center level approximates
        # the barrier
        n_level, ncr = 0.15, 0.1
        eps = 1e-3
        ic = rd.CartesianChart(A=np.sqrt(n_level - eps**2), alpha=eps,
                               beta=0.0)
        params = rd.ReducedParams.from_ncr(ncr, omega0=0.0)
        h_orbit = rd.invariants(ic, params)[1]
        eq = bf.equilibria(n_level, ncr)[1]
        h_center = rd.invariants(eq.chart_state(), params)[1]
        barrier = bf.energy_barrier(n_level, ncr)
        assert h_orbit - h_center == pytest.approx(barrier, rel=1e-3)
