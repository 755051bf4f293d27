import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwnls.errors import (
    ConvergenceFailure,
    DegenerateDenominator,
    DomainTooSmall,
    GridMismatch,
    OddStateAbsent,
)
from dwnls.grids import Grid, inner
from dwnls.io_utils import dumps_17g
from dwnls import linear_spectrum as ls


def bisect_root(f, lo, hi, tol=1e-14, max_iter=200):
    """Plain bisection, the independent oracle for the transcendental roots."""
    flo, fhi = f(lo), f(hi)
    assert flo * fhi <= 0.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < tol:
            return mid
        if flo * fm < 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


class TestDoubleDeltaLevels:
    def test_decoupled_limit(self):
        # e^{-kappa L} below machine epsilon: single-well kappa = s/2
        ke, ko = ls.solve_double_delta_levels(1.0, 1e6)
        assert ke == pytest.approx(0.5, abs=1e-15)
        assert ko == pytest.approx(0.5, abs=1e-15)

    def test_odd_state_absent_for_small_sL(self):
        with pytest.raises(OddStateAbsent):
            ls.solve_double_delta_levels(1.0, 1.0)
        # sign analysis: f(kappa) = kappa - (s/2)(1 - e^{-kappa L}) has no
        # positive root when sL <= 2; confirm with a scan
        kk = np.linspace(1e-8, 1.0, 20000)
        f = kk - 0.5 * (1.0 - np.exp(-kk * 1.0))
        assert np.all(f > 0.0)

    def test_against_bisection_oracle(self):
        s, L = 1.0, 10.0
        ke, ko = ls.solve_double_delta_levels(s, L)
        ke_o = bisect_root(lambda k: k - 0.5 * s * (1 + np.exp(-k * L)),
                           0.5 * s, s)
        ko_o = bisect_root(lambda k: k - 0.5 * s * (1 - np.exp(-k * L)),
                           1e-8, 0.5 * s)
        assert ke == pytest.approx(ke_o, abs=1e-12)
        assert ko == pytest.approx(ko_o, abs=1e-12)
        assert 0 < ko < 0.5 * s < ke
        omega10 = ke**2 - ko**2
        assert 0 < omega10 < 0.01

    def test_residuals(self):
        for s, L in ((1.0, 10.0), (4.0, 2.5), (0.7, 6.0)):
            ke, ko = ls.solve_double_delta_levels(s, L)
            assert abs(ke - 0.5 * s * (1 + np.exp(-ke * L))) < 1e-12
            assert abs(ko - 0.5 * s * (1 - np.exp(-ko * L))) < 1e-12


class TestBuildPotential:
    def test_gaussian_minimum(self, grid40):
        spec = ls.PotentialSpec("gauss", 1.0, 3.0)
        v = ls.potential_samples(spec, grid40)
        expected = -(4 * np.pi) ** -0.5 * (1 + np.exp(-9.0))
        assert ls.potential_value(spec, 3.0) == pytest.approx(expected, rel=1e-14)
        x_min = grid40.x[np.argmin(v)]
        assert abs(abs(x_min) - 3.0) <= grid40.dx

    def test_gaussian_symmetric_samples(self, grid40):
        v = ls.potential_samples(ls.PotentialSpec("gauss", 1.0, 3.0), grid40)
        assert np.array_equal(v, ls.reflect(v))

    def test_delta_nodes(self, grid40):
        # -s/dx exactly at the nodes +-snap(L/2) = +-5, zero elsewhere; the
        # second separation puts L/2 between nodes
        for sep in (10.0, 10.01):
            v = ls.potential_samples(ls.PotentialSpec("delta", 1.0, sep),
                                     grid40)
            nodes = np.flatnonzero(v)
            assert list(grid40.x[nodes]) == [-5.0, 5.0]
            assert np.all(v[nodes] == -1.0 / grid40.dx)

    def test_domain_too_small(self):
        small = Grid.symmetric(8.0, 256)
        with pytest.raises(DomainTooSmall):
            ls.potential_samples(ls.PotentialSpec("gauss", 1.0, 6.0), small)
        with pytest.raises(DomainTooSmall):
            ls.potential_samples(ls.PotentialSpec("delta", 0.5, 10.0), small)


class TestPinnedHamiltonian:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["delta", "gauss"]),
           strength=st.floats(1.0, 4.0), sep=st.floats(1.0, 4.0),
           n=st.sampled_from([8, 16, 64]), shift=st.floats(-50.0, 50.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_matrix(self, kind, strength, sep, n, shift, seed):
        # product, shift and quadratic form against the dense matrix of
        # -d2/dx2 + V on the free nodes 1..n-1; node 0 holds a NaN that
        # must never be read
        if kind == "gauss":
            strength /= 4.0                    # sigma in [0.25, 1]
        grid = Grid.symmetric(30.0, n)
        spec = ls.PotentialSpec(kind, strength, sep)
        v, dx = ls.potential_samples(spec, grid), grid.dx
        dense = np.diag(2.0 / dx**2 + v[1:]) \
            - (np.eye(n - 1, k=1) + np.eye(n - 1, k=-1)) / dx**2
        rng = np.random.default_rng(seed)
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        u[0] = np.nan
        free = u[1:]
        eps = np.finfo(float).eps
        h = ls.pinned_hamiltonian(spec, grid)
        full = h.apply(u)
        assert full[0] == 0.0
        for s in (0.0, shift, rng.normal(size=n - 1) * 10.0):
            hs = h.shifted(s)
            m = dense - np.diag(np.broadcast_to(s, n - 1))
            bound = 8 * eps * (np.abs(m) @ np.abs(free))
            assert np.all(np.abs(hs @ free - m @ free) <= bound)
            q = dx * float(np.vdot(free, m @ free).real)
            q_bound = 64 * eps * dx * float(np.abs(free) @ np.abs(m)
                                            @ np.abs(free))
            assert abs(hs.quadratic_form(free) - q) <= q_bound
        assert np.all(np.abs(full[1:] - dense @ free)
                      <= 8 * eps * (np.abs(dense) @ np.abs(free)))
        # a shift leaves the operator it was taken from as it was
        assert np.array_equal(h @ free, full[1:])


class TestEigenpairs:
    def test_delta_matches_transcendental_second_order(self):
        ke, ko = ls.solve_double_delta_levels(1.0, 10.0)
        exact = (-ke * ke, -ko * ko)
        errs = []
        for n in (2048, 4096):
            grid = Grid.symmetric(40.0, n)
            pairs = ls.compute_eigenpairs(ls.PotentialSpec("delta", 1.0, 10.0),
                                          grid)
            errs.append([abs(pairs[j].eigenvalue - exact[j]) for j in (0, 1)])
        # Richardson: halving dx divides the eigenvalue error by ~4
        for j in (0, 1):
            ratio = errs[0][j] / errs[1][j]
            assert 3.3 < ratio < 4.7

    def test_ordering_and_signs(self, delta_s1_L10, gauss_sigma1_L3):
        for sd in (delta_s1_L10, gauss_sigma1_L3):
            assert sd.omega0 < sd.omega1 < 0.0
            p0, p1 = sd.psi0.eigenfunction, sd.psi1.eigenfunction
            assert np.all(p0 >= -1e-12)
            right = p1[sd.grid.n_points // 2 + 1:]
            assert right[np.argmax(np.abs(right))] > 0

    def test_parity_exact(self, delta_s1_L10, gauss_sigma1_L3):
        for sd in (delta_s1_L10, gauss_sigma1_L3):
            p0, p1 = sd.psi0.eigenfunction, sd.psi1.eigenfunction
            assert np.max(np.abs(p0 - ls.reflect(p0))) <= 1e-10
            assert np.max(np.abs(p1 + ls.reflect(p1))) <= 1e-10

    def test_orthonormal(self, delta_s1_L10):
        grid = delta_s1_L10.grid
        p0, p1 = delta_s1_L10.psi0.eigenfunction, delta_s1_L10.psi1.eigenfunction
        assert abs(inner(p0, p0, grid) - 1.0) < 1e-10
        assert abs(inner(p1, p1, grid) - 1.0) < 1e-10
        assert abs(inner(p0, p1, grid)) < 1e-10

    def test_gaussian_bimodal(self, gauss_sigma1_L3):
        p0 = gauss_sigma1_L3.psi0.eigenfunction
        d = np.diff(p0)
        maxima = np.where((d[:-1] > 0) & (d[1:] <= 0))[0]
        xs = gauss_sigma1_L3.grid.x[maxima + 1]
        assert len(xs) == 2
        assert xs[0] == pytest.approx(-xs[1], abs=gauss_sigma1_L3.grid.dx)

    def test_odd_state_absent_on_grid(self, grid40):
        with pytest.raises(OddStateAbsent):
            ls.compute_eigenpairs(ls.PotentialSpec("delta", 1.0, 1.0), grid40)

    def test_eigenresidual(self, delta_s1_L10):
        sd = delta_s1_L10
        for pair in (sd.psi0, sd.psi1):
            res = ls.pinned_hamiltonian(sd.spec, sd.grid).apply(
                pair.eigenfunction) - pair.eigenvalue * pair.eigenfunction
            assert np.linalg.norm(res) <= 1e-8 * np.linalg.norm(pair.eigenfunction)


class TestOverlaps:
    def test_parity_zeros(self, delta_s1_L10):
        a = delta_s1_L10.a
        for idx in np.ndindex(2, 2, 2, 2):
            if sum(idx) % 2:
                assert a[idx] == 0.0

    def test_permutation_symmetry(self, delta_s1_L10):
        import itertools

        a = delta_s1_L10.a
        for idx in np.ndindex(2, 2, 2, 2):
            for perm in itertools.permutations(idx):
                assert a[idx] == pytest.approx(a[perm], abs=1e-14)

    def test_a0000_positive(self, delta_s1_L10):
        assert delta_s1_L10.a[0, 0, 0, 0] > 0.0

    def test_single_well_limit_ratio(self, grid40):
        # a0000 / a0011 -> 1 as the wells decouple
        ratios = []
        for L in (10.0, 14.0, 18.0):
            sd = ls.spectral_data(ls.PotentialSpec("delta", 1.0, L), grid40)
            ratios.append(sd.a[0, 0, 0, 0] / sd.a[0, 0, 1, 1])
        gaps = [abs(r - 1.0) for r in ratios]
        assert gaps[0] > gaps[1] > gaps[2]
        # and a0000 approaches the single-well value kappa/4 = s/8
        sd18 = ls.spectral_data(ls.PotentialSpec("delta", 1.0, 18.0), grid40)
        assert sd18.a[0, 0, 0, 0] == pytest.approx(1.0 / 8.0, rel=0.02)

    def test_grid_mismatch(self, delta_s1_L10):
        other = Grid.symmetric(40.0, 2048)
        sd2 = ls.spectral_data(ls.PotentialSpec("delta", 1.0, 10.0), other)
        with pytest.raises(GridMismatch):
            ls.overlap_coefficients(delta_s1_L10.psi0, sd2.psi1)


class TestCriticalPower:
    def test_unit_coefficients(self):
        a = np.zeros((2, 2, 2, 2))
        for idx in np.ndindex(2, 2, 2, 2):
            if sum(idx) % 2 == 0:
                a[idx] = 1.0
        # with unit coefficients the critical power is Omega10 / 2
        assert ls.critical_power(-0.25, -0.20, a) == pytest.approx(0.025,
                                                                   rel=1e-14)

    def test_oracle_values(self):
        # double-delta s=1, L=10 oracle eigenvalues via bisection
        ke = bisect_root(lambda k: k - 0.5 * (1 + np.exp(-10 * k)), 0.5, 1.0)
        ko = bisect_root(lambda k: k - 0.5 * (1 - np.exp(-10 * k)), 1e-8, 0.5)
        omega0, omega1 = -ke * ke, -ko * ko
        # quoted reference values are rounded to ~3 decimals
        assert omega0 == pytest.approx(-0.2533, abs=3e-4)
        assert omega1 == pytest.approx(-0.2468, abs=3e-4)
        a = np.zeros((2, 2, 2, 2))
        for idx in np.ndindex(2, 2, 2, 2):
            if sum(idx) % 2 == 0:
                a[idx] = 1.0
        assert ls.critical_power(omega0, omega1, a) == pytest.approx(
            (omega1 - omega0) / 2, rel=1e-14)

    def test_degenerate_denominator(self):
        a = np.zeros((2, 2, 2, 2))
        a[0, 0, 0, 0] = 3.0
        a[0, 0, 1, 1] = 1.0
        with pytest.raises(DegenerateDenominator):
            ls.critical_power(-0.25, -0.2, a)

    def test_direct_parameter_use(self):
        # reduced-dynamics studies accept N_cr directly
        from dwnls.reduced_dynamics import ReducedParams

        params = ReducedParams.from_ncr(0.2)
        assert params.n_cr_fd == pytest.approx(0.2, rel=1e-14)


class TestSplittingMonotone:
    def test_omega10_decreases_with_L(self, grid40):
        omega10 = []
        for L in (6.0, 8.0, 10.0, 12.0):
            sd = ls.spectral_data(ls.PotentialSpec("delta", 1.0, L), grid40)
            omega10.append(sd.omega10)
        assert all(a > b for a, b in zip(omega10, omega10[1:]))


class TestSerialization:
    def test_json_roundtrip(self, delta_s1_L10):
        text = dumps_17g(delta_s1_L10.to_json_dict())
        back = json.loads(text)
        assert back["omega0"] == delta_s1_L10.omega0
        assert back["omega1"] == delta_s1_L10.omega1
        assert len(back["a"]) == 16
        flat = delta_s1_L10.a.reshape(-1)
        assert back["a"] == pytest.approx(list(flat), abs=0.0)
        assert back["n_cr_fd"] == delta_s1_L10.n_cr_fd
        assert back["spec"]["kind"] == "delta"

    def test_eigenfunction_csv(self, delta_s1_L10):
        text = ls.eigenfunctions_to_csv(delta_s1_L10)
        lines = text.strip().split("\n")
        assert lines[0] == "x,psi0,psi1"
        assert len(lines) == delta_s1_L10.grid.n_points + 1
        x0, p00, p10 = (float(v) for v in lines[1].split(","))
        assert x0 == delta_s1_L10.grid.x[0]


class TestWellTuning:
    def test_strength_tuning_hits_target(self, shadow_well):
        assert shadow_well.n_cr_fd == pytest.approx(0.1, rel=1e-8)

    def test_separation_tuning_hits_target(self, shadow_grid):
        sd = ls.tune_delta_well_for_ncr(0.05, shadow_grid)
        assert sd.n_cr_fd == pytest.approx(0.05, rel=1e-8)
        # strength stays near the base value; separation does the scaling
        assert 0.7 * 4.0 <= sd.spec.strength <= 1.45 * 4.0
