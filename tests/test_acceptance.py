"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see the lines as they happen).

The shadowing runs (criteria 9 and 10) share module-scoped pipelines on the
tuned delta well with measured critical power 0.1.

When DWNLS_ACCEPTANCE_JSON names a file, the numbers behind every criterion
that ran are written there once, after the last test of the module, as
{criterion: {name: value}} with each float at 17 significant digits.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from dwnls.grids import Grid, norm2
from dwnls import bifurcation as bf
from dwnls import bound_states as bs
from dwnls import linear_spectrum as ls
from dwnls import pde
from dwnls import reduced_dynamics as rd
from dwnls import shadowing as sh
from well_tuning import tune_delta_well_for_ncr


_NUMBERS = {}


def report(criterion, ok, detail, numbers):
    """Print the criterion's PASS/FAIL line and keep its numbers; a list
    value is kept as name[0], name[1], ..."""
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {criterion}: {status} ({detail})")
    flat = {}
    for name, value in numbers.items():
        if isinstance(value, (list, tuple, np.ndarray)):
            flat.update((f"{name}[{i}]", v) for i, v in enumerate(value))
        else:
            flat[name] = value
    _NUMBERS[str(criterion)] = flat
    return ok


def _json_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    v = float(v)
    return format(v, ".17g") if math.isfinite(v) else json.dumps(v)


@pytest.fixture(scope="module", autouse=True)
def acceptance_numbers():
    yield
    path = os.environ.get("DWNLS_ACCEPTANCE_JSON")
    if path:
        lines = ",\n".join(
            f"  {json.dumps(c)}: {{"
            + ", ".join(f"{json.dumps(k)}: {_json_value(v)}"
                        for k, v in nums.items()) + "}"
            for c, nums in _NUMBERS.items())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{\n" + lines + "\n}\n")


# ----------------------------------------------------------------------
# 1. closed-form eigenvalues vs finite-difference Jacobians
# ----------------------------------------------------------------------

def test_criterion_01_eigenvalue_formulas():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        ncr = rng.uniform(0.05, 0.3)
        n_level = rng.uniform(0.2 * ncr, 3.0 * ncr)
        params = rd.ReducedParams.from_ncr(ncr, omega0=-1.0)
        for eq in bf.equilibria(n_level, ncr):
            lam = bf.closed_form_eigenvalues(eq, n_level, ncr)[0]
            j3, _ = bf.finite_difference_jacobian(eq.chart_state(), params)
            nums = np.linalg.eigvals(j3)
            worst = max(worst, float(np.min(np.abs(nums - lam))))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    # the elapsed time is a bound of the criterion, not a number it computes
    assert report(1, ok, f"max eigenvalue gap {worst:.2e}, {elapsed:.2f}s",
                  {"max_eigenvalue_gap": worst})


# ----------------------------------------------------------------------
# 2. stability exchange localized at N = n_cr
# ----------------------------------------------------------------------

def test_criterion_02_stability_exchange():
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
    gap = abs(0.5 * (lo + hi) - ncr)
    ok = gap <= 1e-10 * ncr
    assert report(2, ok, f"flip located within {gap:.2e} of n_cr",
                  {"flip_gap": gap})


# ----------------------------------------------------------------------
# 3. period asymptotics
# ----------------------------------------------------------------------

def _measured_period(n_level, ncr, amp):
    params = rd.ReducedParams.from_ncr(ncr, omega0=-1.0)
    idx = 1 if n_level > ncr else 0
    eq = bf.equilibria(n_level, ncr)[idx]
    t_lin = bf.linear_period(eq, n_level, ncr)
    ic = rd.CartesianChart(A=np.sqrt(n_level - (eq.alpha + amp) ** 2),
                           alpha=eq.alpha + amp, beta=0.0)
    traj = rd.integrate(ic, params, (0.0, 8.5 * t_lin), t_lin / 4000)
    return rd.detect_period(traj), t_lin


def test_criterion_03_period_asymptotics():
    ok = True
    details = []
    numbers = {}
    for n_level, ncr in ((0.15, 0.1), (0.05, 0.1)):
        scale = abs(n_level - ncr)
        errs = []
        for amp in (1e-2 * scale, 1e-3 * scale):
            period, t_lin = _measured_period(n_level, ncr, amp)
            errs.append(abs(period - t_lin) / t_lin)
        ok &= errs[0] <= 1e-2
        ok &= errs[1] <= errs[0] / 4.0
        details.append(f"N={n_level}: err {errs[0]:.2e} -> {errs[1]:.2e}")
        numbers[f"period_error_N{n_level}"] = errs
    assert report(3, ok, "; ".join(details), numbers)


# ----------------------------------------------------------------------
# 4. invariant conservation over 100 linear periods
# ----------------------------------------------------------------------

def test_criterion_04_invariant_conservation():
    params = rd.ReducedParams.from_ncr(0.1, omega0=-1.0)
    eq = bf.equilibria(0.15, 0.1)[1]
    t_lin = bf.linear_period(eq, 0.15, 0.1)
    amp = 1e-2 * 0.05
    ic = rd.CartesianChart(A=np.sqrt(0.15 - (eq.alpha + amp) ** 2),
                           alpha=eq.alpha + amp, beta=0.0)
    traj = rd.integrate(ic, params, (0.0, 100 * t_lin), t_lin / 2000,
                        record_every=100)
    dn = float(np.max(np.abs(traj.n_series - traj.n_series[0])))
    dh = float(np.max(np.abs(traj.h_series - traj.h_series[0])))
    ok = dn <= 1e-9 and dh <= 1e-9
    assert report(4, ok, f"|dN| {dn:.2e}, |dH| {dh:.2e}", {"dN": dn, "dH": dh})


# ----------------------------------------------------------------------
# 5. Floquet structure of a small orbit about the asymmetric center
# ----------------------------------------------------------------------

def test_criterion_05_floquet_structure():
    params = rd.ReducedParams.from_ncr(0.1, omega0=-1.0)
    eq = bf.equilibria(0.15, 0.1)[1]
    t_lin = bf.linear_period(eq, 0.15, 0.1)
    ic = rd.CartesianChart(A=np.sqrt(0.15 - (eq.alpha + 0.01) ** 2),
                           alpha=eq.alpha + 0.01, beta=0.0)
    traj = rd.integrate(ic, params, (0.0, 3.2 * t_lin), t_lin / 4000)
    rep = bf.monodromy(traj, params, period=rd.detect_period(traj))
    circle = float(np.max(np.abs(np.abs(rep.multipliers_full) - 1.0)))
    ok = (rep.defect_of_unit_pair < 1e-6 and rep.product_defect <= 1e-8
          and circle < 1e-6)
    assert report(5, ok, f"unit pair {rep.defect_of_unit_pair:.1e}, "
                  f"product {rep.product_defect:.1e}, circle {circle:.1e}",
                  {"unit_pair_defect": rep.defect_of_unit_pair,
                   "product_defect": rep.product_defect, "circle": circle})


# ----------------------------------------------------------------------
# 6. polar phase-plane equilibria and dichotomy
# ----------------------------------------------------------------------

def test_criterion_06_polar_phase_plane():
    ncr, n = 0.2, 0.05
    worst = 0.0
    for k in (-1, 0, 1, 2):
        d1, d2 = rd.vf_polar_reduced(np.sqrt(n / 2), k * np.pi, n, ncr)
        worst = max(worst, abs(d1), abs(d2))
    ok = worst <= 1e-14

    def orbit(eps10, offset):
        # phaseplane's midpoint from (eps10, 0): dt 0.02, records every 0.2
        rows, _, _ = rd.polar_midpoint_orbit(eps10, 0.0, offset, ncr, 0.02,
                                             20000, 10)
        return np.array(rows)

    # trapped orbits for n > 0
    eps_star = np.sqrt(n / 2)
    rows = orbit(1.2 * eps_star, n)
    trapped = bool(np.all(rows[:, 0] > 0.3 * eps_star)
                   and np.max(np.abs(rows[:, 1])) < np.pi / 2)
    ok &= trapped
    # amplitude-vanishing oscillations for n < 0
    maxima = [float(np.max(orbit(eps10, -n)[:, 0]))
              for eps10 in (0.08, 0.04, 0.02)]
    shrinking = maxima[0] > maxima[1] > maxima[2]
    ok &= shrinking
    assert report(6, ok, f"equilibrium residual {worst:.1e}, trapped={trapped}, "
                  f"shrinking maxima {[f'{m:.3f}' for m in maxima]}",
                  {"equilibrium_residual": worst, "trapped": trapped,
                   "eps1_maxima": maxima})


# ----------------------------------------------------------------------
# 7. PDE solver validity
# ----------------------------------------------------------------------

def test_criterion_07_pde_solver():
    # (a) standing sech soliton under split-step
    grid = Grid.symmetric(20.0 * np.pi, 4096)
    u0 = np.sqrt(2.0) / np.cosh(grid.x) + 0j
    params = pde.EvolveParams(dt=1e-3, t_end=10.0, scheme="split_step",
                              record_every=10**9)
    final, _ = pde.evolve(u0, grid, params, np.zeros(grid.n_points))
    sech_dev = float(np.max(np.abs(np.abs(final) - np.abs(u0))))
    ok_a = sech_dev <= 1e-3

    # (b) CN mass conservation over 1e4 steps with a double-delta well
    grid2 = Grid.symmetric(40.0, 4096)
    spec = ls.PotentialSpec("delta", 1.0, 10.0)
    sd = ls.spectral_data(spec, grid2)
    u0 = (0.4 * sd.psi0 + 0.25 * sd.psi1) + 0j
    params = pde.EvolveParams(dt=1e-3, t_end=10.0, scheme="crank_nicolson",
                              record_every=2500)
    _, diags = pde.evolve(u0, grid2, params, ls.potential_samples(spec, grid2))
    mass_rel = float(np.max(np.abs(diags.mass - diags.mass[0]))
                     / diags.mass[0])
    ok_b = mass_rel <= 1e-8

    # (c) linear eigenmode evolution: two-level refinement ratio
    ke, _ = ls.solve_double_delta_levels(1.0, 10.0)
    errs = []
    mod_devs = []
    for n, dt in ((2048, 2e-3), (4096, 1e-3)):
        g = Grid.symmetric(40.0, n)
        sdg = ls.spectral_data(spec, g)
        u0 = sdg.psi0 + 0j
        p = pde.EvolveParams(dt=dt, t_end=5.0, scheme="crank_nicolson",
                             record_every=10**9, nonlinear=False)
        f, _ = pde.evolve(u0, g, p, ls.potential_samples(spec, g))
        mod_devs.append(float(np.max(np.abs(np.abs(f) - np.abs(u0)))))
        ref = np.exp(1j * ke * ke * 5.0) * u0
        errs.append(norm2(f - ref, g))
    ratio = errs[0] / errs[1]
    ok_c = 3.5 <= ratio <= 4.5 and max(mod_devs) < 1e-10
    ok = ok_a and ok_b and ok_c
    assert report(7, ok, f"sech dev {sech_dev:.1e}, mass {mass_rel:.1e}, "
                  f"refinement ratio {ratio:.2f}",
                  {"sech_dev": sech_dev, "cn_mass_rel": mass_rel,
                   "refinement_errors": errs, "refinement_ratio": ratio,
                   "modulus_devs": mod_devs})


# ----------------------------------------------------------------------
# 8. symmetry-breaking pitchfork on the soliton curve
# ----------------------------------------------------------------------

def test_criterion_08_pitchfork(grid40, gauss_sigma1_L3):
    # Gaussian well: asymmetric branch separates
    gsd = gauss_sigma1_L3
    seeds = bs.default_seeds(gsd)
    step = 0.05 * gsd.n_cr_fd * gsd.a[0, 0, 0, 0]
    curve = bs.continue_in_omega(gsd.spec, grid40, gsd.omega0 - 0.25 * step,
                                 gsd.omega0 - 60 * step, step, seeds)
    gauss_branches = {b for b in curve.branch if b != bs.SYMMETRIC}
    ok = bool(gauss_branches)

    # delta wells: threshold within 50% of the coefficient formula at L=10,
    # and the relative gap shrinks at L=14
    gaps = []
    for sep in (10.0, 14.0):
        sd = ls.spectral_data(ls.PotentialSpec("delta", 1.0, sep), grid40)
        seeds = bs.default_seeds(sd)
        step = 0.05 * sd.n_cr_fd * sd.a[0, 0, 0, 0]
        curve = bs.continue_in_omega(sd.spec, grid40, sd.omega0 - 0.25 * step,
                                     sd.omega0 - 60 * step, step, seeds)
        n_star = bs.detect_threshold(curve, sd.spec, grid40, seeds).n_star
        gaps.append(abs(n_star - sd.n_cr_fd) / sd.n_cr_fd)
    ok &= gaps[0] <= 0.5 and gaps[1] < gaps[0]
    assert report(8, ok, f"gaussian branch {bool(gauss_branches)}, "
                  f"delta gaps L10 {gaps[0]:.3f} -> L14 {gaps[1]:.3f}",
                  {"gaussian_branch": bool(gauss_branches),
                   "delta_threshold_gaps": gaps})


# ----------------------------------------------------------------------
# 9 and 10: shadowing pipelines (shared runs)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def side_reports(shadow_well):
    sp = sh.ShadowParams(tau=0.05, n_cr=0.1)
    below = sh.run_shadow_experiment(
        sp, shadow_well,
        sh.OrbitSpec(side="below", amplitude_factor=0.3,
                     horizon_periods=5.0, dt_pde=4e-3))
    above = sh.run_shadow_experiment(
        sp, shadow_well,
        sh.OrbitSpec(side="above", amplitude_factor=0.7,
                     horizon_periods=5.0, dt_pde=4e-3))
    return below, above


@pytest.fixture(scope="module")
def eta_ladder(shadow_grid):
    """Power-law-scaled ladder: per rung the well separation grows so the
    measured critical power equals tau**gamma at near-constant strength."""
    gamma = 0.8
    reports = []
    for tau, dt in ((0.05, 4e-3), (0.025, 3e-3), (0.0125, 2e-3)):
        sd = tune_delta_well_for_ncr(tau**gamma, shadow_grid)
        sp = sh.ShadowParams(tau=tau, gamma=gamma)
        orb = sh.OrbitSpec(side="below", amplitude_factor=0.3,
                           horizon_periods=3.0, dt_pde=dt)
        reports.append(sh.run_shadow_experiment(sp, sd, orb))
    return reports


@pytest.mark.slow
def test_criterion_09_annulus_and_eta0(side_reports):
    below, above = side_reports
    ok = True
    numbers = {}
    for rep, side in ((below, "below"), (above, "above")):
        eta0 = float(np.max(np.abs(rep.eta[0])))
        ok &= rep.annulus_ratio <= 0.2
        ok &= eta0 < 1e-12
        ok &= not rep.horizon_truncated
        numbers.update({f"annulus_ratio_{side}": rep.annulus_ratio,
                        f"eta0_{side}": eta0,
                        f"horizon_truncated_{side}": rep.horizon_truncated})
    assert report("9 (annulus, eta0)", ok,
                  f"annulus below {below.annulus_ratio:.3f}, "
                  f"above {above.annulus_ratio:.3f}, eta(0)=0 exact", numbers)


@pytest.mark.slow
def test_criterion_09_eta_ladder(eta_ladder):
    """The sup|eta| ladder clause, asserted as stated.

    The reference orbit is the reduction integrated in the frame rotating
    at Omega0, so the reduced step resolves the slow orbit rather than the
    Omega0 carrier.  With the full frequencies the midpoint's carrier phase
    error, magnified by the near-cancellation Omega10 - pN ~ tau, made the
    reference period 0.6%, 1.7% and 4.6% too long down the ladder and
    sup|eta| grew with 1/tau; the PDE itself follows the converged
    reduction.  For context the test also prints whether the phase-free
    tube deviation decreases down the ladder (it did not with the old
    reference) and the tau-slope of sup||w||_H1.
    """
    taus = np.array([r.params.tau for r in eta_ladder])
    sups = np.array([r.sup_eta for r in eta_ladder])
    slope = float(np.polyfit(np.log(taus), np.log(sups), 1)[0])
    monotone = bool(np.all(np.diff(sups) < 0))
    # context: the phase-free deviation and radiation norms do scale
    tube = [sh.annulus_width_ratio(r.reference_alpha_beta, r.alpha_beta)
            * r.orbit_amplitude for r in eta_ladder]
    tube_mono = bool(tube[0] > tube[1] > tube[2])
    h1 = [r.w_sup_h1 for r in eta_ladder]
    h1_slope = float(np.polyfit(np.log(taus), np.log(h1), 1)[0])
    ok = monotone and slope >= 0.5
    report("9 (sup|eta| ladder)", ok,
           f"sup_eta {[f'{s:.2e}' for s in sups]}, slope {slope:.2f}; "
           f"context: tube deviation monotone={tube_mono}, "
           f"w H1 slope {h1_slope:.2f}",
           {"sup_eta": sups, "slope": slope, "tube_deviation": tube,
            "w_sup_h1": h1, "w_h1_slope": h1_slope})
    assert ok, ("sup|eta| does not decrease down the tau-ladder at slope "
                ">= 0.5; a reference period that disagrees with the "
                "PDE's dephases eta (see this test's docstring)")


@pytest.mark.slow
def test_criterion_10_transport_dichotomy(shadow_well):
    sp = sh.ShadowParams(tau=0.05, n_cr=0.1)
    transport = sh.run_shadow_experiment(
        sp, shadow_well,
        sh.OrbitSpec(side="above", dtheta0=1.0, horizon_periods=5.0,
                     dt_pde=4e-3))
    libration = sh.run_shadow_experiment(
        sp, shadow_well,
        sh.OrbitSpec(side="above", amplitude_factor=0.3,
                     horizon_periods=5.0, dt_pde=4e-3))
    ok = transport.com_sign_changes >= 3 and libration.com_sign_changes == 0
    assert report(10, ok, f"transport changes {transport.com_sign_changes}, "
                  f"libration changes {libration.com_sign_changes}",
                  {"transport_sign_changes": transport.com_sign_changes,
                   "libration_sign_changes": libration.com_sign_changes})


# ----------------------------------------------------------------------
# 11. coupling-error functionals
# ----------------------------------------------------------------------

def test_criterion_11_coupling_functionals(shadow_well):
    sd = shadow_well
    zero = np.zeros(sd.grid.n_points, complex)
    at_zero = sh.coupling_errors(0.3, 0.06, -0.02, zero, sd)
    ok = all(v == 0.0 for v in at_zero)

    bump = sh.project(np.exp(-(sd.grid.x - 0.8) ** 2) * (1 + 0.5j) + 0j,
                      sd)[2]
    vals = []
    for h in (1e-3, 5e-4):
        vals.append(np.abs(sh.coupling_errors(0.3, 0.06, -0.02, h * bump, sd)))
    slopes = np.log2(np.array(vals[0]) / np.array(vals[1]))
    ok &= bool(np.all(np.abs(slopes - 1.0) < 0.1))
    assert report(11, ok, f"zero at R=0, ladder slopes "
                  f"{[f'{s:.3f}' for s in slopes]}",
                  {"errors_at_zero": at_zero, "ladder_slopes": slopes})
