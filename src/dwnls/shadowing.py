"""Shadowing experiments: evolve the PDE from two-mode initial data and
measure how long its projection tracks a periodic orbit of the reduction.

Pipeline per run:

1. integrate a reduced reference orbit sigma*(t) = (A, alpha, beta)(t)
   near an equilibrium on the level set N = n_cr +- tau (tensor-mode
   coefficients measured from the well, so reduction and PDE share the
   same Omega0, Omega1, N_cr).  The reference is integrated in the frame
   rotating at Omega0 (frequencies 0 and Omega10), which leaves
   (A, alpha, beta) unchanged because the reduction is gauge covariant.
   The step is a fixed fraction of the slow period, so with the full
   frequencies it would turn the Omega0 carrier by up to ~0.65 rad at
   small tau, and the carrier's phase error, magnified by the
   near-cancellation Omega10 - pN ~ tau, would lengthen the period by
   several percent;
2. launch the PDE from u0 = e^{i theta0}(A(0) psi0 + (alpha(0) + i beta(0)) psi1);
3. at sampled times project u onto (c0, c1, R), move to the rotating
   frame, and record eta(t) = (A, alpha, beta)(t) - sigma*(t);
4. co-evolve the orbit-driven linear radiation field

       i Rt~ = (H - Omega0) R~ + m(t) R~ + P_c F_b(sigma*(t)),

   m(t) = a0000 A~^2 + a0011 (3 alpha~^2 + beta~^2), and monitor
   w = R - R~ in H^1 and L^4_t L^infty_x;
5. report sup|eta|, the annulus verdict around the reference orbit, the
   center-of-mass well count, and invariant drifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import zgtsv
from scipy.spatial import cKDTree

from .errors import (
    BelowThreshold,
    ChartBreakdown,
    DwnlsError,
    NoCrossing,
)
from .grids import Grid, same_grid
from .linear_spectrum import (
    SpectralData,
    hamiltonian_tridiagonal,
    potential_samples,
)
from .pde import (
    CrankNicolsonStepper,
    FieldState,
    center_of_mass,
    hamiltonian,
)
from .reduced_dynamics import (
    CARTESIAN,
    ModeAmplitudes,
    ReducedParams,
    Trajectory,
    convert,
    detect_period,
    integrate,
)


# ----------------------------------------------------------------------
# projection and frames
# ----------------------------------------------------------------------

@dataclass
class ProjectionResult:
    c0: complex
    c1: complex
    residual: FieldState
    defect: float


def project(u: FieldState, spectral: SpectralData) -> ProjectionResult:
    """Split u into c0 psi0 + c1 psi1 + R with R orthogonal to both modes."""
    same_grid(u.grid, spectral.grid)
    w = u.grid.quad_weights()
    psi0 = spectral.psi0.eigenfunction
    psi1 = spectral.psi1.eigenfunction
    c0 = complex(np.sum(w * psi0 * u.values))
    c1 = complex(np.sum(w * psi1 * u.values))
    r = u.values - c0 * psi0 - c1 * psi1
    defect = abs(np.sum(w * psi0 * r)) + abs(np.sum(w * psi1 * r))
    return ProjectionResult(c0=c0, c1=c1,
                            residual=FieldState(u.grid, r, u.time),
                            defect=float(defect))


def to_moving_frame(c0: complex, c1: complex):
    """(A, alpha, beta, theta) with c0 = A e^{i theta}, c1 = (alpha+i beta) e^{i theta}."""
    a = abs(c0)
    if a <= 1e-8:
        raise ChartBreakdown("moving frame requires |c0| > 1e-8")
    theta = math.atan2(c0.imag, c0.real)
    z = c1 * complex(math.cos(-theta), math.sin(-theta))
    return a, z.real, z.imag, theta


def build_initial_data(point, spectral: SpectralData,
                       theta0: float = 0.0) -> FieldState:
    """Two-mode field e^{i theta0}(A psi0 + (alpha + i beta) psi1)."""
    c = convert(point, CARTESIAN) if not hasattr(point, "alpha") else point
    ph = complex(math.cos(theta0), math.sin(theta0))
    vals = ph * (c.A * spectral.psi0.eigenfunction
                 + complex(c.alpha, c.beta) * spectral.psi1.eigenfunction)
    return FieldState(spectral.grid, vals.astype(complex), 0.0)


# ----------------------------------------------------------------------
# driven radiation field
# ----------------------------------------------------------------------

class _Basis:
    """The modes and the continuous-spectrum parts of the four cubic mode
    products, projected once (P_c is linear)."""

    def __init__(self, spectral: SpectralData):
        p0 = spectral.psi0.eigenfunction
        p1 = spectral.psi1.eigenfunction
        self.psi0, self.psi1 = p0, p1
        self.w = spectral.grid.quad_weights()
        self.pc_p03 = self.project_c(p0**3)
        self.pc_p13 = self.project_c(p1**3)
        self.pc_p0p12 = self.project_c(p0 * p1**2)
        self.pc_p02p1 = self.project_c(p0**2 * p1)

    def project_c(self, f: np.ndarray) -> np.ndarray:
        f = f - np.sum(self.w * self.psi0 * f) * self.psi0
        return f - np.sum(self.w * self.psi1 * f) * self.psi1


def mode_source(a_amp: float, alpha: float, beta: float, basis: _Basis,
                g: float = -1.0) -> np.ndarray:
    """P_c F_b(sigma): the continuous-spectrum part of the two-mode cubic

        F_b = g (A^3 p0^3 + |z|^2 z p1^3 + (A z^2 + 2 A |z|^2) p0 p1^2
                 + (A^2 conj(z) + 2 A^2 z) p0^2 p1),   z = alpha + i beta,

    combined from the projected products of the basis."""
    z = complex(alpha, beta)
    p = alpha * alpha + beta * beta
    a2 = a_amp * a_amp
    return ((g * a2 * a_amp) * basis.pc_p03
            + (g * p * z) * basis.pc_p13
            + (g * a_amp * (z * z + 2.0 * p)) * basis.pc_p0p12
            + (g * a2 * (z.conjugate() + 2.0 * z)) * basis.pc_p02p1)


def _phase_shift_coeff(params: ReducedParams):
    """(c_a, c_b) of the scalar shift m = c_a A^2 + c_b (3 alpha^2 + beta^2),
    the rotating-frame phase velocity of the reference orbit."""
    if params.a is None:
        return 1.0, 1.0
    return float(params.a[0, 0, 0, 0]), float(params.a[0, 0, 1, 1])


class _ReferenceOrbit:
    """Fine-grained reduced reference with linear interpolation in time."""

    def __init__(self, traj: Trajectory):
        self.times = traj.times
        if not np.any(traj.states):
            zero = np.zeros(len(traj.times))
            a, al, be, th = zero, zero, zero, zero
        else:
            a, al, be, th = traj.cartesian_series()
        self.a, self.alpha, self.beta, self.theta = a, al, be, th

    def sample(self, t):
        return (np.interp(t, self.times, self.a),
                np.interp(t, self.times, self.alpha),
                np.interp(t, self.times, self.beta))


def reduced_reference(state0: ModeAmplitudes, params: ReducedParams,
                      horizon: float, dt: float) -> _ReferenceOrbit:
    traj = integrate(state0, params, (0.0, horizon), dt,
                     method="implicit_midpoint")
    return _ReferenceOrbit(traj)


def tilde_r_evolve(orbit: _ReferenceOrbit | Trajectory, spectral: SpectralData,
                   horizon: float, dt: float, scheme: str = None,
                   record_every: int = 50, tail_filter_every: float = None,
                   cutoff_fraction: float = 0.75):
    """Evolve the orbit-driven linear radiation equation from R~(0) = 0.

    Returns (times, fields, sup_abs_series); the stepper matches the PDE
    scheme for the well (CN for delta wells, split-step otherwise).  The
    optional tail filter zeroes |x| beyond the cutoff every
    tail_filter_every time units, the same truncate-and-continue device
    the PDE runs use to stop outgoing radiation from re-entering.
    """
    if isinstance(orbit, Trajectory):
        orbit = _ReferenceOrbit(orbit)
    ev = _TildeREvolver(spectral, dt, scheme)
    grid = spectral.grid
    n_steps = int(round(horizon / dt))
    filt_steps = (None if tail_filter_every is None
                  else max(1, int(round(tail_filter_every / dt))))
    keep = np.abs(grid.x) <= cutoff_fraction * grid.x_max
    times, fields, sups = [0.0], [np.zeros(grid.n_points, complex)], [0.0]
    r = np.zeros(grid.n_points, dtype=complex)
    t_mids = (np.arange(n_steps) + 0.5) * dt
    a_m, al_m, be_m = orbit.sample(t_mids)
    for k in range(n_steps):
        r = ev.step(r, a_m[k], al_m[k], be_m[k])
        if filt_steps is not None and (k + 1) % filt_steps == 0:
            r = np.where(keep, r, 0.0)
        if (k + 1) % record_every == 0 or k == n_steps - 1:
            times.append((k + 1) * dt)
            fields.append(r.copy())
            sups.append(float(np.max(np.abs(r))))
    return np.array(times), fields, np.array(sups)


class _TildeREvolver:
    def __init__(self, spectral: SpectralData, dt: float, scheme: str = None):
        self.spectral = spectral
        self.grid = spectral.grid
        self.basis = _Basis(spectral)
        self.params = ReducedParams.from_spectral(spectral)
        self.ca, self.cb = _phase_shift_coeff(self.params)
        self.dt = dt
        if scheme is None:
            scheme = ("crank_nicolson" if spectral.spec.kind == "delta"
                      else "split_step")
        self.scheme = scheme
        if scheme == "crank_nicolson":
            d, e = hamiltonian_tridiagonal(spectral.spec, self.grid)
            # 1 + (i dt/2)(H - Omega0) on the diagonal; m(t) shifts it per step
            self.d_lin = 1.0 + 0.5j * dt * (d - spectral.omega0)
            self.c_off = 0.5j * dt * float(e[0])
            self.dl = np.full(self.grid.n_points - 1, self.c_off)
            self.du = self.dl.copy()
            self.du[0] = 0.0       # node-0 Dirichlet pin
        else:
            self.v = potential_samples(spectral.spec, self.grid) - spectral.omega0
            k = 2.0 * np.pi * np.fft.fftfreq(self.grid.n_points, d=self.grid.dx)
            self.kin_full = np.exp(-1j * dt * k * k)
            self.kin_half = np.exp(-0.5j * dt * k * k)

    def shift(self, a_amp, alpha, beta) -> float:
        return (self.ca * a_amp * a_amp
                + self.cb * (3.0 * alpha * alpha + beta * beta))

    def step(self, r: np.ndarray, a_amp: float, alpha: float,
             beta: float) -> np.ndarray:
        src = mode_source(a_amp, alpha, beta, self.basis, self.params.g)
        m = self.shift(a_amp, alpha, beta)
        dt = self.dt
        if self.scheme == "crank_nicolson":
            # (1 + e) R_new = (1 - e) R - i dt src, e = (i dt/2)(H - Omega0 + m)
            d = self.d_lin + 0.5j * dt * m
            rhs = (2.0 - d) * r
            rhs -= 1j * dt * src
            rhs[:-1] -= self.c_off * r[1:]
            rhs[1:] -= self.c_off * r[:-1]
            rhs[0] = 0.0
            d[0] = 1.0
            _, _, _, out, info = zgtsv(self.dl, d, self.du, rhs,
                                       overwrite_d=1, overwrite_b=1)
            if info != 0:
                raise DwnlsError("tilde-R tridiagonal solve failed")
            return out
        # split-step with midpoint Duhamel source
        phase = np.exp(-0.5j * dt * (self.v + m))
        out = phase * r
        out = np.fft.ifft(self.kin_full * np.fft.fft(out))
        out = phase * out
        half = np.exp(-0.25j * dt * (self.v + m)) * (-1j * dt * src)
        half = np.fft.ifft(self.kin_half * np.fft.fft(half))
        return out + np.exp(-0.25j * dt * (self.v + m)) * half


# ----------------------------------------------------------------------
# Appendix-style coupling diagnostics
# ----------------------------------------------------------------------

def coupling_errors(a_amp: float, alpha: float, beta: float, r: FieldState,
                    spectral: SpectralData):
    """(Error_A, Error_alpha, Error_beta, Error_theta): the exact
    radiation-coupling terms of the moving-frame equations, evaluated by
    quadrature against the rotating-frame residual field r."""
    if a_amp <= 1e-8:
        raise ChartBreakdown("Error_theta divides by A")
    same_grid(r.grid, spectral.grid)
    w = r.grid.quad_weights()
    p0 = spectral.psi0.eigenfunction
    p1 = spectral.psi1.eigenfunction
    rr = r.values
    z = complex(alpha, beta)
    p = alpha * alpha + beta * beta
    g = spectral.g

    lin_r = (2.0 * a_amp**2 * p0 * p0 + 4.0 * a_amp * alpha * p0 * p1
             + 2.0 * p * p1 * p1) * rr
    lin_rbar = (a_amp**2 * p0 * p0 + z * z * p1 * p1
                + 2.0 * a_amp * z * p0 * p1) * np.conj(rr)
    quad = (a_amp * p0 + z.conjugate() * p1) * rr * rr \
        + (2.0 * a_amp * p0 + 2.0 * z * p1) * np.abs(rr) ** 2
    cubic = np.abs(rr) ** 2 * rr
    f_r = g * (lin_r + lin_rbar + quad + cubic)

    g0 = complex(np.sum(w * p0 * f_r))
    g1 = complex(np.sum(w * p1 * f_r))
    err_a = g0.imag
    err_alpha = g1.imag - beta / a_amp * g0.real
    err_beta = -g1.real - alpha / a_amp * g0.real
    err_theta = -g0.real / a_amp
    return err_a, err_alpha, err_beta, err_theta


def strichartz_monitor(times: np.ndarray, fields: list, grid: Grid):
    """(sup_t H1 norm, L4-in-time of sup_x |w|) of a sampled field series."""
    w = grid.quad_weights()
    h1 = np.empty(len(fields))
    sup = np.empty(len(fields))
    for i, f in enumerate(fields):
        df = np.gradient(f, grid.dx)
        h1[i] = math.sqrt(float(np.sum(w * (np.abs(f) ** 2 + np.abs(df) ** 2))))
        sup[i] = float(np.max(np.abs(f)))
    if len(times) < 2:
        return float(np.max(h1, initial=0.0)), 0.0
    l4 = float(np.trapezoid(sup**4, times)) ** 0.25
    return float(np.max(h1)), l4


# ----------------------------------------------------------------------
# experiment driver
# ----------------------------------------------------------------------

@dataclass
class ShadowParams:
    """Scale parameters of the shadowing regime.

    Exactly one of gamma / n_cr fixes the critical power: n_cr = tau**gamma
    ties the well to the deviation scale (validated for gamma in (7/9, 1),
    where the long-horizon bounds hold); an explicit n_cr covers parameter
    choices outside that window.
    """

    tau: float
    gamma: Optional[float] = None
    n_cr: Optional[float] = None
    delta1: float = 0.1
    epsilon: float = 0.25
    tau0: float = 0.2
    verdict_constant: float = 5.0
    annulus_threshold: float = 0.2

    def __post_init__(self):
        if not 0 < self.tau < self.tau0:
            raise ValueError("requires 0 < tau < tau0")
        if (self.gamma is None) == (self.n_cr is None):
            raise ValueError("give exactly one of gamma, n_cr")
        if self.gamma is not None and not (7.0 / 9.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (7/9, 1)")
        if self.delta1 <= 0 or self.epsilon <= 0:
            raise ValueError("exponents must be positive")

    @property
    def critical_power(self) -> float:
        if self.n_cr is not None:
            return self.n_cr
        return self.tau**self.gamma

    @property
    def implied_gamma(self) -> float:
        return math.log(self.critical_power) / math.log(self.tau)


@dataclass
class OrbitSpec:
    """Which reduced orbit to shadow and how to run the PDE alongside it."""

    side: str = "below"                  # 'above' or 'below' n_cr
    amplitude_factor: float = 0.3
    delta: float = 0.1                   # orbit-size exponent on the below side
    dtheta0: Optional[float] = None      # polar launch (e.g. 1.0 for transport)
    theta0: float = 0.0
    horizon_periods: Optional[float] = None   # default tau**-epsilon
    record_per_period: int = 64
    dt_pde: float = 2e-3
    dt_reduced_fraction: float = 1.0 / 2000.0
    tail_filter_every: Optional[float] = 1.0  # time units; None disables
    cutoff_fraction: float = 0.75
    compute_w: bool = True

    def __post_init__(self):
        if self.side not in ("above", "below"):
            raise ValueError("side must be 'above' or 'below'")


@dataclass
class ShadowReport:
    params: ShadowParams
    orbit: OrbitSpec
    n_level: float
    n_cr: float
    period: float
    horizon: float
    times: np.ndarray
    eta: np.ndarray                # (m, 3): eta_A, eta_alpha, eta_beta
    alpha_beta: np.ndarray         # projected (alpha, beta) samples
    reference_alpha_beta: np.ndarray
    sup_eta: float
    eta_bound: float
    eta_bound_ok: bool
    annulus_ratio: float
    annulus_ok: bool
    com_series: np.ndarray
    com_sign_changes: int
    w_sup_h1: float
    w_l4_linf: float
    tilde_r_sup: float
    parseval_defect: float
    mass_drift: float
    energy_drift: float
    removed_mass: float
    coupling_sup: tuple
    orbit_amplitude: float
    # why the run stopped early: error type, message, the step being taken
    # (1-based) and the time that step reaches; None for a full run
    truncation: Optional[dict]

    @property
    def horizon_truncated(self) -> bool:
        return self.truncation is not None

    def to_json_dict(self) -> dict:
        return {
            "side": self.orbit.side,
            "tau": self.params.tau,
            "n_cr": self.n_cr,
            "n_level": self.n_level,
            "implied_gamma": self.params.implied_gamma,
            "period": self.period,
            "horizon": self.horizon,
            "orbit_amplitude": self.orbit_amplitude,
            "sup_eta": self.sup_eta,
            "eta_bound": self.eta_bound,
            "eta_bound_ok": self.eta_bound_ok,
            "annulus_ratio": self.annulus_ratio,
            "annulus_ok": self.annulus_ok,
            "com_sign_changes": self.com_sign_changes,
            "w_sup_h1": self.w_sup_h1,
            "w_l4_linf": self.w_l4_linf,
            "tilde_r_sup": self.tilde_r_sup,
            "parseval_defect": self.parseval_defect,
            "mass_drift": self.mass_drift,
            "energy_drift": self.energy_drift,
            "removed_mass": self.removed_mass,
            "coupling_sup": list(self.coupling_sup),
            "horizon_truncated": self.horizon_truncated,
            "truncation": self.truncation,
        }

    def series_csv(self) -> str:
        rows = ["t,eta_A,eta_alpha,eta_beta,alpha,beta,x_com"]
        for i, t in enumerate(self.times):
            vals = (t, *self.eta[i], *self.alpha_beta[i], self.com_series[i])
            rows.append(",".join(format(float(v), ".17g") for v in vals))
        return "\n".join(rows) + "\n"


def _orbit_initial_state(params: ReducedParams, sparams: ShadowParams,
                         orbit: OrbitSpec):
    """Initial modes state on the requested orbit plus its amplitude scale."""
    n_cr = sparams.critical_power
    tau = sparams.tau
    if orbit.side == "below":
        n_level = n_cr - tau
        amp = orbit.amplitude_factor * tau ** (0.5 * (1.0 + orbit.delta))
        alpha0, eq_alpha = amp, 0.0
    else:
        n_level = n_cr + tau
        eq_alpha = equilibrium_alpha(params, n_level)
        if orbit.dtheta0 is not None:
            r1 = eq_alpha
            rho0 = math.sqrt(n_level - r1 * r1)
            rho1 = r1 * complex(math.cos(orbit.dtheta0),
                                math.sin(orbit.dtheta0))
            return (ModeAmplitudes(rho0, rho1), n_level, eq_alpha, r1)
        # the separatrix crosses beta = 0 at sqrt(2) alpha*, so the libration
        # margin is (sqrt(2)-1) alpha* ~ 0.29 sqrt(tau); take a fraction of it
        amp = orbit.amplitude_factor * (math.sqrt(2.0) - 1.0) * eq_alpha
        alpha0 = eq_alpha + amp
    a0 = math.sqrt(n_level - alpha0 * alpha0)
    return ModeAmplitudes(complex(a0, 0.0), complex(alpha0, 0.0)), \
        n_level, eq_alpha, abs(alpha0 - eq_alpha)


def equilibrium_alpha(params: ReducedParams, n_level: float) -> float:
    """alpha of the symmetry-broken equilibrium for unit or tensor tensors."""
    g = abs(params.g)
    if params.a is None:
        p = q = 2.0 * g
    else:
        p = g * (3.0 * params.a[0, 0, 1, 1] - params.a[0, 0, 0, 0])
        q = g * (3.0 * params.a[0, 0, 1, 1] - params.a[1, 1, 1, 1])
    alpha2 = (p * n_level - params.omega10) / (p + q)
    if alpha2 < 0:
        raise BelowThreshold("no asymmetric equilibrium at this power")
    return math.sqrt(alpha2)


def run_shadow_experiment(sparams: ShadowParams, spectral: SpectralData,
                          orbit: OrbitSpec) -> ShadowReport:
    n_cr_target = sparams.critical_power
    if abs(spectral.n_cr_fd - n_cr_target) > 1e-6 * n_cr_target:
        raise ValueError(
            f"well critical power {spectral.n_cr_fd:.6g} does not match the "
            f"requested n_cr {n_cr_target:.6g}; tune the well first")
    # reduced orbits run in the frame rotating at Omega0 (module docstring,
    # step 1): same (A, alpha, beta), no under-resolved carrier phase
    full = ReducedParams.from_spectral(spectral)
    params = ReducedParams(omega0=0.0, omega1=full.omega10, g=full.g,
                           a=full.a)
    state0, n_level, eq_alpha, orbit_amp = _orbit_initial_state(
        params, sparams, orbit)

    # reference orbit: pilot run to measure the period, then the full span
    a_eff = 1.0 if params.a is None else abs(params.g) * 0.5 * (
        3.0 * params.a[0, 0, 1, 1] - params.a[0, 0, 0, 0])
    if orbit.side == "below":
        omega_est = 2.0 * a_eff * math.sqrt(sparams.tau * n_cr_target)
    else:
        omega_est = 2.0 * a_eff * math.sqrt(n_level**2 - n_cr_target**2)
    t_est = 2.0 * math.pi / omega_est
    pilot_span = (8.0 if orbit.dtheta0 is not None else 4.0) * t_est
    try:
        pilot = integrate(state0, params, (0.0, pilot_span),
                          t_est * orbit.dt_reduced_fraction, record_every=5)
        period = detect_period(pilot).period
    except NoCrossing:
        pilot = integrate(state0, params, (0.0, 4.0 * pilot_span),
                          t_est * orbit.dt_reduced_fraction, record_every=5)
        period = detect_period(pilot).period
    periods = (orbit.horizon_periods if orbit.horizon_periods is not None
               else sparams.tau ** (-sparams.epsilon))
    horizon = periods * period

    dt_red = period * orbit.dt_reduced_fraction
    ref = reduced_reference(state0, params, horizon + 2.0 * dt_red, dt_red)

    # PDE setup
    grid = spectral.grid
    u0 = build_initial_data(convert(state0, CARTESIAN), spectral,
                            theta0=orbit.theta0)
    dt = orbit.dt_pde
    n_steps = int(round(horizon / dt))
    sample_every = max(1, int(round(period / (orbit.record_per_period * dt))))
    from .pde import make_stepper, EvolveParams, mass as field_mass

    scheme = "crank_nicolson" if spectral.spec.kind == "delta" else "split_step"
    stepper = make_stepper(grid, spectral.spec,
                           EvolveParams(dt=dt, t_end=horizon, scheme=scheme))
    rad = _TildeREvolver(spectral, dt, scheme) if orbit.compute_w else None

    filt_steps = (None if orbit.tail_filter_every is None
                  else max(1, int(round(orbit.tail_filter_every / dt))))
    cutoff = orbit.cutoff_fraction * grid.x_max
    keep = np.abs(grid.x) <= cutoff
    wq = grid.quad_weights()

    t_mids = (np.arange(n_steps) + 0.5) * dt
    a_m, al_m, be_m = ref.sample(t_mids)

    u = u0.values.copy()
    r_t = np.zeros(grid.n_points, dtype=complex)
    removed = 0.0
    mass0 = field_mass(FieldState(grid, u))
    energy0 = hamiltonian(FieldState(grid, u), spectral.spec)
    psi0 = spectral.psi0.eigenfunction
    psi1 = spectral.psi1.eigenfunction

    times, etas, albe, coms, w_fields, sup_tr = [], [], [], [], [], 0.0
    coupling_max = [0.0, 0.0, 0.0, 0.0]
    parseval = 0.0
    mass_drift = 0.0
    energy_drift = 0.0
    truncation = None

    def take_sample(t, u, r_t):
        nonlocal parseval, sup_tr, mass_drift, energy_drift
        st = FieldState(grid, u, t)
        pr = project(st, spectral)
        a_p, al_p, be_p, th_p = to_moving_frame(pr.c0, pr.c1)
        a_r, al_r, be_r = ref.sample(t)
        times.append(t)
        etas.append((a_p - a_r, al_p - al_r, be_p - be_r))
        albe.append((al_p, be_p))
        coms.append(center_of_mass(st))
        n_tot = field_mass(st)
        split = (abs(pr.c0) ** 2 + abs(pr.c1) ** 2
                 + float(np.sum(wq * np.abs(pr.residual.values) ** 2)))
        parseval = max(parseval, abs(n_tot - split))
        mass_drift = max(mass_drift, abs(n_tot + removed - mass0))
        energy_drift = max(energy_drift,
                           abs(hamiltonian(st, spectral.spec) - energy0))
        r_rot = pr.residual.values * complex(math.cos(-th_p), math.sin(-th_p))
        errs = coupling_errors(a_p, al_p, be_p,
                               FieldState(grid, r_rot, t), spectral)
        for j in range(4):
            coupling_max[j] = max(coupling_max[j], abs(errs[j]))
        if rad is not None:
            w_fields.append(r_rot - r_t)
            sup_tr = max(sup_tr, float(np.max(np.abs(r_t))))

    take_sample(0.0, u, r_t)
    try:
        for k in range(n_steps):
            u = stepper.step(u)
            if rad is not None:
                r_t = rad.step(r_t, a_m[k], al_m[k], be_m[k])
            if filt_steps is not None and (k + 1) % filt_steps == 0:
                removed += float(np.sum(wq[~keep] * np.abs(u[~keep]) ** 2))
                u = np.where(keep, u, 0.0)
                if rad is not None:
                    r_t = np.where(keep, r_t, 0.0)
                if isinstance(stepper, CrankNicolsonStepper):
                    stepper.reset_history()
            if (k + 1) % sample_every == 0 or k == n_steps - 1:
                take_sample((k + 1) * dt, u, r_t)
    except DwnlsError as exc:
        truncation = {"error": type(exc).__name__, "message": str(exc),
                      "step": k + 1, "time": (k + 1) * dt}

    times = np.array(times)
    etas = np.array(etas)
    albe = np.array(albe)

    # minimal annulus about one dense period of the reference orbit that
    # contains the projected samples, width relative to the orbit radius
    ref_mask = ref.times <= period * (1.0 + 1e-9)
    ref_curve = np.column_stack([ref.alpha[ref_mask], ref.beta[ref_mask]])
    annulus_ratio = annulus_width_ratio(ref_curve, albe)

    sup_eta = float(np.max(np.abs(etas)))
    eta_bound = sparams.verdict_constant * sparams.tau ** (0.5 + sparams.delta1)
    com = np.array(coms)
    w_h1, w_l4 = (strichartz_monitor(times, w_fields, grid)
                  if rad is not None else (0.0, 0.0))

    return ShadowReport(
        params=sparams, orbit=orbit, n_level=n_level, n_cr=n_cr_target,
        period=period, horizon=horizon, times=times, eta=etas,
        alpha_beta=albe, reference_alpha_beta=ref_curve,
        sup_eta=sup_eta, eta_bound=eta_bound,
        eta_bound_ok=bool(sup_eta <= eta_bound),
        annulus_ratio=annulus_ratio,
        annulus_ok=bool(annulus_ratio <= sparams.annulus_threshold),
        com_series=com, com_sign_changes=count_sign_changes(com),
        w_sup_h1=w_h1, w_l4_linf=w_l4, tilde_r_sup=sup_tr,
        parseval_defect=parseval, mass_drift=mass_drift,
        energy_drift=energy_drift, removed_mass=removed,
        coupling_sup=tuple(coupling_max), orbit_amplitude=orbit_amp,
        truncation=truncation,
    )


def annulus_width_ratio(ref_curve: np.ndarray, points: np.ndarray) -> float:
    """Relative width of the smallest annulus around the closed reference
    curve that contains both the curve and the sample points.

    Libration and transport orbits are star-shaped about the curve
    centroid, so the curve is parametrized by polar angle there and the
    annulus width is the span of signed radial deviations; if the radial
    parametrization degenerates, twice the maximum point-to-curve distance
    is used instead.
    """
    c = ref_curve.mean(axis=0)
    rel = ref_curve - c
    r_ref = np.hypot(rel[:, 0], rel[:, 1])
    mean_r = float(np.mean(r_ref))
    phi_ref = np.arctan2(rel[:, 1], rel[:, 0])
    order = np.argsort(phi_ref)
    phi_s, r_s = phi_ref[order], r_ref[order]
    # star-shaped test: every angle bin visited once (tolerate duplicates)
    keep = np.concatenate(([True], np.diff(phi_s) > 1e-12))
    phi_s, r_s = phi_s[keep], r_s[keep]
    star_shaped = len(phi_s) > 16 and np.max(np.diff(phi_s)) < 0.5 and mean_r > 0
    relp = points - c
    if star_shaped:
        phi_p = np.arctan2(relp[:, 1], relp[:, 0])
        r_p = np.hypot(relp[:, 0], relp[:, 1])
        phi_ext = np.concatenate((phi_s - 2 * np.pi, phi_s, phi_s + 2 * np.pi))
        r_ext = np.concatenate((r_s, r_s, r_s))
        dev = r_p - np.interp(phi_p, phi_ext, r_ext)
        width = float(max(np.max(dev), 0.0) - min(np.min(dev), 0.0))
    else:
        dists, _ = cKDTree(ref_curve).query(points)
        width = float(2.0 * np.max(dists))
    return width / mean_r


def count_sign_changes(series: np.ndarray, deadband_fraction: float = 0.05) -> int:
    """Sign changes of a series, ignoring excursions inside a deadband."""
    peak = float(np.max(np.abs(series), initial=0.0))
    if peak == 0.0:
        return 0
    band = deadband_fraction * peak
    signs = [s for s in np.sign(series) * (np.abs(series) > band) if s != 0]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return changes
