"""Shadowing experiments: evolve the PDE from two-mode initial data and
measure how long its projection tracks a periodic orbit of the reduction.

Pipeline per run:

1. integrate a reduced reference orbit sigma*(t) = (A, alpha, beta)(t)
   near an equilibrium on the level set N = n_cr +- tau (tensor-mode
   coefficients measured from the well, so reduction and PDE share the
   same Omega0, Omega1, N_cr).  Its period is the implicit midpoint's
   own, from a pilot landed on the section beta = 0
   (reduced_dynamics.land_period), and the reference runs at a fixed
   fraction of it.  The reference is integrated in the frame
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
4. form the orbit-driven linear radiation field

       i Rt~ = (H - Omega0) R~ + m(t) R~ + P_c F_b(sigma*(t)),

   m(t) = a0000 A~^2 + a0011 (3 alpha~^2 + beta~^2), and monitor
   w = R - R~ in H^1 and L^4_t L^infty_x.  On every well the PDE takes
   Crank-Nicolson steps of the pinned finite-difference H whose
   eigenvectors are psi0, psi1, one field marched by pde.march with the
   tail filter.  R~ is exact in the eigenbasis of that H with psi0, psi1
   left out (so it stays in the continuous spectrum by construction and
   is exactly zero at the pinned node), m(t) as a global phase and the
   source held at each step's midpoint.  It does not depend on the PDE,
   so after the march it is formed in closed form only at the samples
   and the filter's cuts, and w from the residuals kept at the samples;
5. report sup|eta|, the annulus verdict around the reference orbit, the
   center-of-mass well count, and invariant drifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BelowThreshold,
    ChartBreakdown,
    DwnlsError,
)
from .grids import Grid, same_grid
from .io_utils import csv_text
from .lapack import eigh_tridiagonal
from .linear_spectrum import SpectralData, pinned_hamiltonian, potential_samples
from .pde import (
    CrankNicolsonStepper,
    FieldState,
    TailFilter,
    center_of_mass,
    hamiltonian,
    march,
)
from .reduced_dynamics import (
    CARTESIAN,
    ModeAmplitudes,
    ReducedParams,
    Trajectory,
    convert,
    detect_period,  # noqa: F401  (bench/tracer.py wraps it by this name)
    integrate,
    land_period,
    pitchfork_coefficient,
)

# scale constants of the shadowing regime: tau < TAU0; the default horizon
# is tau**-EPSILON periods; the verdict asks sup|eta| <= VERDICT_CONSTANT
# tau**(1/2 + DELTA1) and an annulus ratio <= ANNULUS_THRESHOLD
TAU0 = 0.2
EPSILON = 0.25
DELTA1 = 0.1
VERDICT_CONSTANT = 5.0
ANNULUS_THRESHOLD = 0.2

# orbit and march constants: the below-side orbit size is amplitude_factor
# tau**((1 + ORBIT_DELTA)/2); eta is sampled RECORD_PER_PERIOD times a
# period; the reduced step is DT_REDUCED_FRACTION of the period; the tail
# filter zeroes |x| > CUTOFF_FRACTION x_max every TAIL_FILTER_EVERY time
# units
ORBIT_DELTA = 0.1
RECORD_PER_PERIOD = 64
DT_REDUCED_FRACTION = 1.0 / 2000.0
TAIL_FILTER_EVERY = 1.0
CUTOFF_FRACTION = 0.75

# R~ advances at most BLOCK steps per product with its table of E^p
# (BLOCK + 1 rows of the mode count), and goes to the grid SAMPLE_CHUNK
# samples per product with V
BLOCK = 64
SAMPLE_CHUNK = 8


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
    products p0^3, p1^3, p0 p1^2, p0^2 p1 (rows of `products`), projected
    once (P_c is linear)."""

    def __init__(self, spectral: SpectralData):
        p0 = spectral.psi0.eigenfunction
        p1 = spectral.psi1.eigenfunction
        self.psi0, self.psi1 = p0, p1
        self.w = spectral.grid.quad_weights()
        self.products = np.array([self.project_c(f) for f in
                                  (p0**3, p1**3, p0 * p1**2, p0**2 * p1)])

    def project_c(self, f: np.ndarray) -> np.ndarray:
        f = f - np.sum(self.w * self.psi0 * f) * self.psi0
        return f - np.sum(self.w * self.psi1 * f) * self.psi1


def source_coefficients(a_amp, alpha, beta):
    """The coefficients of the four products of _Basis in the two-mode cubic

        F_b = -(A^3 p0^3 + |z|^2 z p1^3 + (A z^2 + 2 A |z|^2) p0 p1^2
                + (A^2 conj(z) + 2 A^2 z) p0^2 p1),   z = alpha + i beta,

    for scalars or for arrays of equal shape (one entry per time)."""
    z = alpha + 1j * beta
    p = alpha * alpha + beta * beta
    a2 = a_amp * a_amp
    return (-a2 * a_amp, -p * z, -a_amp * (z * z + 2.0 * p),
            -a2 * (np.conj(z) + 2.0 * z))


def mode_source(a_amp: float, alpha: float, beta: float,
                basis: _Basis) -> np.ndarray:
    """P_c F_b(sigma): the continuous-spectrum part of the two-mode cubic
    (source_coefficients), combined from the projected products."""
    c = source_coefficients(a_amp, alpha, beta)
    return sum(cj * fj for cj, fj in zip(c, basis.products))


class _ReferenceOrbit:
    """Fine-grained reduced reference with linear interpolation in time."""

    def __init__(self, traj: Trajectory):
        self.times = traj.times
        if np.any(traj.states):
            self.a, self.alpha, self.beta, _ = traj.cartesian_series()
        else:
            self.a = self.alpha = self.beta = np.zeros(len(traj.times))

    def sample(self, t):
        """(A, alpha, beta) at t, a time or an array of times inside the
        integrated span (a ValueError outside it: np.interp would hold the
        end values)."""
        for end in (np.min(t), np.max(t)):
            if not self.times[0] <= end <= self.times[-1]:
                raise ValueError(
                    f"reference orbit integrated over [{self.times[0]:.6g}, "
                    f"{self.times[-1]:.6g}] sampled at t = {end:.6g}")
        return (np.interp(t, self.times, self.a),
                np.interp(t, self.times, self.alpha),
                np.interp(t, self.times, self.beta))


def reduced_reference(state0: ModeAmplitudes, params: ReducedParams,
                      horizon: float, dt: float) -> _ReferenceOrbit:
    traj = integrate(state0, params, (0.0, horizon), dt,
                     method="implicit_midpoint")
    return _ReferenceOrbit(traj)


def tilde_r_evolve(spectral: SpectralData, dt: float,
                   orbit: _ReferenceOrbit | Trajectory, n_steps: int, steps,
                   tail_filter: Optional[TailFilter] = None) -> np.ndarray:
    """R~ on the grid, from R~(0) = 0 driven by the reference orbit (a
    Trajectory is interpolated as one), at each of the ascending steps
    (one row each) of a run of n_steps steps of dt.

    The stepper (_TildeREvolver) is exact in the eigenbasis of the pinned
    finite-difference H, the operator that defines psi0 and psi1, with the
    source held at each step's midpoint.  The optional tail filter cuts
    R~ as pde.march cuts the PDE field, to stop outgoing radiation from
    re-entering.  The stepper and its eigenvectors are freed on return.
    """
    if isinstance(orbit, Trajectory):
        orbit = _ReferenceOrbit(orbit)
    stepper = _TildeREvolver(spectral, dt, orbit, n_steps)
    return stepper.to_grid(stepper.at_steps(steps, tail_filter), steps)


class _TildeREvolver:
    """Exact stepper of the orbit-driven radiation field

        i R~_t = (H - Omega0) R~ + m(t) R~ + P_c F_b(sigma*(t))

    in the eigenbasis of the pinned finite-difference H.  V holds the
    eigenvectors of H on the free nodes 1..n-1 (eigh_tridiagonal, MRRR
    driver) except the lowest two, which are psi0 and psi1; the field is
    R~ = e^{-i theta(t)} V S with theta = int m, so it lies in the
    continuous spectrum by construction and node 0 stays exactly zero.
    With mu = lambda - Omega0 and the source held at the step midpoint,
    step k is exact for every mode:

        S <- E S + Phi G c_k,   E = e^{-i dt mu},  Phi = (E - 1) / mu,

    where G = V^T (the four projected products of _Basis) and c_k are the
    four source_coefficients of sigma*((k + 1/2) dt) times e^{i theta}
    there.  R~ does not depend on the PDE, so it is formed only where it
    is needed: step(s, m) makes m steps at once in closed form, and
    at_steps runs from S = 0 to a list of steps with the tail filter's
    cuts on the way.  to_grid costs one product with V per few samples,
    and cut two with the rows of V outside the filter.  V costs
    8 (n-1)^2 bytes: 8.4 MB at 1,024 points, 134 MB at 4,096.
    """

    def __init__(self, spectral: SpectralData, dt: float,
                 orbit: _ReferenceOrbit, n_steps: int):
        self.grid = spectral.grid
        h = pinned_hamiltonian(spectral.spec, self.grid)
        lam, v = eigh_tridiagonal(h.diag, h.off)
        self.v = v[:, 2:]
        mu = lam[2:] - spectral.omega0
        self.e = np.exp(-1j * dt * mu)
        # E^BLOCK, ..., E, 1 by repeated products, as single steps form them
        self._powers = np.ones((BLOCK + 1, len(mu)), complex)
        np.cumprod(np.broadcast_to(self.e, (BLOCK, len(mu))), axis=0,
                   out=self._powers[-2::-1])
        # (E - 1)/mu without the cancellation of E - 1 at small dt mu
        phi = -2j * np.sin(0.5 * dt * mu) * np.exp(-0.5j * dt * mu) / mu
        products = _Basis(spectral).products[:, 1:]
        self.g_phi = phi[:, None] * (self.v.T @ products.T)
        a, al, be = orbit.sample((np.arange(n_steps) + 0.5) * dt)
        # m = a0000 A^2 + a0011 (3 alpha^2 + beta^2), the rotating-frame
        # phase velocity of the reference orbit, held over each step
        ca, cb = float(spectral.a[0, 0, 0, 0]), float(spectral.a[0, 0, 1, 1])
        m = ca * a * a + cb * (3.0 * al * al + be * be)
        theta = dt * np.concatenate(([0.0], np.cumsum(m)))
        self.phase = np.exp(-1j * theta)          # grid field at step k
        self.c = np.stack(source_coefficients(a, al, be), axis=1)
        self.c *= np.exp(1j * (theta[:-1] + 0.5 * dt * m))[:, None]
        self.k = 0

    def step(self, s: np.ndarray, m: int = 1) -> np.ndarray:
        """S after m more steps (m = 1: S <- E S + Phi G c_k):

            S <- E^m S + sum_{p<m} E^p Phi G c_{k+m-1-p},

        in blocks of at most BLOCK steps, each one product of a slice of
        the table of E^p with the block's source coefficients."""
        while m > 0:
            b = min(m, BLOCK)
            k = self.k
            p = self._powers[BLOCK - b:]          # E^b, E^(b-1), ..., 1
            s = p[0] * s + np.sum(self.g_phi * (p[1:].T @ self.c[k:k + b]),
                                  axis=1)
            self.k = k + b
            m -= b
        return s

    def at_steps(self, steps, tail_filter: Optional[TailFilter] = None):
        """S at each of the ascending steps (one row each), from S = 0 at
        step 0, cut by the tail filter every trigger_steps steps; a cut
        acts before the sample at the same step, as in pde.march."""
        s = np.zeros_like(self.e)
        self.k = 0
        out = np.empty((len(steps), len(s)), complex)
        if tail_filter is not None:
            every = tail_filter.trigger_steps
            keep = np.abs(self.grid.x) <= tail_filter.cutoff_radius
        for i, target in enumerate(steps):
            if tail_filter is not None:
                for cut_at in range((self.k // every + 1) * every,
                                    target + 1, every):
                    s, _ = self.cut(self.step(s, cut_at - self.k), keep)
            if target > self.k:
                s = self.step(s, target - self.k)
            out[i] = s
        return out

    def to_grid(self, ss: np.ndarray, steps) -> np.ndarray:
        """R~ on the grid (one row each) from the rows of ss, the S of the
        steps: real products with V, SAMPLE_CHUNK samples at a time."""
        out = np.zeros((len(steps), self.grid.n_points), complex)
        for i in range(0, len(steps), SAMPLE_CHUNK):
            z = ss[i:i + SAMPLE_CHUNK]
            n = len(z)
            parts = np.concatenate((z.real, z.imag)) @ self.v.T
            out[i:i + n, 1:] = ((parts[:n] + 1j * parts[n:])
                                * self.phase[steps[i:i + n], None])
        return out

    def cut(self, s: np.ndarray, keep: np.ndarray):
        """(S of P_c(R~ zeroed where keep is False), the mass removed as a
        dx-sum): S - V_out^T V_out S, one run of free nodes outside keep at
        a time (row blocks of V, so no copy of it)."""
        edges = np.flatnonzero(np.diff(~keep[1:], prepend=False, append=False))
        removed = 0.0
        for i, j in zip(edges[::2], edges[1::2]):
            r_out = _real_product(self.v[i:j], s)
            removed += self.grid.dx * float(np.vdot(r_out, r_out).real)
            s = s - _real_product(self.v[i:j].T, r_out)
        return s, removed


def _real_product(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """m @ z for a real matrix m and a complex vector z, as one real
    product of the (2, len(z)) stack of z's parts with m^T (no complex
    copy of m)."""
    re, im = np.array([z.real, z.imag]) @ m.T
    return re + 1j * im


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

    lin_r = (2.0 * a_amp**2 * p0 * p0 + 4.0 * a_amp * alpha * p0 * p1
             + 2.0 * p * p1 * p1) * rr
    lin_rbar = (a_amp**2 * p0 * p0 + z * z * p1 * p1
                + 2.0 * a_amp * z * p0 * p1) * np.conj(rr)
    quad = (a_amp * p0 + z.conjugate() * p1) * rr * rr \
        + (2.0 * a_amp * p0 + 2.0 * z * p1) * np.abs(rr) ** 2
    cubic = np.abs(rr) ** 2 * rr
    f_r = -(lin_r + lin_rbar + quad + cubic)

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

    def __post_init__(self):
        if not 0 < self.tau < TAU0:
            raise ValueError(f"requires 0 < tau < {TAU0}")
        if (self.gamma is None) == (self.n_cr is None):
            raise ValueError("give exactly one of gamma, n_cr")
        if self.gamma is not None and not (7.0 / 9.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (7/9, 1)")

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
    dtheta0: Optional[float] = None      # polar launch (e.g. 1.0 for transport)
    theta0: float = 0.0
    horizon_periods: Optional[float] = None   # default tau**-EPSILON
    dt_pde: float = 2e-3
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
    removed_energy: float
    coupling_sup: tuple
    orbit_amplitude: float
    pilot_steps: int               # midpoint steps the period cost
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
            "removed_energy": self.removed_energy,
            "coupling_sup": list(self.coupling_sup),
            "pilot_steps": self.pilot_steps,
            "horizon_truncated": self.horizon_truncated,
            "truncation": self.truncation,
        }

    def series_csv(self) -> str:
        return csv_text(
            ["t", "eta_A", "eta_alpha", "eta_beta", "alpha", "beta", "x_com"],
            [self.times, *self.eta.T, *self.alpha_beta.T, self.com_series])


def _orbit_initial_state(params: ReducedParams, sparams: ShadowParams,
                         orbit: OrbitSpec):
    """Initial modes state on the requested orbit plus its amplitude scale."""
    n_cr = sparams.critical_power
    tau = sparams.tau
    if orbit.side == "below":
        n_level = n_cr - tau
        amp = orbit.amplitude_factor * tau ** (0.5 * (1.0 + ORBIT_DELTA))
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
    p = pitchfork_coefficient(params.a)
    q = p if params.a is None else \
        3.0 * params.a[0, 0, 1, 1] - params.a[1, 1, 1, 1]
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
    params = ReducedParams(omega0=0.0, omega1=full.omega10, a=full.a)
    state0, n_level, eq_alpha, orbit_amp = _orbit_initial_state(
        params, sparams, orbit)

    # reference orbit: land a pilot on the section to measure the period,
    # then integrate the full span
    t_est = _period_guess(params, sparams, orbit, n_level)
    max_span = 4.0 * (8.0 if orbit.dtheta0 is not None else 4.0) * t_est
    period, pilot_steps = land_period(state0, params,
                                      t_est * DT_REDUCED_FRACTION, max_span)
    periods = (orbit.horizon_periods if orbit.horizon_periods is not None
               else sparams.tau ** (-EPSILON))
    horizon = periods * period

    dt_red = period * DT_REDUCED_FRACTION
    ref = reduced_reference(state0, params, horizon + 2.0 * dt_red, dt_red)

    # PDE setup
    grid = spectral.grid
    u0 = build_initial_data(convert(state0, CARTESIAN), spectral,
                            theta0=orbit.theta0)
    dt = orbit.dt_pde
    n_steps = int(round(horizon / dt))
    sample_every = max(1, int(round(period / (RECORD_PER_PERIOD * dt))))
    # looked up per run, so that bench/tracer.py's wrapper of pde.mass is seen
    from .pde import mass as field_mass

    # CN on every well: psi0, psi1, Omega0, Omega1 and the overlap tensor
    # all come from the pinned finite-difference H
    v = potential_samples(spectral.spec, grid)
    stepper = CrankNicolsonStepper(grid, v, dt)
    tail_filter = TailFilter(max(1, int(round(TAIL_FILTER_EVERY / dt))),
                             CUTOFF_FRACTION * grid.x_max)

    def energy(u):
        return hamiltonian(FieldState(grid, u), v)

    # masses on the free nodes, the weights the pinned step conserves
    mass0 = field_mass(u0)
    energy0 = energy(u0.values)

    steps, times, etas, albe, coms, r_rots = [], [], [], [], [], []
    coupling_max = [0.0, 0.0, 0.0, 0.0]
    parseval = mass_drift = energy_drift = 0.0
    removed = removed_energy = 0.0
    truncation = None

    def count_cut(before, after):
        nonlocal removed_energy
        removed_energy += energy(before) - energy(after)

    def take_sample(k, u, removed_now):
        nonlocal parseval, mass_drift, energy_drift, removed
        removed = removed_now
        t = k * dt
        st = FieldState(grid, u, t)
        pr = project(st, spectral)
        fr = convert(ModeAmplitudes(pr.c0, pr.c1), CARTESIAN)
        a_p, al_p, be_p, th_p = fr.A, fr.alpha, fr.beta, fr.theta
        a_r, al_r, be_r = ref.sample(t)
        steps.append(k)
        times.append(t)
        etas.append((a_p - a_r, al_p - al_r, be_p - be_r))
        albe.append((al_p, be_p))
        coms.append(center_of_mass(st))
        n_tot = field_mass(st)
        split = abs(pr.c0) ** 2 + abs(pr.c1) ** 2 + field_mass(pr.residual)
        parseval = max(parseval, abs(n_tot - split))
        mass_drift = max(mass_drift, abs(n_tot + removed - mass0))
        energy_drift = max(energy_drift,
                           abs(energy(u) + removed_energy - energy0))
        r_rot = pr.residual.values * complex(math.cos(-th_p), math.sin(-th_p))
        errs = coupling_errors(a_p, al_p, be_p,
                               FieldState(grid, r_rot, t), spectral)
        for j in range(4):
            coupling_max[j] = max(coupling_max[j], abs(errs[j]))
        if orbit.compute_w:
            r_rots.append(r_rot)

    take_sample(0, u0.values, 0.0)
    try:
        march(u0.values, stepper, n_steps, sample_every, take_sample,
              tail_filter, count_cut)
    except DwnlsError as exc:
        truncation = {"error": type(exc).__name__, "message": str(exc),
                      "step": exc.step, "time": exc.step * dt}

    times = np.array(times)
    etas = np.array(etas)
    albe = np.array(albe)

    # R~ does not depend on the PDE: form it at the samples the march
    # reached, with the march's cuts, and w = R - R~ there
    w_h1 = w_l4 = sup_tr = 0.0
    if orbit.compute_w:
        r_t = tilde_r_evolve(spectral, dt, ref, n_steps, steps, tail_filter)
        sup_tr = float(np.max(np.abs(r_t)))
        w = np.array(r_rots)
        w -= r_t
        w_h1, w_l4 = strichartz_monitor(times, w, grid)

    # minimal annulus about one dense period of the reference orbit that
    # contains the projected samples, width relative to the orbit radius
    ref_mask = ref.times <= period * (1.0 + 1e-9)
    ref_curve = np.column_stack([ref.alpha[ref_mask], ref.beta[ref_mask]])
    annulus_ratio = annulus_width_ratio(ref_curve, albe)

    sup_eta = float(np.max(np.abs(etas)))
    eta_bound = VERDICT_CONSTANT * sparams.tau ** (0.5 + DELTA1)
    com = np.array(coms)

    return ShadowReport(
        params=sparams, orbit=orbit, n_level=n_level, n_cr=n_cr_target,
        period=period, horizon=horizon, times=times, eta=etas,
        alpha_beta=albe, reference_alpha_beta=ref_curve,
        sup_eta=sup_eta, eta_bound=eta_bound,
        eta_bound_ok=bool(sup_eta <= eta_bound),
        annulus_ratio=annulus_ratio,
        annulus_ok=bool(annulus_ratio <= ANNULUS_THRESHOLD),
        com_series=com, com_sign_changes=count_sign_changes(com),
        w_sup_h1=w_h1, w_l4_linf=w_l4, tilde_r_sup=sup_tr,
        parseval_defect=parseval, mass_drift=mass_drift,
        energy_drift=energy_drift, removed_mass=removed,
        removed_energy=removed_energy, coupling_sup=tuple(coupling_max),
        orbit_amplitude=orbit_amp, pilot_steps=pilot_steps,
        truncation=truncation,
    )


def _period_guess(params: ReducedParams, sparams: ShadowParams,
                  orbit: OrbitSpec, n_level: float) -> float:
    """The small-orbit period 2 pi / omega of the reduction, which sets
    the pilot's step: omega = 2 a_eff sqrt(tau n_cr) below the threshold
    and 2 a_eff sqrt(N^2 - n_cr^2) above it, a_eff = (3 a0011 - a0000)/2."""
    n_cr = sparams.critical_power
    a_eff = float(0.5 * pitchfork_coefficient(params.a))
    if orbit.side == "below":
        omega_est = 2.0 * a_eff * math.sqrt(sparams.tau * n_cr)
    else:
        omega_est = 2.0 * a_eff * math.sqrt(n_level**2 - n_cr**2)
    return 2.0 * math.pi / omega_est


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
        from scipy.spatial import cKDTree

        dists, _ = cKDTree(ref_curve).query(points)
        width = float(2.0 * np.max(dists))
    return width / mean_r


def count_sign_changes(series: np.ndarray) -> int:
    """Sign changes of a series, ignoring excursions inside a deadband of
    5% of its peak."""
    peak = float(np.max(np.abs(series), initial=0.0))
    if peak == 0.0:
        return 0
    band = 0.05 * peak
    signs = [s for s in np.sign(series) * (np.abs(series) > band) if s != 0]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return changes
