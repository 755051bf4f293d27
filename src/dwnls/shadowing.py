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
   source held at each step's midpoint.  Node 0 is pinned, so the free
   nodes are reflection-symmetric about x = 0 and the eigenbasis is
   exactly that of two half-size blocks, even and odd
   (PinnedHamiltonian.blocks), whose lowest pairs are psi0 and psi1.  It
   does not depend on the PDE, so it advances alongside the march in
   closed form from sample to sample, the filter's cuts on the way, and
   w is formed SAMPLE_CHUNK samples at a time and kept only as its norms;
5. report sup|eta|, the annulus verdict around one full period of the
   reference orbit at any horizon, the center-of-mass well count, and
   invariant drifts.

The field u and the residual R are complex arrays of node values on
spectral.grid, and the modes psi0 and psi1 real ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import ChartBreakdown, DwnlsError
from .grids import Grid, inner
from .io_utils import csv_text
from .linear_spectrum import (SpectralData, pinned_hamiltonian,
                              potential_samples, unfold)
from .pde import (
    CrankNicolsonStepper,
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
    equilibrium_alpha,
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
# (BLOCK + 1 rows of the mode count), forms its source SOURCE_WINDOW
# steps at a time, and goes to the grid SAMPLE_CHUNK samples per product
# with V
BLOCK = 64
SOURCE_WINDOW = 1024
SAMPLE_CHUNK = 8


# ----------------------------------------------------------------------
# projection and frames
# ----------------------------------------------------------------------

def project(u: np.ndarray, spectral: SpectralData):
    """(c0, c1, R): u split into c0 psi0 + c1 psi1 + R with R orthogonal
    to both modes."""
    psi0, psi1, grid = spectral.psi0, spectral.psi1, spectral.grid
    c0 = complex(inner(psi0, u, grid))
    c1 = complex(inner(psi1, u, grid))
    return c0, c1, u - c0 * psi0 - c1 * psi1


def build_initial_data(point, spectral: SpectralData,
                       theta0: float = 0.0) -> np.ndarray:
    """Two-mode field e^{i theta0}(A psi0 + (alpha + i beta) psi1)."""
    c = convert(point, CARTESIAN) if not hasattr(point, "alpha") else point
    ph = complex(math.cos(theta0), math.sin(theta0))
    return ph * (c.A * spectral.psi0
                 + complex(c.alpha, c.beta) * spectral.psi1)


# ----------------------------------------------------------------------
# driven radiation field
# ----------------------------------------------------------------------

def mode_products(spectral: SpectralData) -> np.ndarray:
    """The four cubic mode products p0^3, p1^3, p0 p1^2, p0^2 p1 (rows)."""
    p0, p1 = spectral.psi0, spectral.psi1
    return np.array([p0**3, p1**3, p0 * p1**2, p0**2 * p1])


def source_coefficients(a_amp, alpha, beta):
    """The coefficients of the four mode_products in the two-mode cubic

        F_b = -(A^3 p0^3 + |z|^2 z p1^3 + (A z^2 + 2 A |z|^2) p0 p1^2
                + (A^2 conj(z) + 2 A^2 z) p0^2 p1),   z = alpha + i beta,

    for scalars or for arrays of equal shape (one entry per time)."""
    z = alpha + 1j * beta
    p = alpha * alpha + beta * beta
    a2 = a_amp * a_amp
    return (-a2 * a_amp, -p * z, -a_amp * (z * z + 2.0 * p),
            -a2 * (np.conj(z) + 2.0 * z))


def mode_source(a_amp: float, alpha: float, beta: float,
                spectral: SpectralData) -> np.ndarray:
    """P_c F_b(sigma): the continuous-spectrum part (project) of the
    two-mode cubic, combined from mode_products and source_coefficients."""
    c = source_coefficients(a_amp, alpha, beta)
    f_b = sum(cj * fj for cj, fj in zip(c, mode_products(spectral)))
    return project(f_b, spectral)[2]


class _ReferenceOrbit:
    """Fine-grained reduced reference with linear interpolation in time;
    A > 0 throughout, as at every launch A = sqrt(N - alpha0^2)."""

    def __init__(self, traj: Trajectory):
        self.times = traj.times
        self.a, self.alpha, self.beta, _ = traj.cartesian_series()

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
    return _ReferenceOrbit(integrate(state0, params, (0.0, horizon), dt))


class _TildeREvolver:
    """Exact stepper of the orbit-driven radiation field

        i R~_t = (H - Omega0) R~ + m(t) R~ + P_c F_b(sigma*(t))

    in the eigenbasis of the pinned finite-difference H.  Node 0 is
    pinned, so the free nodes 1..n-1 are reflection-symmetric about the
    centre free node c = n/2 - 1 (x = 0), and H on them commutes with
    x -> -x exactly: its eigenvectors are even or odd, those of the even
    and odd blocks over the half grid 0..c of free nodes
    (PinnedHamiltonian.block_eigenpairs, all pairs by the MRRR driver).
    Ve and Vo hold their half-grid values, except the lowest of each
    block, which are psi0 and psi1; an even vector takes the same values
    at the mirror nodes, an odd one their negatives (unfold).  S holds
    the even modes first, the odd ones after;
    the field is R~ = e^{-i theta(t)} V S with theta = int m, so it lies
    in the continuous spectrum by construction and node 0 stays exactly
    zero.  With mu = lambda - Omega0 and the source held at the step
    midpoint, step k is exact for every mode:

        S <- E S + Phi G c_k,   E = e^{-i dt mu},  Phi = (E - 1) / mu,

    where G = V^T (the four mode_products) and c_k are the four
    source_coefficients of sigma*((k + 1/2) dt) times e^{i theta}
    there.  V leaves out psi0 and psi1, so V^T P_c = V^T and the products
    go in unprojected.  R~ does not depend on the PDE, so it is formed
    only where it is needed: step(s, m) makes m steps at once in closed
    form, and advance carries S from S = 0 to each step the run samples
    in turn, with the tail filter's cuts on the way (it cuts R~ as
    pde.march cuts the PDE field, so that outgoing radiation does not
    re-enter); c_k and theta come SOURCE_WINDOW steps at a time (_load).
    Only G, to_grid and cut fold or unfold across x = 0: to_grid costs
    two products (one per block) per few samples, cut two per block with
    the rows outside the filter.  Ve and Vo cost about 4 n^2 bytes: 4.2 MB
    at 1,024 points, 67 MB at 4,096.
    """

    def __init__(self, spectral: SpectralData, dt: float,
                 orbit: _ReferenceOrbit, n_steps: int):
        self.grid = spectral.grid
        (lam_e, ve), (lam_o, vo) = pinned_hamiltonian(
            spectral.spec, self.grid).block_eigenpairs()
        c = self.centre = self.grid.n_points // 2 - 1
        self.ve, self.vo = ve[:, 1:], vo[:, 1:]
        mu = np.concatenate((lam_e[1:], lam_o[1:])) - spectral.omega0
        self.e = np.exp(-1j * dt * mu)
        # E^BLOCK, ..., E, 1 by repeated products, as single steps form them
        self._powers = np.ones((BLOCK + 1, len(mu)), complex)
        np.cumprod(np.broadcast_to(self.e, (BLOCK, len(mu))), axis=0,
                   out=self._powers[-2::-1])
        # (E - 1)/mu without the cancellation of E - 1 at small dt mu
        phi = -2j * np.sin(0.5 * dt * mu) * np.exp(-0.5j * dt * mu) / mu
        products = mode_products(spectral)[:, 1:]
        mirror = products[:, :c:-1]               # free nodes 2c, ..., c+1
        even = products[:, :c + 1].copy()
        even[:, :c] += mirror
        self.g_phi = phi[:, None] * np.concatenate(
            (self.ve.T @ even.T, self.vo.T @ (products[:, :c] - mirror).T))
        self.dt, self.orbit, self.n_steps = dt, orbit, n_steps
        self.ca, self.cb = spectral.a[0, 0, 0, 0], spectral.a[0, 0, 1, 1]
        self.s, self.removed_mass, self.k = np.zeros_like(self.e), 0.0, 0
        self._load(0, 0.0)

    def _load(self, k0: int, carry: float) -> None:
        """The source coefficients c of the steps from k0 on (SOURCE_WINDOW
        of them at most, and SOURCE_WINDOW >= BLOCK) and theta from step k0
        to the step after them, with carry the sum of m before k0: one
        cumulative sum, so theta has the bits of one sum from step 0."""
        k = np.arange(k0, min(k0 + SOURCE_WINDOW, self.n_steps))
        a, al, be = self.orbit.sample((k + 0.5) * self.dt)
        # m = a0000 A^2 + a0011 (3 alpha^2 + beta^2), the rotating-frame
        # phase velocity of the reference orbit, held over each step
        m = self.ca * a * a + self.cb * (3.0 * al * al + be * be)
        self._sums = np.cumsum(np.concatenate(([carry], m)))
        self.theta = self.dt * self._sums
        self.c = np.stack(source_coefficients(a, al, be), axis=1)
        self.c *= np.exp(1j * (self.theta[:-1] + 0.5 * self.dt * m))[:, None]
        self.k0 = k0

    def step(self, s: np.ndarray, m: int = 1) -> np.ndarray:
        """S after m more steps (m = 1: S <- E S + Phi G c_k):

            S <- E^m S + sum_{p<m} E^p Phi G c_{k+m-1-p},

        in blocks of at most BLOCK steps, each one product of a slice of
        the table of E^p with the block's source coefficients."""
        while m > 0:
            b = min(m, BLOCK)
            if self.k + b > self.k0 + len(self.c):
                self._load(self.k, self._sums[self.k - self.k0])
            k = self.k - self.k0
            p = self._powers[BLOCK - b:]          # E^b, E^(b-1), ..., 1
            s = p[0] * s + np.sum(self.g_phi * (p[1:].T @ self.c[k:k + b]),
                                  axis=1)
            self.k += b
            m -= b
        return s

    def advance(self, target: int,
                tail_filter: Optional[TailFilter] = None):
        """(S, theta) at step target (not before the current step), cut
        by the tail filter every trigger_steps steps on the way; a cut acts
        before the sample at the same step, as in pde.march, and the mass
        it removes adds to removed_mass."""
        if tail_filter is not None:
            every = tail_filter.trigger_steps
            keep = np.abs(self.grid.x) <= tail_filter.cutoff_radius
            for cut_at in range((self.k // every + 1) * every,
                                target + 1, every):
                self.s, removed = self.cut(self.step(self.s, cut_at - self.k),
                                           keep)
                self.removed_mass += removed
        if target > self.k:
            self.s = self.step(self.s, target - self.k)
        return self.s, self.theta[self.k - self.k0]

    def at_steps(self, steps, tail_filter: Optional[TailFilter] = None):
        """R~ on the grid at each of the ascending steps (one row each)."""
        ss, theta = zip(*(self.advance(k, tail_filter) for k in steps))
        return self.to_grid(np.array(ss), theta)

    def to_grid(self, ss: np.ndarray, theta) -> np.ndarray:
        """R~ on the grid (one row each) from the rows of ss, the S of steps
        with the given theta: real products with Ve and Vo, SAMPLE_CHUNK
        samples at a time, unfolded onto the free nodes."""
        n_even = self.ve.shape[1]
        phase = np.exp(-1j * np.asarray(theta))
        out = np.zeros((len(ss), self.grid.n_points), complex)
        for i in range(0, len(ss), SAMPLE_CHUNK):
            z = ss[i:i + SAMPLE_CHUNK]
            n = len(z)
            parts = np.concatenate((z.real, z.imag))
            free = unfold(parts[:, :n_even] @ self.ve.T,
                          parts[:, n_even:] @ self.vo.T)
            out[i:i + n, 1:] = ((free[:n] + 1j * free[n:])
                                * phase[i:i + n, None])
        return out

    def cut(self, s: np.ndarray, keep: np.ndarray):
        """(S of P_c(R~ zeroed where keep is False), the mass removed as a
        dx-sum) for the tail filter's |x| <= r mask.  The mask is
        symmetric, so the free nodes outside it are the first p of the
        half grid and their mirrors: in each block, with a = V[:p] S,
        S <- S - 2 V[:p]^T a removes the mass 2 dx |a|^2 (row blocks of
        Ve and Vo, so no copy of them)."""
        p = int(np.count_nonzero(~keep[1:self.centre + 1]))
        s = s.copy()
        n_even = self.ve.shape[1]
        removed = 0.0
        for v, part in ((self.ve, s[:n_even]), (self.vo, s[n_even:])):
            r_out = _real_product(v[:p], part)
            removed += 2.0 * self.grid.dx * float(np.vdot(r_out, r_out).real)
            part -= 2.0 * _real_product(v[:p].T, r_out)
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

def coupling_errors(a_amp: float, alpha: float, beta: float, r: np.ndarray,
                    spectral: SpectralData):
    """(Error_A, Error_alpha, Error_beta, Error_theta): the exact
    radiation-coupling terms of the moving-frame equations, evaluated by
    quadrature against the rotating-frame residual field r on
    spectral.grid."""
    if a_amp <= 1e-8:
        raise ChartBreakdown("Error_theta divides by A")
    p0, p1 = spectral.psi0, spectral.psi1
    z = complex(alpha, beta)
    p = alpha * alpha + beta * beta

    lin_r = (2.0 * a_amp**2 * p0 * p0 + 4.0 * a_amp * alpha * p0 * p1
             + 2.0 * p * p1 * p1) * r
    lin_rbar = (a_amp**2 * p0 * p0 + z * z * p1 * p1
                + 2.0 * a_amp * z * p0 * p1) * np.conj(r)
    quad = (a_amp * p0 + z.conjugate() * p1) * r * r \
        + (2.0 * a_amp * p0 + 2.0 * z * p1) * np.abs(r) ** 2
    cubic = np.abs(r) ** 2 * r
    f_r = -(lin_r + lin_rbar + quad + cubic)

    g0 = complex(inner(p0, f_r, spectral.grid))
    g1 = complex(inner(p1, f_r, spectral.grid))
    err_a = g0.imag
    err_alpha = g1.imag - beta / a_amp * g0.real
    err_beta = -g1.real - alpha / a_amp * g0.real
    err_theta = -g0.real / a_amp
    return err_a, err_alpha, err_beta, err_theta


def strichartz_monitor(fields, grid: Grid):
    """(H1 norm, sup_x |w|) of each row of a series of sampled fields, the
    terms of sup_t H1 and of l4_in_time."""
    f = np.abs(fields)
    df = np.abs(np.gradient(fields, grid.dx, axis=1))
    h1 = np.sqrt(grid.dx * np.sum(f**2 + df**2, axis=1))
    return h1, np.max(f, axis=1)


def l4_in_time(times: np.ndarray, sup: np.ndarray) -> float:
    """The L4-in-time norm of sup_x |w| sampled at times (trapezoid)."""
    return float(np.trapezoid(sup**4, times)) ** 0.25


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

    def __post_init__(self):
        if self.side not in ("above", "below"):
            raise ValueError("side must be 'above' or 'below'")
        if not self.dt_pde > 0:
            raise ValueError("dt_pde (--dt) must be positive")
        if self.horizon_periods is not None and not self.horizon_periods > 0:
            raise ValueError("horizon_periods (--periods) must be positive")


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
    tilde_r_removed_mass: float    # what the tail filter's cuts took from R~
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
        """Every field but the parameter objects and the series (which
        eta_series.csv holds), and the keys derived from them."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("params", "orbit", "times", "eta",
                                 "alpha_beta", "reference_alpha_beta",
                                 "com_series")}
        out.update(
            side=self.orbit.side, tau=self.params.tau,
            implied_gamma=self.params.implied_gamma,
            horizon_truncated=self.horizon_truncated,
            tilde_r_removed_ratio=(
                self.removed_mass / self.tilde_r_removed_mass
                if self.tilde_r_removed_mass > 0.0 else None))
        return out

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
    if not alpha0 * alpha0 < n_level:
        raise ValueError(f"amplitude_factor (--amplitude-factor) "
                         f"{orbit.amplitude_factor} puts alpha(0)^2 at or "
                         f"above the power N = {n_level:.6g}")
    a0 = math.sqrt(n_level - alpha0 * alpha0)
    return ModeAmplitudes(complex(a0, 0.0), complex(alpha0, 0.0)), \
        n_level, eq_alpha, abs(alpha0 - eq_alpha)


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
    ref = reduced_reference(state0, params,
                            max(horizon, period) + 2.0 * dt_red, dt_red)

    # PDE setup
    grid = spectral.grid
    u0 = build_initial_data(convert(state0, CARTESIAN), spectral,
                            theta0=orbit.theta0)
    dt = orbit.dt_pde
    n_steps = int(round(horizon / dt))
    if n_steps < 1:
        raise ValueError(f"horizon {horizon:.3g} is under half a PDE step: "
                         "raise --periods or lower --dt")
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
        return hamiltonian(u, grid, v)

    # masses on the free nodes, the weights the pinned step conserves
    mass0 = field_mass(u0, grid)
    energy0 = energy(u0)

    # R~ does not depend on the PDE: every SAMPLE_CHUNK samples it
    # advances to them, with the march's cuts, and w = R - R~ there goes
    # to its norms (the H1 norm and sup|w| of each row, and sup|R~|)
    tilde_r = _TildeREvolver(spectral, dt, ref, n_steps)
    times, etas, albe, coms, chunk, norms = [], [], [], [], [], []
    coupling_max = [0.0, 0.0, 0.0, 0.0]
    parseval = mass_drift = energy_drift = 0.0
    removed = removed_energy = 0.0
    truncation = None

    def flush():
        r_rot, ks = zip(*chunk)
        r_t = tilde_r.at_steps(ks, tail_filter)
        norms.append((*strichartz_monitor(np.array(r_rot) - r_t, grid),
                      np.max(np.abs(r_t), axis=1)))
        chunk.clear()

    def count_cut(before, after):
        nonlocal removed_energy
        removed_energy += energy(before) - energy(after)

    def take_sample(k, u, removed_now):
        nonlocal parseval, mass_drift, energy_drift, removed
        removed = removed_now
        t = k * dt
        c0, c1, r = project(u, spectral)
        fr = convert(ModeAmplitudes(c0, c1), CARTESIAN)
        a_p, al_p, be_p, th_p = fr.A, fr.alpha, fr.beta, fr.theta
        a_r, al_r, be_r = ref.sample(t)
        r_rot = r * complex(math.cos(-th_p), math.sin(-th_p))
        errs = coupling_errors(a_p, al_p, be_p, r_rot, spectral)
        times.append(t)
        etas.append((a_p - a_r, al_p - al_r, be_p - be_r))
        albe.append((al_p, be_p))
        coms.append(center_of_mass(u, grid))
        n_tot = field_mass(u, grid)
        split = abs(c0) ** 2 + abs(c1) ** 2 + field_mass(r, grid)
        parseval = max(parseval, abs(n_tot - split))
        mass_drift = max(mass_drift, abs(n_tot + removed - mass0))
        energy_drift = max(energy_drift,
                           abs(energy(u) + removed_energy - energy0))
        for j in range(4):
            coupling_max[j] = max(coupling_max[j], abs(errs[j]))
        chunk.append((r_rot, k))
        if len(chunk) == SAMPLE_CHUNK:
            flush()

    take_sample(0, u0, 0.0)
    try:
        march(u0, stepper, n_steps, sample_every, take_sample,
              tail_filter, count_cut)
    except DwnlsError as exc:
        truncation = {"error": type(exc).__name__, "message": str(exc),
                      "step": exc.step, "time": exc.step * dt}
    if chunk:
        flush()

    times = np.array(times)
    etas = np.array(etas)
    albe = np.array(albe)
    h1, w_sup, tr_sup = map(np.concatenate, zip(*norms))

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
        w_sup_h1=float(np.max(h1)),
        w_l4_linf=l4_in_time(times, w_sup),
        tilde_r_sup=float(np.max(tr_sup)),
        parseval_defect=parseval, mass_drift=mass_drift,
        energy_drift=energy_drift, removed_mass=removed,
        removed_energy=removed_energy,
        tilde_r_removed_mass=tilde_r.removed_mass,
        coupling_sup=tuple(coupling_max),
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

    The curve is parametrized by polar angle about its centroid, and the
    width is the span of signed radial deviations from it.  Libration and
    transport orbits over one full period are star-shaped there; a curve
    that is not (16 distinct polar angles or fewer, or a gap of 0.5 rad or
    more) raises ChartBreakdown.
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
    gap = float(np.max(np.diff(phi_s), initial=0.0))
    if not (len(phi_s) > 16 and gap < 0.5 and mean_r > 0):
        raise ChartBreakdown(
            f"reference curve is not star-shaped about its centroid: "
            f"{len(phi_s)} distinct polar angles, largest gap {gap:.3g} rad")
    relp = points - c
    phi_p = np.arctan2(relp[:, 1], relp[:, 0])
    r_p = np.hypot(relp[:, 0], relp[:, 1])
    phi_ext = np.concatenate((phi_s - 2 * np.pi, phi_s, phi_s + 2 * np.pi))
    r_ext = np.concatenate((r_s, r_s, r_s))
    dev = r_p - np.interp(phi_p, phi_ext, r_ext)
    width = float(max(np.max(dev), 0.0) - min(np.min(dev), 0.0))
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
