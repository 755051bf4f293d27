"""Equilibria of the two-mode reduction, their linearizations, closed-form
propagators, Floquet monodromy of nearby orbits, and the energy barrier.

On the power level set N the unit-coefficient reduction has the symmetric
equilibrium (A, alpha, beta) = (sqrt(N), 0, 0) for every N >= 0 and, for
N >= n_cr = Omega10 / 2, the pitchfork pair

    A = sqrt((N + n_cr) / 2),  alpha = +-sqrt((N - n_cr) / 2),  beta = 0.

Eigenvalues of the reduced 3x3 linearization:

    symmetric, N < n_cr:  0, +-2i sqrt((n_cr - N) n_cr)   (elliptic)
    symmetric, N > n_cr:  0, +-2  sqrt((N - n_cr) n_cr)   (saddle)
    asymmetric:           0, +-2i sqrt(N^2 - n_cr^2)      (elliptic)

Linear periods are 2 pi / |lambda|; they and the closed-form propagator
exist at elliptic points only (SaddleCase at the saddle).  The energy
barrier between the symmetric saddle and either asymmetric center is
(N - n_cr)^2 / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BelowThreshold,
    InvalidEquilibrium,
    NotPeriodic,
    SaddleCase,
)
from .reduced_dynamics import (
    CARTESIAN,
    CartesianChart,
    ReducedParams,
    Trajectory,
    _implicit_midpoint_path,
    convert,
    invariants,
    pack,
    vf_packed,
)

SYMMETRIC = "symmetric"
ASYM_PLUS = "asymmetric_plus"
ASYM_MINUS = "asymmetric_minus"

ELLIPTIC = "elliptic_center"
SADDLE = "saddle"


@dataclass(frozen=True)
class Equilibrium:
    kind: str
    A: float
    alpha: float
    beta: float
    rotation: float     # Omega* with u ~ e^{-i Omega* t}
    n: float

    def chart_state(self) -> CartesianChart:
        return CartesianChart(A=self.A, alpha=self.alpha, beta=self.beta)


def equilibria(n_level: float, n_cr: float, omega0: float = 0.0):
    """Equilibria on the level set N = n_level (one below n_cr, three above)."""
    if n_level < 0 or n_cr <= 0:
        raise ValueError("requires N >= 0 and n_cr > 0")
    out = [Equilibrium(SYMMETRIC, math.sqrt(n_level), 0.0, 0.0,
                       rotation=omega0 - n_level, n=n_level)]
    if n_level >= n_cr:
        a_star = math.sqrt((n_level + n_cr) / 2.0)
        al_star = math.sqrt((n_level - n_cr) / 2.0)
        # rotation from the stationarity system: Omega* = omega0 - 2N + n_cr
        rot = omega0 - 2.0 * n_level + n_cr
        out.append(Equilibrium(ASYM_PLUS, a_star, al_star, 0.0, rot, n_level))
        out.append(Equilibrium(ASYM_MINUS, a_star, -al_star, 0.0, rot, n_level))
    return out


# ----------------------------------------------------------------------
# linearization matrices (coordinates ordered (alpha, beta, A [, theta]))
# ----------------------------------------------------------------------

def b_tilde(alpha: float, beta: float, a_amp: float, n_cr: float) -> np.ndarray:
    """Jacobian of the decoupled (alpha, beta, A) field along any solution."""
    om10 = 2.0 * n_cr
    return np.array([
        [4.0 * alpha * beta, om10 + 2.0 * alpha**2, 0.0],
        [-(om10 + 6.0 * alpha**2 - 2.0 * a_amp**2), 0.0, 4.0 * alpha * a_amp],
        [-2.0 * a_amp * beta, -2.0 * alpha * a_amp, -2.0 * alpha * beta],
    ])


def b_full(alpha: float, beta: float, a_amp: float, n_cr: float) -> np.ndarray:
    """4x4 Jacobian including the decoupled phase row (theta column is zero)."""
    m = np.zeros((4, 4))
    m[:3, :3] = b_tilde(alpha, beta, a_amp, n_cr)
    m[3, :3] = [6.0 * alpha, 2.0 * beta, 2.0 * a_amp]
    return m


def closed_form_eigenvalues(eq: Equilibrium, n_level: float, n_cr: float):
    """(lambda+, lambda-, 0) of the reduced linearization, closed form."""
    if eq.kind == SYMMETRIC:
        if n_level < n_cr:
            lam = 2.0j * math.sqrt((n_cr - n_level) * n_cr)
        else:
            lam = 2.0 * math.sqrt((n_level - n_cr) * n_cr) + 0.0j
    else:
        lam = 2.0j * math.sqrt(n_level**2 - n_cr**2)
    return lam, -lam, 0.0 + 0.0j


def linear_period(eq: Equilibrium, n_level: float, n_cr: float) -> float:
    """2 pi / |lambda| of the elliptic linearization."""
    lam = closed_form_eigenvalues(eq, n_level, n_cr)[0]
    if abs(lam.real) > 0 or lam.imag == 0:
        raise SaddleCase("no linear period at a hyperbolic point")
    return 2.0 * math.pi / abs(lam)


@dataclass
class LinearizationReport:
    b_full: np.ndarray
    b_reduced: np.ndarray
    eigenvalues_closed: tuple
    eigenvalues_numeric: np.ndarray
    classification: str


def _check_equilibrium(eq: Equilibrium, n_level: float, n_cr: float) -> None:
    ref = {e.kind: e for e in equilibria(n_level, n_cr)}
    if eq.kind not in ref:
        raise InvalidEquilibrium(
            f"{eq.kind} does not exist at N = {n_level}, n_cr = {n_cr}")
    e = ref[eq.kind]
    scale = max(1.0, math.sqrt(n_level))
    if max(abs(e.A - eq.A), abs(e.alpha - eq.alpha), abs(e.beta - eq.beta)) \
            > 1e-8 * scale:
        raise InvalidEquilibrium("equilibrium data inconsistent with (N, n_cr)")


def linearize(eq: Equilibrium, n_level: float, n_cr: float) -> LinearizationReport:
    _check_equilibrium(eq, n_level, n_cr)
    bt = b_tilde(eq.alpha, eq.beta, eq.A, n_cr)
    bf = b_full(eq.alpha, eq.beta, eq.A, n_cr)
    closed = closed_form_eigenvalues(eq, n_level, n_cr)
    numeric = np.linalg.eigvals(bt)
    saddle = bool(np.max(numeric.real) > 1e-8)
    return LinearizationReport(
        b_full=bf,
        b_reduced=bt,
        eigenvalues_closed=closed,
        eigenvalues_numeric=numeric,
        classification=SADDLE if saddle else ELLIPTIC,
    )


def finite_difference_jacobian(state: CartesianChart, params: ReducedParams,
                               h: float = 1e-5):
    """(3x3, 4x4) central-difference Jacobians of the cartesian field,
    in the (alpha, beta, A [, theta]) ordering of the closed forms."""
    if not 1e-7 <= h <= 1e-4:
        raise ValueError("h must lie in [1e-7, 1e-4]")
    # packed state order is (A, alpha, beta, theta); rows of the vector field
    # come back as (A', alpha', beta', theta')
    y0 = pack(state)
    perm = [1, 2, 0, 3]          # packed index for (alpha, beta, A, theta)
    j4 = np.zeros((4, 4))
    for col, idx in enumerate(perm):
        yp, ym = y0.copy(), y0.copy()
        yp[idx] += h
        ym[idx] -= h
        df = (vf_packed(CARTESIAN, yp, params)
              - vf_packed(CARTESIAN, ym, params)) / (2.0 * h)
        j4[:, col] = df[perm]
    return j4[:3, :3], j4


# ----------------------------------------------------------------------
# propagators
# ----------------------------------------------------------------------

def _phi(lam: complex, t: float) -> complex:
    """int_0^t e^{lam s} ds, stable near lam = 0."""
    if abs(lam) * abs(t) < 1e-8:
        return t * (1.0 + 0.5 * lam * t)
    return (np.exp(lam * t) - 1.0) / lam


def linear_flow(eq: Equilibrium, t: float, n_level: float,
                n_cr: float) -> np.ndarray:
    """Propagator e^{B t} at an equilibrium, ordered (alpha, beta, A, theta):
    the spectral closed form of the 3x3 block plus the secular phase row.
    It holds at elliptic points only; at the symmetric saddle (N > n_cr)
    the oscillatory form does not apply and SaddleCase is raised.
    """
    _check_equilibrium(eq, n_level, n_cr)
    bt = b_tilde(eq.alpha, eq.beta, eq.A, n_cr)
    lams = np.linalg.eigvals(bt)
    if np.max(np.abs(lams.real)) > 1e-10:
        raise SaddleCase("oscillatory closed form invalid at a saddle")
    vals, vecs = np.linalg.eig(bt)
    vinv = np.linalg.inv(vecs)
    et = vecs @ np.diag(np.exp(vals * t)) @ vinv
    it = vecs @ np.diag([_phi(l, t) for l in vals]) @ vinv
    g = np.array([6.0 * eq.alpha, 2.0 * eq.beta, 2.0 * eq.A])
    out = np.zeros((4, 4))
    out[:3, :3] = et.real
    out[3, :3] = (g @ it).real
    out[3, 3] = 1.0
    return out


# ----------------------------------------------------------------------
# monodromy along periodic orbits
# ----------------------------------------------------------------------

@dataclass
class MonodromyReport:
    multipliers_full: np.ndarray      # 4 Floquet multipliers of M(T)
    multipliers_reduced: np.ndarray   # 3 multipliers of the (alpha,beta,A) block
    defect_of_unit_pair: float
    product_defect: float
    period: float
    monodromy: np.ndarray = field(repr=False)


def monodromy(orbit: Trajectory, params: ReducedParams, period: float,
              dt: float = None) -> MonodromyReport:
    """Floquet monodromy of a periodic orbit of the reduction.

    The orbit trajectory supplies the initial point; the variational
    equation uses the analytic Jacobian along a fresh midpoint integration
    over [0, period] in the (alpha, beta, A, theta) ordering.  dt defaults
    to the orbit's own sample spacing so the discrete flows share one
    period.
    """
    if params.a is not None:
        raise ValueError("monodromy implements the unit-coefficient reduction")
    n_cr = params.n_cr_fd
    state0 = convert(orbit.state(0), CARTESIAN)
    y0 = pack(state0)
    if dt is None:
        dt = float(np.median(np.diff(orbit.times)))
    n_steps = max(1, int(round(period / dt)))
    dt = period / n_steps
    # the tangent M follows the orbit by the Cayley update
    # (I - dt/2 B) M+ = (I + dt/2 B) M, B at each step's midpoint
    m, eye = np.eye(4), np.eye(4)

    def cayley(a_amp, alpha, beta, _theta):
        # as numpy scalars: b_full squares with **, which on Python floats
        # is C pow and can round differently from numpy's x * x
        hb = 0.5 * dt * b_full(*np.array((alpha, beta, a_amp)), n_cr)
        m[:] = np.linalg.solve(eye - hb, (eye + hb) @ m)

    y_end = _implicit_midpoint_path(CARTESIAN, y0, params, (0.0, period), dt,
                                    n_steps, on_step=cayley)[1][-1]
    scale = max(1.0, float(np.max(np.abs(y0))))
    residual = float(np.max(np.abs(y_end[:3] - y0[:3])))
    if residual > 1e-8 * scale:
        raise NotPeriodic(
            f"orbit fails to close after one period (residual {residual:.3e})")
    mults4 = np.linalg.eigvals(m)
    mults3 = np.linalg.eigvals(m[:3, :3])
    order = np.argsort(np.abs(mults4 - 1.0))
    unit_defect = float(np.sum(np.abs(mults4[order[:2]] - 1.0)))
    product_defect = float(abs(np.linalg.det(m) - 1.0))
    return MonodromyReport(
        multipliers_full=mults4,
        multipliers_reduced=mults3,
        defect_of_unit_pair=unit_defect,
        product_defect=product_defect,
        period=period,
        monodromy=m,
    )


# ----------------------------------------------------------------------
# energy barrier
# ----------------------------------------------------------------------

def energy_barrier(n_level: float, n_cr: float) -> float:
    """H(symmetric saddle) - H(asymmetric center) on the level set N."""
    if n_level <= n_cr:
        raise BelowThreshold("energy barrier defined only for N > n_cr")
    params = ReducedParams.from_ncr(n_cr, omega0=0.0)
    eqs = {e.kind: e for e in equilibria(n_level, n_cr)}
    _, h_saddle = invariants(eqs[SYMMETRIC].chart_state(), params)
    _, h_center = invariants(eqs[ASYM_PLUS].chart_state(), params)
    return h_saddle - h_center
