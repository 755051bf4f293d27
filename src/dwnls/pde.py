"""Time evolution of i u_t = (-d^2/dx^2 + V) u - |u|^2 u on a 1D grid.

Two steppers:

* split-step Fourier (Strang) for smooth potentials on the periodic grid:
  half step of the pointwise flow exp(-i dt/2 (V - |u|^2)), full kinetic
  step exp(-i dt k^2) in Fourier space, half pointwise step.  Mass is
  conserved to rounding.

* Crank-Nicolson finite differences for delta wells (Dirichlet ends),
  with the cubic term closed on the mass-symmetric average
  rho = (|u_new|^2 + |u_old|^2)/2 (Delfour-Fortin-Payre); the converged
  step conserves the discrete mass exactly.  Delta wells enter the
  tridiagonal operator as -s/dx at their nodes.  The constant part
  M0 = I + (i dt/2) H0 (node 0 pinned) is LU-factored once per stepper;
  each step forms base = u - (i dt/2) H0 u once, and each fixed-point
  sweep is one solve with those factors,

      M0 z = base + (i dt/2) rho(z) (z + u),

  which is the same discrete equation as
  (I + (i dt/2)(H0 - rho)) z = (I - (i dt/2)(H0 - rho)) u.

An optional tail filter zeroes |x| > cutoff_radius every trigger_steps
steps (the truncate-and-continue device for radiation leaving the frame),
recording the discarded mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
# zgtsv is not called here; it stays importable because
# bench/tracer.py resolves dwnls.pde.zgtsv by name
from scipy.linalg.lapack import zgtsv, zgttrf, zgttrs  # noqa: F401

from .errors import NonlinearIterationDiverged
from .grids import Grid
from .linear_spectrum import PotentialSpec, potential_samples


@dataclass
class FieldState:
    grid: Grid
    values: np.ndarray
    time: float = 0.0

    def copy(self) -> "FieldState":
        return FieldState(self.grid, self.values.copy(), self.time)


@dataclass(frozen=True)
class TailFilter:
    trigger_steps: int
    cutoff_radius: float


@dataclass
class EvolveParams:
    dt: float
    t_end: float
    scheme: str = "split_step"          # or "crank_nicolson"
    record_every: int = 1
    nonlinear: bool = True
    tail_filter: Optional[TailFilter] = None
    cn_tol: float = 1e-12
    cn_max_sweeps: int = 25

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.scheme not in ("split_step", "crank_nicolson"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass
class PdeDiagnostics:
    times: np.ndarray
    mass: np.ndarray
    hamiltonian: np.ndarray
    x_com: np.ndarray
    max_amp: np.ndarray
    x_max: np.ndarray
    removed_mass: np.ndarray   # cumulative mass discarded by the tail filter

    def to_csv(self) -> str:
        rows = ["t,N,H,x_com,max_amp,x_max,removed_mass"]
        for i in range(len(self.times)):
            vals = (self.times[i], self.mass[i], self.hamiltonian[i],
                    self.x_com[i], self.max_amp[i], self.x_max[i],
                    self.removed_mass[i])
            rows.append(",".join(format(float(v), ".17g") for v in vals))
        return "\n".join(rows) + "\n"


def mass(state: FieldState) -> float:
    w = state.grid.quad_weights()
    return float(np.sum(w * np.abs(state.values) ** 2))


def hamiltonian(state: FieldState, potential: PotentialSpec | np.ndarray | None) -> float:
    """H[u] = int(|u_x|^2 + V |u|^2 - |u|^4/4); delta wells contribute
    -s (|u(-L/2)|^2 + |u(L/2)|^2)."""
    grid, u = state.grid, state.values
    w = grid.quad_weights()
    du = np.gradient(u, grid.dx)
    h = float(np.sum(w * (np.abs(du) ** 2 - 0.25 * np.abs(u) ** 4)))
    if potential is None:
        return h
    if isinstance(potential, np.ndarray):
        return h + float(np.sum(w * potential * np.abs(u) ** 2))
    if potential.kind == "gauss":
        from .linear_spectrum import potential_value

        return h + float(np.sum(w * potential_value(potential, grid.x)
                                * np.abs(u) ** 2))
    half = potential.separation / 2.0
    for x0 in (-half, half):
        h -= potential.strength * abs(u[grid.node_index(x0)]) ** 2
    return h


def center_of_mass(state: FieldState) -> float:
    w = state.grid.quad_weights()
    n = np.sum(w * np.abs(state.values) ** 2)
    if n == 0.0:
        return 0.0
    return float(np.sum(w * state.grid.x * np.abs(state.values) ** 2) / n)


# ----------------------------------------------------------------------
# split-step Fourier
# ----------------------------------------------------------------------

class SplitStepper:
    """Strang split-step on the periodic grid for a sampled smooth V."""

    def __init__(self, grid: Grid, v_samples: np.ndarray, dt: float,
                 nonlinear: bool = True):
        self.grid = grid
        self.v = np.asarray(v_samples, dtype=float)
        self.dt = dt
        self.nonlinear = nonlinear
        k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)
        self.kinetic_phase = np.exp(-1j * dt * k * k)

    def step(self, u: np.ndarray) -> np.ndarray:
        half = self.v - (np.abs(u) ** 2 if self.nonlinear else 0.0)
        u = np.exp(-0.5j * self.dt * half) * u
        u = np.fft.ifft(self.kinetic_phase * np.fft.fft(u))
        half = self.v - (np.abs(u) ** 2 if self.nonlinear else 0.0)
        return np.exp(-0.5j * self.dt * half) * u


# ----------------------------------------------------------------------
# Crank-Nicolson finite differences
# ----------------------------------------------------------------------

class CrankNicolsonStepper:
    """CN with fixed-point closure of the cubic term (mass-conserving)."""

    def __init__(self, grid: Grid, v_samples: np.ndarray, dt: float,
                 nonlinear: bool = True, tol: float = 1e-12,
                 max_sweeps: int = 25):
        self.grid = grid
        self.dt = dt
        self.nonlinear = nonlinear
        self.tol = tol
        self.max_sweeps = max_sweeps
        dx2 = grid.dx**2
        self.h_diag = 2.0 / dx2 + np.asarray(v_samples, dtype=float)
        self.h_off = -1.0 / dx2
        self._c = 0.5j * dt
        # M0 = I + (i dt/2) H0 on nodes 1..n-1: node 0 is the grid's
        # Dirichlet pin (see hamiltonian_tridiagonal) and stays exactly zero
        n = grid.n_points
        off = np.full(n - 2, self._c * self.h_off)
        *self._lu, info = zgttrf(off, 1.0 + self._c * self.h_diag[1:], off)
        if info != 0:
            raise NonlinearIterationDiverged("tridiagonal factorization failed")
        self._prev = None          # previous state, used as predictor seed

    def reset_history(self) -> None:
        self._prev = None

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """M0^{-1} rhs on the free nodes, zero at the pin (rhs is reused)."""
        x, info = zgttrs(*self._lu, rhs[1:], overwrite_b=1)
        if info != 0:
            raise NonlinearIterationDiverged("tridiagonal solve failed")
        rhs[0] = 0.0
        rhs[1:] = x                # a no-op where LAPACK solved in place
        return rhs

    def step(self, u: np.ndarray) -> np.ndarray:
        c = self._c
        hu = self.h_diag * u
        hu[:-1] += self.h_off * u[1:]
        hu[1:] += self.h_off * u[:-1]
        base = u - c * hu
        if not self.nonlinear:
            return self._solve(base)
        # extrapolated predictor cuts the typical sweep count to ~2
        z = 2.0 * u - self._prev if self._prev is not None else u
        abs_u2 = np.abs(u) ** 2
        half_c = 0.5 * c
        for _ in range(self.max_sweeps):
            # (i dt/2) rho (z + u) with rho = (|z|^2 + |u|^2)/2
            rhs = (half_c * (np.abs(z) ** 2 + abs_u2)) * (z + u)
            rhs += base
            z_new = self._solve(rhs)
            delta = float(np.abs(z_new - z).max())
            z = z_new
            if delta <= self.tol:
                self._prev = u
                return z
        raise NonlinearIterationDiverged(
            f"CN fixed point not converged in {self.max_sweeps} sweeps")


def make_stepper(grid: Grid, potential: PotentialSpec | np.ndarray | None,
                 params: EvolveParams):
    if isinstance(potential, np.ndarray):
        v = potential
    elif potential is None:
        v = np.zeros(grid.n_points)
    else:
        v = potential_samples(potential, grid)
    if params.scheme == "split_step":
        return SplitStepper(grid, v, params.dt, params.nonlinear)
    return CrankNicolsonStepper(grid, v, params.dt, params.nonlinear,
                                params.cn_tol, params.cn_max_sweeps)


# ----------------------------------------------------------------------
# evolution driver
# ----------------------------------------------------------------------

def evolve(state0: FieldState, params: EvolveParams,
           potential: PotentialSpec | np.ndarray | None,
           keep_fields: bool = False):
    """March state0 to t_end, recording diagnostics every record_every steps.

    Returns (final_state, PdeDiagnostics[, fields]) where fields is the
    list of recorded FieldState snapshots when keep_fields is set.
    """
    grid = state0.grid
    stepper = make_stepper(grid, potential, params)
    n_steps = int(round(params.t_end / params.dt))
    u = state0.values.astype(complex).copy()
    t = state0.time
    w = grid.quad_weights()
    filt = params.tail_filter
    if filt is not None:
        keep_mask = np.abs(grid.x) <= filt.cutoff_radius
        if filt.cutoff_radius >= grid.x_max:
            raise ValueError("cutoff_radius must lie inside the domain")
    removed = 0.0

    times, m_, h_, com_, amp_, xm_, rem_ = [], [], [], [], [], [], []
    fields = []

    def record(u, t):
        st = FieldState(grid, u, t)
        times.append(t)
        m_.append(mass(st))
        h_.append(hamiltonian(st, potential))
        com_.append(center_of_mass(st))
        i = int(np.argmax(np.abs(u)))
        amp_.append(float(np.abs(u[i])))
        xm_.append(float(grid.x[i]) if amp_[-1] > 0.0 else 0.0)
        rem_.append(removed)
        if keep_fields:
            fields.append(st.copy())

    record(u, t)
    for k in range(n_steps):
        u = stepper.step(u)
        t = state0.time + (k + 1) * params.dt
        if filt is not None and (k + 1) % filt.trigger_steps == 0:
            removed += float(np.sum(w[~keep_mask] * np.abs(u[~keep_mask]) ** 2))
            u = np.where(keep_mask, u, 0.0)
            if isinstance(stepper, CrankNicolsonStepper):
                stepper.reset_history()
        if (k + 1) % params.record_every == 0 or k == n_steps - 1:
            record(u, t)

    diags = PdeDiagnostics(
        times=np.array(times), mass=np.array(m_), hamiltonian=np.array(h_),
        x_com=np.array(com_), max_amp=np.array(amp_), x_max=np.array(xm_),
        removed_mass=np.array(rem_),
    )
    final = FieldState(grid, u, t)
    if keep_fields:
        return final, diags, fields
    return final, diags


def snapshot_csv(state: FieldState) -> str:
    rows = ["x,re_u,im_u,abs_u"]
    for x, v in zip(state.grid.x, state.values):
        rows.append(f"{x:.17g},{v.real:.17g},{v.imag:.17g},{abs(v):.17g}")
    return "\n".join(rows) + "\n"
