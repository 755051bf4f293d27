"""Time evolution of i u_t = (-d^2/dx^2 + V) u - |u|^2 u on a 1D grid.

Two steppers:

* split-step Fourier (Strang) for smooth potentials on the periodic grid:
  half step P_1/2 of the pointwise flow exp(-i dt/2 (V - |u|^2)), full
  kinetic step K = exp(-i dt k^2) in Fourier space, half pointwise step.
  P_1/2 keeps |u|, so one step's closing half and the next step's opening
  half are the same phase, and a march runs as

      P_1/2 K P_1 K ... K P_1/2,

  where P_1 is that phase applied twice: each step builds it once, from
  the post-kinetic field, as its closing half, and the next step reuses it
  as its opening half.  A field the step did not itself return (the first,
  or one cut by the tail filter) gets its own opening phase.  Every step
  still returns the full Strang step.  Mass is conserved to rounding.

* Crank-Nicolson finite differences (Dirichlet ends) for delta wells and
  every shadowing run, with the cubic term closed on the mass-symmetric
  average rho = (|u_new|^2 + |u_old|^2)/2 (Delfour-Fortin-Payre); the
  converged step conserves the discrete mass exactly.  Delta wells enter the
  tridiagonal operator as -s/dx at their nodes.  The constant part
  M0 = I + (i dt/2) H0 (node 0 pinned) is LU-factored once per stepper;
  each step forms base = u - (i dt/2) H0 u once, and each fixed-point
  sweep is one solve with those factors,

      M0 z = base + (i dt/2) rho(z) (z + u),

  which is the same discrete equation as
  (I + (i dt/2)(H0 - rho)) z = (I - (i dt/2)(H0 - rho)) u.
  The sweeps stop on the a-posteriori bound of the contraction mapping
  theorem: with L = 3 dt max|u|^2 the iterate after an update of size
  delta is within L/(1 - L) delta of the fixed point while L < 1.  A step
  stops once that bound, or delta itself when it is smaller, is at most
  cn_tol; for L < 1/2 (L is about 0.01 at dt = 4e-3 and |u| <= 1) cn_tol
  so bounds the max-norm distance from the fixed point.

One driver, march, advances one or more fields in lockstep, one stepper
each, with a callback after every record_every-th step and the last.  Its
optional tail filter zeroes |x| > cutoff_radius in every field every
trigger_steps steps (truncate-and-continue for radiation leaving the
frame) through each stepper's cut, which also drops a CN predictor's
history and lets a stepper that carries its field in its own basis cut
it there, and counts the mass removed from the first field.

The reported energy is the one each scheme conserves, a discretization
of H[u] = int |u_x|^2 + V |u|^2 - |u|^4 / 2 (see hamiltonian).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
# zgtsv is not called here; it stays importable because
# bench/tracer.py resolves dwnls.pde.zgtsv by name
from scipy.linalg.lapack import zgtsv, zgttrf, zgttrs  # noqa: F401

from .errors import DwnlsError, NonlinearIterationDiverged
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

    def __post_init__(self):
        if self.trigger_steps < 1:
            raise ValueError("tail filter trigger_steps must be at least 1")
        if not self.cutoff_radius > 0:
            raise ValueError("tail filter cutoff_radius must be positive")


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
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if round(self.t_end / self.dt) < 1:
            raise ValueError("t_end shorter than one step")
        if self.cn_max_sweeps < 1:
            raise ValueError("cn_max_sweeps must be at least 1")
        if not self.cn_tol > 0:
            raise ValueError("cn_tol must be positive")


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


def hamiltonian(state: FieldState, potential: PotentialSpec | np.ndarray | None,
                scheme: str = "crank_nicolson") -> float:
    """The energy that `scheme` conserves, H[u] = int(|u_x|^2 + V |u|^2
    - |u|^4/2), with V sampled as the steppers sample it (delta wells as
    -s/dx at their nodes) and rectangle sums of step dx.

    Crank-Nicolson: the quadratic form of the pinned tridiagonal H on the
    free nodes 1..n-1 (u[0] is the Dirichlet pin and is not read), which
    the closure on rho = (|u_new|^2 + |u_old|^2)/2 conserves to the
    fixed point's tolerance.  Split-step: the spectral kinetic energy of
    the periodic grid, conserved by the Strang step to O(dt^2).
    """
    grid, u = state.grid, state.values
    dx = grid.dx
    v = _samples(grid, potential)
    if scheme == "split_step":
        k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=dx)
        kinetic = dx / grid.n_points * float(
            np.sum(k * k * np.abs(np.fft.fft(u)) ** 2))
        a2 = np.abs(u) ** 2
    else:
        # sum over the free nodes of |u_{i+1} - u_i|^2 / dx^2, with the
        # pinned zero on both sides (node n wraps to node 0)
        free = u[1:]
        kinetic = float(np.sum(np.abs(np.diff(free)) ** 2)
                        + abs(free[0]) ** 2 + abs(free[-1]) ** 2) / dx
        a2 = np.abs(free) ** 2
        v = v[1:]
    return kinetic + dx * float(np.sum((v - 0.5 * a2) * a2))


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
    """Strang split-step on the periodic grid for a sampled smooth V.

    The pointwise half step exp(-i dt/2 (V - |u|^2)) leaves |u| unchanged,
    so the closing half of one step and the opening half of the next are
    the same phase.  step builds it once, from the post-kinetic field, and
    keeps it with the array it returns: when the next call gets that very
    array back, its opening half reuses the phase.  Any other array (the
    first step, a field cut by the tail filter, a copy) gets its own.  The
    returned array is read-only, so a caller cannot change the field
    behind the kept phase; a changed field is a new array.
    """

    def __init__(self, grid: Grid, v_samples: np.ndarray, dt: float,
                 nonlinear: bool = True):
        self.grid = grid
        self.v = np.asarray(v_samples, dtype=float)
        self.dt = dt
        self.nonlinear = nonlinear
        k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)
        self.kinetic_phase = np.exp(-1j * dt * k * k)
        # without the cubic term the half step is a constant phase
        self._phase = None if nonlinear else np.exp(-0.5j * dt * self.v)
        self._last = None          # the array the last step returned

    def _half_phase(self, u):
        """exp(-i dt/2 (V - |u|^2)), the pointwise half step at u."""
        return np.exp(-0.5j * self.dt * (self.v - np.abs(u) ** 2))

    def cut(self, u: np.ndarray, keep: np.ndarray):
        """(u zeroed where keep is False, the mass removed); the next step
        builds its opening phase from the cut field."""
        self._last = None
        return cut_on_grid(self.grid, u, keep)

    def step(self, u: np.ndarray) -> np.ndarray:
        if not self.nonlinear or u is self._last:
            opening = self._phase
        else:
            opening = self._half_phase(u)
        w = np.fft.ifft(self.kinetic_phase * np.fft.fft(opening * u))
        if self.nonlinear:
            self._phase = self._half_phase(w)
        out = self._phase * w
        out.flags.writeable = False
        self._last = out
        return out


# ----------------------------------------------------------------------
# Crank-Nicolson finite differences
# ----------------------------------------------------------------------

class CrankNicolsonStepper:
    """CN with fixed-point closure of the cubic term (mass-conserving).

    Each sweep applies z -> M0^{-1} (base + (i dt/2) rho(z) (z + u)).  The
    closure is Lipschitz in z with constant about 1.5 dt max|u|^2 near u;
    L = 3 dt max|u|^2 doubles that to cover z != u and M0^{-1} in the max
    norm.  A step stops when the update delta of its last sweep satisfies
    delta <= tol or, while L < 1, L/(1 - L) delta <= tol.  For L < 1/2 the
    second test is the weaker one and leaves the returned iterate within
    tol of the fixed point; for a longer step the update test decides.
    steps, sweeps and sweeps_max count the work done (a step that fails
    counts max_sweeps).
    """

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
        # work done: steps taken, sweeps over all steps, most in one step
        self.steps = self.sweeps = self.sweeps_max = 0

    @property
    def sweeps_per_step(self) -> float:
        return self.sweeps / self.steps if self.steps else 0.0

    def _count(self, sweeps: int):
        self.steps += 1
        self.sweeps += sweeps
        self.sweeps_max = max(self.sweeps_max, sweeps)

    def cut(self, u: np.ndarray, keep: np.ndarray):
        """(u zeroed where keep is False, the mass removed); the predictor
        must not extrapolate across the cut, so the history is dropped."""
        self._prev = None
        return cut_on_grid(self.grid, u, keep)

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
            self._count(1)
            return self._solve(base)
        # extrapolated predictor: starts ~dt^2 from the fixed point
        z = 2.0 * u - self._prev if self._prev is not None else u
        abs_u2 = np.abs(u) ** 2
        half_c = 0.5 * c
        # distance from the fixed point <= lip/(1 - lip) * delta while
        # lip < 1; stop once min(1, that factor) * delta <= tol
        lip = 3.0 * self.dt * float(abs_u2.max())
        gain = lip / (1.0 - lip) if lip < 0.5 else 1.0
        for sweeps in range(1, self.max_sweeps + 1):
            # (i dt/2) rho (z + u) with rho = (|z|^2 + |u|^2)/2
            rhs = (half_c * (np.abs(z) ** 2 + abs_u2)) * (z + u)
            rhs += base
            z_new = self._solve(rhs)
            delta = float(np.abs(z_new - z).max())
            z = z_new
            if gain * delta <= self.tol:
                break
        else:
            self._count(self.max_sweeps)
            raise NonlinearIterationDiverged(
                f"CN fixed point not converged in {self.max_sweeps} sweeps")
        self._count(sweeps)
        self._prev = u
        return z


def cut_on_grid(grid: Grid, u: np.ndarray, keep: np.ndarray):
    """(u zeroed where keep is False, the mass removed from it)."""
    out = ~keep
    removed = float(np.sum(grid.quad_weights()[out] * np.abs(u[out]) ** 2))
    return np.where(keep, u, 0.0), removed


def _samples(grid: Grid, potential: PotentialSpec | np.ndarray | None) -> np.ndarray:
    """Grid samples of V (zero without a potential)."""
    if isinstance(potential, np.ndarray):
        return potential
    if potential is None:
        return np.zeros(grid.n_points)
    return potential_samples(potential, grid)


def make_stepper(grid: Grid, potential: PotentialSpec | np.ndarray | None,
                 params: EvolveParams):
    v = _samples(grid, potential)
    if params.scheme == "split_step":
        return SplitStepper(grid, v, params.dt, params.nonlinear)
    return CrankNicolsonStepper(grid, v, params.dt, params.nonlinear,
                                params.cn_tol, params.cn_max_sweeps)


# ----------------------------------------------------------------------
# evolution driver
# ----------------------------------------------------------------------

def march(fields: list, steppers: list, n_steps: int, record_every: int,
          on_record, tail_filter: Optional[TailFilter] = None) -> float:
    """Advance fields[i] with steppers[i].step in lockstep for n_steps steps.

    on_record(k, fields, removed) is called after every record_every-th
    step k (1-based) and after the last, with the mass the tail filter has
    removed from fields[0] so far; that total is also returned.  The
    filter acts on the grid of steppers[0]: every field is cut by its own
    stepper's cut(field, keep), which returns the cut field and the mass
    it removed, so a stepper may carry its field in another basis.  A
    DwnlsError raised during step k, by a stepper or by on_record, leaves
    with k in its .step.
    """
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    removed = 0.0
    if tail_filter is not None:
        grid = steppers[0].grid
        if tail_filter.cutoff_radius >= grid.x_max:
            raise ValueError("cutoff_radius must lie inside the domain")
        keep = np.abs(grid.x) <= tail_filter.cutoff_radius
    try:
        for k in range(1, n_steps + 1):
            for i, stepper in enumerate(steppers):
                fields[i] = stepper.step(fields[i])
            if tail_filter is not None and k % tail_filter.trigger_steps == 0:
                cuts = [st.cut(f, keep) for st, f in zip(steppers, fields)]
                fields[:] = [f for f, _ in cuts]
                removed += cuts[0][1]
            if k % record_every == 0 or k == n_steps:
                on_record(k, fields, removed)
    except DwnlsError as exc:
        exc.step = k
        raise
    return removed


def evolve(state0: FieldState, params: EvolveParams,
           potential: PotentialSpec | np.ndarray | None,
           keep_fields: bool = False):
    """March state0 to t_end, recording diagnostics every record_every steps.

    Returns (final_state, PdeDiagnostics[, fields]) where fields is the
    list of recorded FieldState snapshots when keep_fields is set.
    """
    grid = state0.grid
    t0, dt = state0.time, params.dt
    rows, fields = [], []

    def record(u, t, removed):
        st = FieldState(grid, u, t)
        i = int(np.argmax(np.abs(u)))
        amp = float(np.abs(u[i]))
        rows.append((t, mass(st), hamiltonian(st, potential, params.scheme),
                     center_of_mass(st), amp,
                     float(grid.x[i]) if amp > 0.0 else 0.0, removed))
        if keep_fields:
            fields.append(st.copy())

    us = [state0.values.astype(complex).copy()]
    n_steps = int(round(params.t_end / dt))
    record(us[0], t0, 0.0)
    march(us, [make_stepper(grid, potential, params)], n_steps,
          params.record_every,
          lambda k, fs, removed: record(fs[0], t0 + k * dt, removed),
          params.tail_filter)
    diags = PdeDiagnostics(*np.array(rows).T)
    final = FieldState(grid, us[0], t0 + n_steps * dt)
    if keep_fields:
        return final, diags, fields
    return final, diags


def snapshot_csv(state: FieldState) -> str:
    rows = ["x,re_u,im_u,abs_u"]
    for x, v in zip(state.grid.x, state.values):
        rows.append(f"{x:.17g},{v.real:.17g},{v.imag:.17g},{abs(v):.17g}")
    return "\n".join(rows) + "\n"
