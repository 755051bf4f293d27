"""Nonlinear bound states (-u'' + V u - |u|^2 u = Omega u) by normalized
fixed-point iteration, natural-parameter continuation in Omega, and
location of the symmetry-breaking threshold on the soliton curve.

The iteration is the classic power-renormalized map for a cubic
nonlinearity: with L = -d^2/dx^2 + V - Omega (positive definite for Omega
below the ground state of the well),

    M[psi] = L^{-1}(psi^2 psi),
    S      = <L psi, psi> / <psi^2 psi, psi>,
    psi   <- (1 - mix) psi + mix * S^{3/2} M[psi],

iterated until the profile stops moving.  L is factored once per Omega,
LDL^T on the free nodes 1..n-1 (node 0 is the Dirichlet pin), so each
sweep is one tridiagonal solve plus in-place updates.  From a symmetric
seed the iteration stays symmetric; an asymmetric seed converges to the
symmetric state below the bifurcation and to a symmetry-broken state
above it, which labels the branches of the continued curve.  Near the
bifurcation that convergence slows down critically, so the threshold is
not read from it: it is the Omega where the odd eigenvalue of the
linearization L+ = H - Omega - 3 psi^2 about the symmetric state crosses
zero (Kirr, Kevrekidis, Shlizerman and Weinstein, SIAM J. Math. Anal. 40,
2008).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import (
    BranchLost,
    ConvergedToZero,
    IterationDiverged,
    NoBifurcationFound,
)
from .grids import Grid
from .linear_spectrum import (
    PotentialSpec,
    apply_hamiltonian,
    hamiltonian_tridiagonal,
    reflect,
)
from .roots import brentq

SYMMETRIC = "symmetric"
ASYM_PLUS = "asym_plus"
ASYM_MINUS = "asym_minus"


@dataclass
class BoundState:
    profile: np.ndarray = field(repr=False)
    omega: float
    n: float
    asymmetry: float
    residual: float
    iterations: int
    grid: Grid = field(repr=False)


@dataclass
class SolitonCurve:
    omega: np.ndarray
    n: np.ndarray
    asymmetry: np.ndarray
    branch: list[str]

    def to_csv(self) -> str:
        rows = ["omega,n,asymmetry,branch"]
        for i in range(len(self.omega)):
            rows.append(
                f"{self.omega[i]:.17g},{self.n[i]:.17g},"
                f"{self.asymmetry[i]:.17g},{self.branch[i]}"
            )
        return "\n".join(rows) + "\n"


def _asymmetry(profile: np.ndarray, grid: Grid) -> float:
    w = grid.quad_weights() * np.abs(profile) ** 2
    return float(np.sum(w[grid.x > 0]) - np.sum(w[grid.x < 0]))


def spectral_renormalize(potential: PotentialSpec, grid: Grid, omega: float,
                         seed_profile: np.ndarray, tol: float = 1e-12,
                         max_iter: int = 5000, mixing: float = 0.5,
                         symmetrize: bool = False,
                         best_effort: bool = False) -> BoundState:
    """Converge the bound state at frequency omega from seed_profile.

    omega must lie below the linear ground state so that H - omega is
    positive definite; otherwise IterationDiverged is raised before any
    sweep.  With symmetrize the iterate is projected onto even functions
    every sweep, which pins the symmetric branch even where it is an
    unstable fixed point of the plain iteration (above threshold roundoff
    asymmetry would otherwise be amplified).  best_effort returns the
    final iterate instead of raising when max_iter runs out.  Raises
    IterationDiverged / ConvergedToZero.
    """
    # LDL^T of L on the free nodes 1..n-1; the pinned node 0 keeps m[0] = 0
    d, e = hamiltonian_tridiagonal(potential, grid)
    d -= omega
    ld, le, info = dpttrf(d[1:], e[1:])
    if info != 0:
        raise IterationDiverged(
            f"H - Omega is not positive definite at Omega = {omega:.17g}")
    w = grid.quad_weights()
    psi = np.array(seed_profile, dtype=float)
    psi[0] = 0.0
    if not np.any(psi):
        raise ConvergedToZero("seed profile is identically zero")
    # buffers for all sweeps; cube holds psi^3, then m = L^{-1} psi^3
    cube, lpsi, wpsi, new = (np.empty_like(psi) for _ in range(4))
    tmp = np.empty_like(e)
    it = 0
    for it in range(1, max_iter + 1):
        np.multiply(psi, psi, out=cube)
        cube *= psi
        # L psi; row 0 is not pinned here, but wpsi[0] = 0 drops it
        np.multiply(d, psi, out=lpsi)
        lpsi[:-1] += np.multiply(e, psi[1:], out=tmp)
        lpsi[1:] += np.multiply(e, psi[:-1], out=tmp)
        np.multiply(w, psi, out=wpsi)
        num, den = float(wpsi @ lpsi), float(wpsi @ cube)
        if not np.isfinite(num) or not np.isfinite(den):
            raise IterationDiverged("non-finite renormalization ratio")
        if den <= 0 or num <= 0:
            raise ConvergedToZero("renormalization ratio lost positivity")
        m, info = dpttrs(ld, le, cube[1:], overwrite_b=1)
        if info != 0:
            raise IterationDiverged("resolvent solve failed")
        cube[1:] = m               # a no-op where LAPACK solved in place
        # new = (1 - mixing) psi + mixing S^{3/2} m
        np.multiply(cube, mixing * (num / den)**1.5, out=new)
        new += np.multiply(psi, 1.0 - mixing, out=lpsi)
        if symmetrize:
            new[1:] = 0.5 * (new[1:] + new[:0:-1])
        change = float(np.abs(np.subtract(new, psi, out=lpsi), out=lpsi).max())
        psi, new = new, psi
        if change <= tol * max(1.0, float(psi.max()), -float(psi.min())):
            break
    else:
        if not best_effort:
            raise IterationDiverged(f"no convergence in {max_iter} sweeps")
    nrm2 = float(np.sum(w * psi * psi))
    if nrm2 < 1e-20:
        raise ConvergedToZero("iterate collapsed to zero")
    # phase fix: real and positive at the modulus maximum
    if psi[int(np.argmax(np.abs(psi)))] < 0:
        psi = -psi
    res = apply_hamiltonian(potential, grid, psi) - psi**3 - omega * psi
    return BoundState(
        profile=psi,
        omega=omega,
        n=nrm2,
        asymmetry=_asymmetry(psi, grid),
        residual=float(np.linalg.norm(res) / np.linalg.norm(psi)),
        iterations=it,
        grid=grid,
    )


def profile_to_csv(state: BoundState) -> str:
    rows = ["x,psi"]
    for x, v in zip(state.grid.x, state.profile):
        rows.append(f"{x:.17g},{v:.17g}")
    return "\n".join(rows) + "\n"


def default_seeds(spectral) -> dict:
    """Symmetric / asymmetric seed profiles built from the linear modes."""
    psi0 = spectral.psi0.eigenfunction
    psi1 = spectral.psi1.eigenfunction
    return {
        "symmetric": 0.1 * psi0,
        "asymmetric": 0.1 * (psi0 + 0.3 * psi1),
    }


def continue_in_omega(potential: PotentialSpec, grid: Grid,
                      omega_start: float, omega_end: float, step: float,
                      seeds: dict, asym_floor: float = 1e-6) -> SolitonCurve:
    """Trace soliton branches from omega_start toward omega_end (downward),
    reusing each converged profile as the next seed.

    seeds maps family names ('symmetric', 'asymmetric') to seed profiles;
    asymmetric-family points are labelled by the sign of their asymmetry
    once it exceeds asym_floor relative to the power.
    """
    if omega_end >= omega_start:
        raise ValueError("continuation must move toward decreasing omega")
    if step <= 0:
        raise ValueError("step must be positive (applied downward)")
    omegas = np.arange(omega_start, omega_end - 0.5 * step, -step)
    out_omega, out_n, out_asym, out_branch = [], [], [], []
    for family, seed in seeds.items():
        seed = np.asarray(seed, dtype=float)
        # odd part of the family seed, re-injected at every step so the
        # asymmetric family can leave the symmetric state once it may
        odd = 0.5 * (seed - reflect(seed))
        odd_norm = float(np.linalg.norm(odd))
        profile = seed
        for om in omegas:
            try:
                st = spectral_renormalize(potential, grid, float(om), profile,
                                          symmetrize=family == "symmetric")
            except (IterationDiverged, ConvergedToZero) as exc:
                raise BranchLost(
                    f"{family} branch lost at omega = {om:.6g}: {exc}") from exc
            profile = st.profile
            if family != "symmetric" and odd_norm > 0:
                kick = 0.3 * float(np.linalg.norm(profile)) / odd_norm
                profile = profile + kick * odd
            if family == "symmetric":
                label = SYMMETRIC
            elif abs(st.asymmetry) <= asym_floor * max(st.n, 1e-300):
                label = SYMMETRIC
            else:
                label = ASYM_PLUS if st.asymmetry > 0 else ASYM_MINUS
            out_omega.append(st.omega)
            out_n.append(st.n)
            out_asym.append(st.asymmetry)
            out_branch.append(label)
    return SolitonCurve(
        omega=np.array(out_omega),
        n=np.array(out_n),
        asymmetry=np.array(out_asym),
        branch=out_branch,
    )


def lplus_tridiagonal(potential: PotentialSpec, grid: Grid,
                      state: BoundState):
    """(diagonal, off-diagonal) of L+ = H - Omega - 3 psi^2 on the free
    nodes 1..n-1, the linearization of the real bound-state equation."""
    d, e = hamiltonian_tridiagonal(potential, grid)
    return d[1:] - state.omega - 3.0 * state.profile[1:] ** 2, e[1:]


@dataclass
class Threshold:
    """Symmetry-breaking point.  odd_eigenvalue is L+'s at omega_star, the
    root's residual; both are None when n_star is read off the curve."""

    n_star: Optional[float]
    omega_star: Optional[float] = None
    odd_eigenvalue: Optional[float] = None


def detect_threshold(curve: SolitonCurve, potential: PotentialSpec = None,
                     grid: Grid = None, seeds: dict = None,
                     bisect_tol: float = 1e-12, full_output: bool = False):
    """Power at which the asymmetric branch separates from the symmetric one.

    The first asymmetric-labelled point of the asymmetric-seeded family
    and the next omega above it bracket the crossing; without the
    potential, grid and seeds, n at that point is returned.  With them,
    omega* is the root of L+'s odd eigenvalue on the symmetric branch (the
    second-lowest; the lowest is even and negative): the bracket steps
    along the curve's omega grid until that eigenvalue changes sign, and
    brentq closes it to bisect_tol relative in omega.  Each symmetric
    state is warm-started from the previous one, the first from the even
    part of seeds['symmetric'] (or seeds['asymmetric']).  Returns n of the
    symmetric state at omega*, or with full_output a Threshold.  Raises
    NoBifurcationFound when the curve shows no asymmetric point or the
    eigenvalue keeps its sign over the grid.
    """
    sym_pts = [i for i, b in enumerate(curve.branch) if b == SYMMETRIC]
    asym_pts = [i for i, b in enumerate(curve.branch) if b != SYMMETRIC]
    if not asym_pts:
        raise NoBifurcationFound("no asymmetric point on the curve")
    if not sym_pts:
        raise NoBifurcationFound("no symmetric segment before the branch point")
    noise = max((abs(curve.asymmetry[i]) for i in sym_pts), default=0.0)
    floor = max(10.0 * noise, 1e-6 * float(np.max(curve.n)))
    flagged = [i for i in asym_pts if abs(curve.asymmetry[i]) > floor]
    if not flagged:
        raise NoBifurcationFound("asymmetry never exceeds the noise floor")
    first = min(flagged, key=lambda i: curve.n[i])
    omegas = np.unique(curve.omega)        # ascending
    lo = int(np.searchsorted(omegas, curve.omega[first]))
    if potential is None or grid is None or seeds is None \
            or lo + 1 == len(omegas):
        n_first = float(curve.n[first])
        return Threshold(n_first) if full_output else n_first

    seed = np.asarray(seeds["symmetric" if "symmetric" in seeds
                            else "asymmetric"], float)
    profile = 0.5 * (seed + reflect(seed))
    solved = {}                            # omega -> (state, odd eigenvalue)

    def odd_eigenvalue(om):
        nonlocal profile
        om = float(om)
        if om not in solved:
            st = spectral_renormalize(potential, grid, om, profile,
                                      symmetrize=True)
            profile = st.profile
            d, e = lplus_tridiagonal(potential, grid, st)
            lam = eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                   select_range=(0, 1))[1]
            solved[om] = (st, float(lam))
        return solved[om][1]

    hi = lo + 1                            # symmetric side (higher omega)
    while odd_eigenvalue(omegas[hi]) < 0:
        if hi + 1 == len(omegas):
            raise NoBifurcationFound(
                "odd eigenvalue of L+ is negative up to the top of the curve")
        lo, hi = hi, hi + 1
    while odd_eigenvalue(omegas[lo]) > 0:
        if lo == 0:
            raise NoBifurcationFound(
                "odd eigenvalue of L+ is positive down to the end of the curve")
        lo, hi = lo - 1, lo
    om_lo, om_hi = float(omegas[lo]), float(omegas[hi])
    om_star = brentq(odd_eigenvalue, om_lo, om_hi,
                     xtol=bisect_tol * max(1.0, abs(om_lo)))
    odd_eigenvalue(om_star)
    state, lam = solved[float(om_star)]
    if not full_output:
        return float(state.n)
    return Threshold(float(state.n), float(om_star), lam)
