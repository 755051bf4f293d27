"""Nonlinear bound states (-u'' + V u - |u|^2 u = Omega u) by normalized
fixed-point iteration, natural-parameter continuation in Omega, and
detection of the symmetry-breaking threshold on the soliton curve.

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
above it, which is what the threshold detector exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
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


def detect_threshold(curve: SolitonCurve, potential: PotentialSpec = None,
                     grid: Grid = None, seeds: dict = None,
                     bisect_tol: float = 1e-7) -> float:
    """Power at which the asymmetric branch separates from the symmetric one.

    The crossing is located between the last symmetric-labelled and first
    asymmetric-labelled point of the asymmetric-seeded family; when the
    potential and seeds are supplied the omega location is refined by
    bisection on the asymmetry classification.
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
    # bracket in omega: the nearest asym-seeded symmetric point above
    om_hi_cands = [curve.omega[i] for i in range(len(curve.omega))
                   if curve.omega[i] > curve.omega[first]]
    if potential is None or grid is None or seeds is None or not om_hi_cands:
        return float(curve.n[first])
    om_lo = float(curve.omega[first])      # asymmetric side (lower omega)
    om_hi = float(min(om_hi_cands))        # symmetric side

    def is_asym(om):
        # critical slowing down stalls full convergence right at the
        # pitchfork; a fixed sweep budget still classifies the two sides
        st = spectral_renormalize(potential, grid, om,
                                  np.asarray(seeds["asymmetric"], float),
                                  max_iter=2000, best_effort=True)
        return abs(st.asymmetry) > floor, st

    lo_state = None                        # the solve at om_lo, once made
    while om_hi - om_lo > bisect_tol * max(1.0, abs(om_lo)):
        mid = 0.5 * (om_lo + om_hi)
        asym, st = is_asym(mid)
        if asym:
            om_lo, lo_state = mid, st
        else:
            om_hi = mid
    if lo_state is None:
        _, lo_state = is_asym(om_lo)
    return float(lo_state.n)
