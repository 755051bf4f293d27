"""Separation tuning of a delta well to a critical power: the scaling
route of the power-law eta ladder.  The package tunes wells by strength
alone (linear_spectrum.tune_delta_strength_for_ncr); the tests that grow
the separation with the target take this helper."""

from dwnls.errors import ConvergenceFailure, DomainTooSmall, OddStateAbsent
from dwnls.grids import Grid
from dwnls import linear_spectrum as ls

# delta strength at which tune_delta_well_for_ncr grows the separation
_BASE_STRENGTH = 4.0


def tune_delta_well_for_ncr(target_ncr: float, grid: Grid) -> ls.SpectralData:
    """Pick the separation (node-aligned) and fine-tune the strength near
    s = 4 (_BASE_STRENGTH) so the measured general critical power equals
    target_ncr.

    Growing the separation at roughly fixed strength is the scaling route
    of the exponentially small splitting: the well shape (and with it the
    overlap tensor) stays put while n_cr shrinks.
    """
    dx = grid.dx
    k_lo = max(2, int(round(0.5 / dx)))
    k_hi = int(0.45 * grid.n_points / 2)
    s0 = _BASE_STRENGTH

    def ncr_at(k):
        sep = 2.0 * k * dx
        try:
            return ls.spectral_data(ls.PotentialSpec("delta", s0, sep),
                                    grid).n_cr_fd
        except (OddStateAbsent, DomainTooSmall):
            return None

    # n_cr decreases with separation; bisect the node count
    lo, hi = k_lo, k_hi
    v_lo = ncr_at(lo)
    while v_lo is None and lo < hi:
        lo += 1
        v_lo = ncr_at(lo)
    v_hi = ncr_at(hi)
    while v_hi is None and hi > lo:
        hi -= 1
        v_hi = ncr_at(hi)
    if v_lo is None or v_hi is None or not (v_hi <= target_ncr <= v_lo):
        raise ConvergenceFailure(
            "critical-power target outside the reachable separation range")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        v = ncr_at(mid)
        if v is None or v < target_ncr:
            hi = mid
        else:
            lo = mid
    sep = 2.0 * lo * dx
    return ls.tune_delta_strength_for_ncr(target_ncr, sep, grid,
                                          (0.7 * s0, 1.45 * s0))
