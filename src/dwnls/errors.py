"""Exception types shared across the package."""


class DwnlsError(Exception):
    """Base class for all numerical/validation failures in this package."""

    step = None    # 1-based time step that raised it, set by pde.march


class OddStateAbsent(DwnlsError):
    """The well supports no odd bound state (two-mode reduction invalid)."""


class ConvergenceFailure(DwnlsError):
    """An iterative solver stagnated or produced an invalid result."""


class DomainTooSmall(DwnlsError):
    """Potential or eigenfunction tails are not negligible at the boundary."""


class GridMismatch(DwnlsError):
    """Operands live on different grids (or required node alignment fails)."""


class DegenerateDenominator(DwnlsError):
    """The coefficient combination in the critical-power formula vanishes."""


class ChartBreakdown(DwnlsError):
    """A coordinate chart is invalid for this state (e.g. A ~ 0)."""


class StepFailure(DwnlsError):
    """Implicit midpoint corrector stalled (50 iterations, no convergence)."""


class NoCrossing(DwnlsError):
    """Trajectory never crosses the Poincare section in the required sense."""


class InvalidEquilibrium(DwnlsError):
    """Equilibrium data inconsistent with the supplied (N, n_cr)."""


class SaddleCase(DwnlsError):
    """Closed-form oscillatory propagator requested at a hyperbolic point."""


class NotPeriodic(DwnlsError):
    """Trajectory supplied to the monodromy solver does not close up."""


class BelowThreshold(DwnlsError):
    """Operation requires N > n_cr (no asymmetric equilibria exist)."""


class IterationDiverged(DwnlsError):
    """Newton's iteration for a bound state failed or did not converge."""


class ConvergedToZero(DwnlsError):
    """Newton's iteration for a bound state fell into the zero solution."""


class BranchLost(DwnlsError):
    """Continuation lost its branch (solver failed mid-trace)."""


class NoBifurcationFound(DwnlsError):
    """No symmetry-breaking point detected on the soliton curve."""


class NonlinearIterationDiverged(DwnlsError):
    """Crank-Nicolson tridiagonal solve failed (zgtsv info != 0); the name
    predates Besse's relaxation and stays because failure records carry it."""
