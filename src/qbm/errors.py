"""Exception hierarchy for the qbm package.

All package-specific failures derive from :class:`QbmError` so callers can
catch one base class.  Parameter-validation errors are separated from
numerical failures (the CLI maps them to different exit codes).
"""

from __future__ import annotations


class QbmError(Exception):
    """Base class for all qbm errors."""


# ---------------------------------------------------------------------------
# parameter / input validation


class InvalidInput(QbmError):
    """Bad user-supplied parameters or usage (CLI exit code 1)."""


class NonPositiveMass(InvalidInput):
    pass


class NonPositiveTemperature(InvalidInput):
    pass


class NonPositiveCurvature(InvalidInput):
    pass


class HbarZero(InvalidInput):
    """An operation requiring the Matsubara frequency was called with hbar = 0."""


class UnresolvedGrid(InvalidInput):
    """An FPE grid's cell width exceeds the initial density's standard deviation."""


# ---------------------------------------------------------------------------
# special functions / series


class NoConvergence(QbmError):
    """Series term budget exhausted (argument too close to the convergence edge)."""


class TailNotBounded(QbmError):
    """A certified truncation tail bound below the requested tolerance is unreachable."""


# ---------------------------------------------------------------------------
# response functions / coefficients


class PoleAtChiQZero(QbmError):
    """chi_q vanishes at (or too close to) the requested time, so Omega/D diverge.

    Attributes
    ----------
    pole_time : float
        Location of the nearest zero of chi_q.
    """

    def __init__(self, message: str, pole_time: float | None = None):
        super().__init__(message)
        self.pole_time = pole_time


class NonFiniteCoefficient(QbmError):
    """A coefficient evaluated to NaN/inf inside a solver or simulator."""


# ---------------------------------------------------------------------------
# grid solver


class NegativeDiffusion(QbmError):
    """The diffusion coefficient went negative on a step; the forward problem is ill-posed."""


class PoleWindow(QbmError):
    """A solver step would enter an annotated pole window of the coefficient table."""


class CFLViolation(QbmError):
    """Timestep violates the stability/accuracy constraint of the chosen scheme."""


class GridMismatch(QbmError):
    """Two objects with incompatible grids were combined."""


class DegenerateVariance(QbmError):
    """A Gaussian density was evaluated where its variance is zero (delta limit)."""


# ---------------------------------------------------------------------------
# SDE simulation


class NonFiniteState(QbmError):
    """Integrator state left the finite range (timestep too large): raised by
    the FPE solve for its density after a step and by both path ensembles for
    their moments."""
