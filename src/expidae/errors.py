"""Exception hierarchy shared across the package."""


class ExpidaeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ExpidaeError):
    """Operands have incompatible shapes."""


class SingularSaddle(ExpidaeError):
    """Saddle-point block matrix is singular or numerically rank deficient."""


class NonFinite(ExpidaeError):
    """A computation produced inf or nan entries."""


class InconsistentState(ExpidaeError):
    """State violates the algebraic constraint beyond tolerance."""


class NoConvergence(ExpidaeError):
    """Iteration failed to reach the requested tolerance within its budget."""


class InconsistentInitialData(ExpidaeError):
    """Initial value does not satisfy the constraint at the initial time."""


class NegativeEnergy(ExpidaeError):
    """Quadratic form used as a norm evaluated significantly negative."""


class SelfCheckFailed(ExpidaeError):
    """Reference solution failed its resolution self check."""
