"""Exception types shared across the package.

The CLI maps these onto exit codes: DomainError -> 2 (bad input),
QuadratureError / SolverError / ConsistencyError -> 3 (numerical failure).
"""


class DomainError(ValueError):
    """An input violates a documented precondition."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge within its bisection depth.

    Carries the partial estimate accumulated so far in ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class SolverError(RuntimeError):
    """A root finder, optimizer, or the LP oracle broke down."""


class ConsistencyError(RuntimeError):
    """A computed quantity violates a known structural fact (internal check)."""
