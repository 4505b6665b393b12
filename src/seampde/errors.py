"""Exception types shared across the package."""


class SeamError(Exception):
    """Base class for pipeline errors."""


class ExpressionError(SeamError):
    """Syntax error or unknown identifier in a field expression.

    `position` is the character offset into the source text.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class EvaluationError(SeamError):
    """A field, or a vector assembled from one, is not finite, or alpha is negative."""


class SolverFailure(SeamError):
    """An iterative linear solver failed to reach its tolerance.

    Carries the final relative residual so callers can report how close
    the solve got.
    """

    def __init__(self, message, residual):
        super().__init__(f"{message} (final relative residual {residual:.3e})")
        self.residual = residual


class StagnationError(SeamError):
    """An iteration (power or Jacobi) failed to converge within its cap."""


class DegenerateSnapshotError(SeamError):
    """Snapshot data is (numerically) all zero; no POD basis exists."""

