"""Exception types shared across the solver stack."""


class FracFemError(Exception):
    """Base class for all library errors."""


class DomainError(FracFemError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ArgumentError(FracFemError, ValueError):
    """Structurally invalid argument (sizes, indices, ranges)."""


class UnsupportedFormError(ArgumentError):
    """Input not representable in the canonical form an operation needs."""


class DegenerateSplittingError(FracFemError):
    """Splitting denominator 1 + (I^alpha q u_s)(1) is numerically zero."""

    def __init__(self, message: str, denominator: float):
        super().__init__(f"{message} (denominator {denominator:.3e})")
        self.denominator = denominator


class SingularSystemError(FracFemError):
    """Assembled system has a zero or non-finite entry in row ``row`` of the
    diagonal that scales its preconditioner; ``row`` and ``value`` are None
    when LAPACK's factorisation, not the diagonal, finds it singular."""

    def __init__(self, message: str, row: int | None = None, value: float | None = None):
        super().__init__(message if row is None else f"{message} (row {row}, value {value!r})")
        self.row = row
        self.value = value


class IterativeFailure(FracFemError):
    """Iterative solver did not converge within the iteration budget."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(
            f"{message} (after {iterations} iterations, residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual
