"""Exception hierarchy.

Input/validation problems and numerical failures are kept on separate
branches so callers (notably the CLI) can map them to distinct exit codes.
"""


class LindbladMVError(Exception):
    """Base class for all library errors."""


class ValidationError(LindbladMVError):
    """Invalid input data: shapes, invariants, or file contents."""


def _describe_violations(violations) -> str:
    return "; ".join(f"{name}: {value:.3e} exceeds {bound:.3e}" for name, value, bound in violations)


class StateValidationError(ValidationError):
    """A matrix failed the density-matrix invariants.

    ``violations`` is a list of ``(invariant, magnitude, tolerance)`` tuples
    naming each failed check and by how much it failed.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(f"not a valid density matrix ({_describe_violations(self.violations)})")


class ModelFormatError(ValidationError):
    """A model/state/observables file could not be parsed or validated."""


class DependentBasisError(ValidationError):
    """Operator basis is numerically linearly dependent in the HS inner product."""


class NumericalError(LindbladMVError):
    """A numerical procedure failed to produce a trustworthy result."""


class ComputedStateError(NumericalError):
    """A state computed from a valid input failed the density-matrix invariants.

    ``violations`` has the form of :attr:`StateValidationError.violations`;
    ``time`` is the propagation time of the failed state.
    """

    def __init__(self, violations, time):
        self.violations = list(violations)
        self.time = time
        super().__init__(
            f"state computed at t={time!r} is not a valid density matrix "
            f"({_describe_violations(self.violations)})"
        )


class ExpOverflowError(NumericalError):
    """Matrix exponential overflowed (non-finite entries in the result)."""


class ConvergenceError(NumericalError):
    """An inner iteration did not converge; ``residual`` says by how much, as its raiser documents."""

    def __init__(self, message, residual=None):
        self.residual = residual
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)


class EigenSolverError(NumericalError):
    """The dense eigensolver failed to converge."""


class NotClosedError(NumericalError):
    """An operator set is not closed under the adjoint generator.

    ``index`` is the offending basis member, ``residual`` the out-of-span norm.
    """

    def __init__(self, index, residual):
        self.index = index
        self.residual = residual
        super().__init__(
            f"basis operator {index} maps outside the span "
            f"(relative residual {residual:.3e})"
        )


class DefectiveSpectrumError(NumericalError):
    """The generator is (numerically) non-diagonalizable; mode amplitudes are undefined."""
