"""Exception types shared across the package."""

import numpy as np


class ContactFlowsError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(ContactFlowsError):
    """Vector/point dimensions do not agree."""


class EvaluationError(ContactFlowsError):
    """A numerical evaluation produced non-finite values.

    Carries the offending coordinates when available.
    """

    def __init__(self, message, coords=None):
        super().__init__(message)
        self.coords = coords


class StrictConvexityError(ContactFlowsError):
    """A Hessian failed the positive-definiteness (Cholesky) check."""


class NewtonConvergenceError(ContactFlowsError):
    """Damped Newton failed to converge; carries the best iterate found."""

    def __init__(self, message, best_x=None, residual=None, iterations=None):
        super().__init__(message)
        self.best_x = best_x
        self.residual = residual
        self.iterations = iterations


class CompressibilityMismatchError(ContactFlowsError):
    """Analytic and finite-difference phase compressibility disagree."""


class OutsideInvariantChartError(ContactFlowsError):
    """Invariant-density request at a point with non-positive Hamiltonian."""


class PythagoreanConfigError(ContactFlowsError):
    """The three supplied points do not form a right-angled configuration."""


class ScenarioError(ContactFlowsError):
    """Scenario file is malformed or references unknown entities."""

    def __init__(self, message, location=None):
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
        self.location = location


class IntegrationAbort(ContactFlowsError):
    """A flow that must run to its end stopped early; carries the partial trajectory."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


# A numerical failure, as opposed to a programming error: it stops a run
# with its cause instead of propagating.
NUMERICAL_ERRORS = (ContactFlowsError, ArithmeticError, np.linalg.LinAlgError)
