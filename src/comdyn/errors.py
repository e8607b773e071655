"""Exception types shared across the package.

Every type derives from :class:`ComdynError`, whose ``exit_code`` is the
command-line exit status of the failure: 1 for input errors, 2 for
refusals (a precondition fails or a result cannot be trusted).
"""


class ComdynError(Exception):
    """Base of every comdyn failure; ``exit_code`` is 1 or 2."""

    exit_code = 2


class DimensionMismatchError(ComdynError, ValueError):
    """Operands live on incompatible spaces (matrix dims or lattice shapes)."""

    exit_code = 1


class DefectiveMapError(ComdynError, RuntimeError):
    """A superoperator has (numerically) nontrivial Jordan blocks and cannot
    be diagonalized with a bi-orthogonal eigenbasis."""


class PreconditionFailedError(ComdynError, RuntimeError):
    """A propagation precondition (Kolmogorov/positivity) fails.

    Carries a ``witness`` describing the first violation.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NonProbabilisticResultError(ComdynError, RuntimeError):
    """A propagated vector came out negative beyond tolerance."""


class NormalizationError(ComdynError, ValueError):
    """Coefficients violate a required normalization (e.g. generator rates
    must sum to zero)."""

    exit_code = 1


class InvalidWeightsError(ComdynError, ValueError):
    """Mixture weights are not a probability distribution on the requested
    time window."""


class SingularEigenvalueError(ComdynError, RuntimeError):
    """A mixture eigenvalue function c_alpha(t) vanishes, so the local
    generator eigenvalue diverges there."""


class SingularResolventError(ComdynError, RuntimeError):
    """(s - L) is numerically singular at the requested s."""


class QuadratureNotConvergedError(ComdynError, RuntimeError):
    """Doubling the quadrature nodes still changes the result beyond
    tolerance."""


class DivergentTransformError(ComdynError, ValueError):
    """Laplace variable s does not dominate the signal's growth rate."""


class PoleEncounteredError(ComdynError, RuntimeError):
    """1 + f_hat(s) is within the pole floor; the kernel transform is
    undefined there."""


class OverflowInExponentialError(ComdynError, RuntimeError):
    """Matrix exponential overflowed (non-finite entries in the result)."""
