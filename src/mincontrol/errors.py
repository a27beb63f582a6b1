"""Exception types raised across the package."""


class MincontrolError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(MincontrolError, ValueError):
    """Operands have incompatible shapes or lengths."""


class NotSquare(MincontrolError, ValueError):
    """A square matrix was required."""


class NotSimple(MincontrolError):
    """The matrix does not have pairwise-distinct eigenvalues."""


class EigensolveFailed(MincontrolError):
    """The dense eigensolver did not converge."""


class NumericalBreakdown(MincontrolError):
    """A dense linear-algebra step failed or met non-finite values.

    Typically an SVD or eigensolve that did not converge; the input
    itself was valid, so this is not a ValueError.
    """


class ZeroPattern(MincontrolError):
    """An all-zero structural pattern makes the placement problem degenerate."""


class IndexOutOfRange(MincontrolError, IndexError):
    """An index lies outside the valid 1..n range."""


class TooLarge(MincontrolError):
    """The instance exceeds the configured exact-solver limit."""


class Infeasible(MincontrolError):
    """No input vector with the requested support can work."""


class RepairFailed(MincontrolError):
    """The realization repair loop exhausted its iteration bound.

    Signals numerically pathological input: some orthogonality or
    zero-entry condition could not be cleared within the bounded number
    of multiplier updates.
    """


class VerificationFailed(MincontrolError):
    """The realized input vector failed the controllability certificate.

    Usually indicates tolerance misconfiguration; the attached report
    carries per-test diagnostics.
    """

    def __init__(self, message, report=None, solution=None):
        super().__init__(message)
        self.report = report
        self.solution = solution


class MissingSelfLoops(MincontrolError):
    """The structural matrix lacks a full nonzero diagonal.

    The structural placement routine implemented here covers only the
    full-diagonal case; the general single-input problem needs a
    different (maximum-matching based) algorithm that is out of scope.
    """


class ParseError(MincontrolError, ValueError):
    """A problem file could not be parsed."""


class DimensionError(MincontrolError, ValueError):
    """A problem file has inconsistent dimensions."""
