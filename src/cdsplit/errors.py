"""Exception types shared across the toolkit."""


class CdsplitError(Exception):
    """Base class for all toolkit errors."""


class SingularMetric(CdsplitError):
    """Metric matrix is not positive definite (Cholesky factorization failed)."""


class NonFinite(CdsplitError):
    """A numerical evaluation produced NaN or infinity."""


class ChartDomain(CdsplitError):
    """A point or finite-difference stencil left the declared chart domain."""


class DimensionClash(CdsplitError):
    """The dimension parameter N equals the manifold dimension n, so the
    generalized-Ricci denominator N - n vanishes."""


class EmptyGrid(CdsplitError):
    """A sampling grid contains no points."""


class EmptyTrace(CdsplitError):
    """A geodesic trace contains no samples."""


class EmptySamples(CdsplitError):
    """A sample list is too short for quadrature."""


class ZeroRadius(CdsplitError):
    """A comparison radius is zero or negative."""


class StepOverflow(CdsplitError):
    """An ODE state escaped the overflow guard before detection completed."""


class NotDistanceFunction(CdsplitError):
    """A field expected to have unit gradient norm does not."""


class CDViolation(CdsplitError):
    """A curvature-dimension precondition failed on the sampling grid."""


class ParseError(CdsplitError):
    """Manifest text could not be parsed.

    Carries 1-based ``line`` and ``column`` attributes when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class ValidationError(CdsplitError):
    """Manifest content is syntactically valid but semantically wrong.

    ``key`` names the offending manifest entry when known.
    """

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        super().__init__(message if key is None else f"{key}: {message}")
