"""Error taxonomy shared by the library and the CLI exit-code mapping."""


class KisinError(Exception):
    """Base class for all library errors."""


class ConfigError(KisinError):
    """Structurally invalid input: bad shapes, non-dominant mu, malformed config."""


class PreconditionError(KisinError):
    """A documented operation precondition is violated."""


class NotSimpleError(PreconditionError):
    """The requested Frobenius datum is not simple in Caruso's sense."""


class NotInGeneralPositionError(PreconditionError):
    """Fixed point has an integral entry or integral pairwise difference."""


class EnumerationCapError(PreconditionError):
    """The walk's path bound, or the join's block box or product, passes KISIN_MAX_ENUM."""


class BoxTooSmallError(PreconditionError):
    """Oracle box does not contain every stratum label."""


class SingularMatrixError(PreconditionError):
    """Matrix is singular over the Laurent field."""


class TheoremViolationError(KisinError):
    """An identity the theory guarantees failed; indicates a bug or bad input."""
