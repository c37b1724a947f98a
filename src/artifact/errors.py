"""Exception types shared across the toolkit.  Each derives from
ArtifactError, the one base the command line catches as a domain error,
and keeps its built-in base, so existing handlers catch it as before."""


class ArtifactError(Exception):
    """An operation of the toolkit refused its arguments."""


class DomainError(ArtifactError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class DivisibilityError(ArtifactError, ArithmeticError):
    """Exact division was requested for a non-divisible pair."""


class InvalidRing(ArtifactError, ValueError):
    """A ring tag that does not name a supported ring (e.g. composite modulus)."""


class ShapeError(ArtifactError, ValueError):
    """Matrix or map dimensions do not line up."""


class RingError(ArtifactError, ValueError):
    """Operands live over different coefficient rings."""


class NotAComplex(ArtifactError, ValueError):
    """Differentials whose composite is nonzero."""


class SquareError(ArtifactError, ValueError):
    """A lifting problem whose square does not commute."""


class ClassError(ArtifactError, ValueError):
    """A map does not belong to the model class an operation requires."""


class NotSimplicial(ArtifactError, ValueError):
    """Levelwise matrices that do not commute with faces and degeneracies."""
