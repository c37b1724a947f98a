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


def _check_int(where: str, name: str, *values, least: int | None = None, error=DomainError) -> None:
    """Refuse values that are not all ints (a bool is not one, though it
    compares equal to one) with "<where>: <name> must be an integer", and
    then any below least with "<where> needs <name> >= <least>"."""
    if any(type(v) is not int for v in values):
        raise error(f"{where}: {name} must be an integer")
    if least is not None and min(values) < least:
        raise error(f"{where} needs {name} >= {least}")
