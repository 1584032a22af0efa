"""Exception types shared across the package, and the type checks that raise them."""

import numbers


class QromlabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QromlabError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class DimensionMismatchError(QromlabError, ValueError):
    """Operator and register dimensions do not line up."""


class NonUnitaryError(QromlabError, ValueError):
    """A matrix that must be unitary is not, beyond tolerance."""


class ZeroProbabilityError(QromlabError):
    """Post-selection on a branch whose probability is numerically zero."""


class LayoutError(QromlabError, ValueError):
    """A register layout is malformed or a register name cannot be resolved."""


class CapacityError(QromlabError):
    """A state or trace would exceed the configured size cap."""


class ProtocolShapeError(QromlabError, ValueError):
    """A protocol description violates a structural requirement."""


class UnsupportedProtocolError(QromlabError):
    """The requested operation is outside the model this code supports."""


class ReplayMismatchError(QromlabError):
    """A recomputed quantity disagrees with the recorded one."""


def is_int(value) -> bool:
    """An integer or a numpy integer; a bool is no int."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def typed(value, kind, what: str, error=LayoutError):
    """``value`` unchanged when it is a ``kind`` (a bool is no int), else ``error``."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, kinds) or (int in kinds and isinstance(value, bool)):
        names = " or ".join(k.__name__ for k in kinds)
        raise error(f"{what} must be {names}, got {value!r}")
    return value
