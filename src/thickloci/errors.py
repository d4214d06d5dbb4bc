"""Exception hierarchy shared across the engine."""


class ThickLociError(Exception):
    """Base class for all engine errors."""


class PolyParseError(ThickLociError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RingMismatchError(ThickLociError):
    """Operands live over different rings or ambient ranks."""


class ResourceBudgetError(ThickLociError):
    """The per-basis S-pair budget (`groebner.SPAIR_BUDGET`) was exceeded."""


class ValidationError(ThickLociError):
    """Inconsistent input data (registries, non-homogeneous ideals,
    ungraded matrices, rings that lack a hypothesis an operation needs)."""


class KindMismatchError(ThickLociError):
    """An object of the wrong kind was passed to a classification setting."""
