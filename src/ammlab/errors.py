"""Exception types shared across the package."""


class AmmLabError(Exception):
    """Base class for all package-specific errors."""


class EmptyData(AmmLabError):
    """An operation received an empty trade or bar sequence."""


class UnsortedInput(AmmLabError):
    """Rows out of order: trade timestamps decrease or bar seconds are not consecutive."""


class WindowTooShort(AmmLabError):
    """Estimation window shorter than the required minimum."""


class DomainError(AmmLabError):
    """An argument lies outside the mathematically valid domain."""


class EpisodeFinished(AmmLabError):
    """step() was called on a terminal episode."""


class ShapeError(AmmLabError):
    """Array or network dimensions do not match."""


class BufferTooSmall(AmmLabError):
    """Replay buffer holds fewer transitions than the batch size."""
