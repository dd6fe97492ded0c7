"""Exception types shared across the package."""


class ResourceLimitError(RuntimeError):
    """An operation was asked to run beyond its documented size caps."""


class ConvergenceError(RuntimeError):
    """An iterative optimizer ran out of budget; carries the last iterate."""

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class EmptyRegionError(ValueError):
    """A region contains no point of the ordered simplex."""
