"""Shared exception types."""


class TrivialPeriodError(ValueError):
    """Raised for all-zero or all-one periods, whose map has no interior
    fixed point."""


class ResourceLimitError(RuntimeError):
    """Raised when an input would exceed a fixed time or memory budget."""
