"""Exception types shared across the package."""


class SieveLabError(Exception):
    """Base class for sievelab errors."""


class ResourceLimitError(SieveLabError):
    """A requested computation exceeds the configured memory or size budget."""


class CapExceededError(SieveLabError):
    """A divisor enumeration would exceed the configured subset-count cap."""
