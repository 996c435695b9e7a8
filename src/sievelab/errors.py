"""Exception types shared across the package."""

from .highprec import int_to_str


class SieveLabError(Exception):
    """Base class for sievelab errors."""


class ResourceLimitError(SieveLabError):
    """A requested computation exceeds the configured memory or size budget."""


class CapExceededError(SieveLabError):
    """A divisor enumeration of 2^k subsets past the cap on k; 2^k is written only when read."""

    def __init__(self, k: int, cap: int):
        super().__init__(k, cap)
        self.k, self.cap = k, cap

    def __str__(self) -> str:
        k, text = self.k, int_to_str(1 << self.k)
        return f"{k} sifting primes would enumerate 2^{k} = {text} divisors (cap {self.cap})"
