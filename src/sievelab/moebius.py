"""Exact Möbius-sum evaluators over squarefree divisor lattices.

legendre_sum evaluates the classical inclusion-exclusion count of integers
free of small prime factors as a sum over all divisors of the product of
sifting primes; the term count is 2^k for k sifting primes, and the evaluator
is deliberately the honest exponential one, guarded by a configurable cap.
lpf_count_via_moebius applies the same machinery per sifting prime p, where
the divisor modulus shrinks to the product of primes strictly below p.  The
fractional-part sums carry the exact rational remainder left behind when each
floor is replaced by its real-valued main term.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterator

from .errors import CapExceededError, DivisorOverflowError
from .sieve import PrimeTable, sifting_primes, _require_prime

DEFAULT_MAX_PI_Z = 24
_U64_MAX = (1 << 64) - 1


@dataclass(frozen=True)
class SquarefreeDivisor:
    """One subset of the generating primes: its product, sign, and support."""

    value: int
    moebius: int
    prime_support: tuple[int, ...]


@dataclass(frozen=True)
class MoebiusSumBreakdown:
    """Diagnostics for one full Möbius sum evaluation."""

    total: int
    term_count: int
    max_abs_partial: int


def moebius(n: int) -> int:
    """The Möbius function: 0 on a squared factor, else (-1)^(prime factors)."""
    if n < 1:
        raise ValueError(f"moebius requires n >= 1, got {n}")
    k = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            k += 1
        d += 1 if d == 2 else 2
    if n > 1:
        k += 1
    return -1 if k % 2 else 1


def _check_enumeration(primes: tuple[int, ...], cap: int | None) -> None:
    if cap is not None and len(primes) > cap:
        raise CapExceededError(
            f"{len(primes)} sifting primes would enumerate "
            f"2^{len(primes)} = {1 << len(primes)} divisors (cap {cap})"
        )
    product = 1
    for i, p in enumerate(primes):
        product *= p
        if product > _U64_MAX:
            raise DivisorOverflowError(
                f"product of the first {i + 1} generating primes exceeds 64 bits"
            )


def _signed_subset_products(primes: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """(product, Möbius sign) for every subset, in binary rank order."""
    if not primes:
        yield 1, 1
        return
    first = primes[0]
    for value, sign in _signed_subset_products(primes[1:]):
        yield value, sign
        yield value * first, -sign


def _subsets_with_support(
    primes: tuple[int, ...]
) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    if not primes:
        yield 1, 1, ()
        return
    first = primes[0]
    for value, sign, support in _subsets_with_support(primes[1:]):
        yield value, sign, support
        yield value * first, -sign, (first, *support)


def enumerate_divisors(primes: list[int] | tuple[int, ...]) -> Iterator[SquarefreeDivisor]:
    """All 2^k squarefree divisors generated by `primes`, in subset rank order.

    Rank order means bit i of the subset index selects primes[i], so the
    stream is deterministic: 1, p0, p1, p0*p1, p2, ...  Raises
    DivisorOverflowError up front if the full product would not fit in 64
    bits.
    """
    primes = tuple(primes)
    if len(set(primes)) != len(primes):
        raise ValueError(f"generating primes contain duplicates: {primes}")
    _check_enumeration(primes, cap=None)

    def stream() -> Iterator[SquarefreeDivisor]:
        for value, sign, support in _subsets_with_support(primes):
            yield SquarefreeDivisor(value, sign, support)

    return stream()


def legendre_sum_breakdown(
    x: int,
    z: int,
    table: PrimeTable,
    *,
    max_pi_z: int = DEFAULT_MAX_PI_Z,
) -> MoebiusSumBreakdown:
    """Full inclusion-exclusion count with term-count and partial-sum diagnostics."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    primes = sifting_primes(table, z)
    _check_enumeration(primes, max_pi_z)
    total = 0
    max_abs = 0
    for value, sign in _signed_subset_products(primes):
        total += sign * (x // value)
        if abs(total) > max_abs:
            max_abs = abs(total)
    return MoebiusSumBreakdown(total, 1 << len(primes), max_abs)


def legendre_sum(
    x: int,
    z: int,
    table: PrimeTable,
    *,
    max_pi_z: int = DEFAULT_MAX_PI_Z,
) -> int:
    """Count of n <= x with no prime factor below z, as a signed Möbius sum.

    Must agree exactly with the sieve's survivor count; the evaluation cost is
    2^(number of sifting primes), which is the point of the cap.
    """
    return legendre_sum_breakdown(x, z, table, max_pi_z=max_pi_z).total


def lpf_count_via_moebius(
    x: int,
    p: int,
    table: PrimeTable,
    *,
    max_pi_z: int = DEFAULT_MAX_PI_Z,
) -> int:
    """Size of the least-prime-factor class of p as a Möbius sum.

    Sums mu(d) * floor(x / (d*p)) over the divisors d of the product of
    primes strictly below p; the least common multiple [p, d] collapses to
    d*p because d is coprime to p.
    """
    _require_prime(p, table)
    primes = sifting_primes(table, p)
    _check_enumeration(primes, max_pi_z)
    return sum(sign * (x // (value * p)) for value, sign in _signed_subset_products(primes))


def frac_remainder_sum(
    x: int,
    z: int,
    table: PrimeTable,
    *,
    max_pi_z: int = DEFAULT_MAX_PI_Z,
) -> Fraction:
    """Exact rational remainder of the per-prime Möbius expansion.

    Sums mu(d) * {x / (d*p)} over every sifting prime p < z and every divisor
    d of the product of primes below p, each fractional part taken exactly as
    (x mod d*p) / (d*p).  Satisfies, as an identity of rationals,

        survivors(x, z) = x * mertens_product(z) + frac_remainder_sum(x, z).
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    primes = sifting_primes(table, z)
    if primes:
        _check_enumeration(primes[:-1], max_pi_z)  # largest modulus used
    # Every modulus d*p divides the product of the sifting primes, so the sum
    # is one integer numerator over that product, reduced once at the end.
    den = prod(primes)
    num = 0
    for i, p in enumerate(primes):
        for value, sign in _signed_subset_products(primes[:i]):
            m = value * p
            num += sign * (x % m) * (den // m)
    return Fraction(num, den)


def frac_bound_b3(x: int, z: int, table: PrimeTable) -> Fraction:
    """Exact value of the prime-indexed fractional-part bound.

    Sum over sifting primes p < z of {x/p} * prod_{q<p}(1 - 1/q); always in
    [0, number of sifting primes).  Accumulated as one integer numerator over
    the primorial and reduced once.  No divisor enumeration is involved, so no
    cap applies.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    # num / den accumulates the sum over the primorial of the primes so far;
    # below is prod_{q<p}(q - 1), so each term is (x mod p) * below / den.
    num, den, below = 0, 1, 1
    for p in sifting_primes(table, z):
        num = num * p + (x % p) * below
        den *= p
        below *= p - 1
    return Fraction(num, den)
