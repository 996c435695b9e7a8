"""Exact Möbius-sum evaluators over squarefree divisor lattices.

legendre_sum evaluates the classical inclusion-exclusion count of integers
free of small prime factors as a sum over all divisors of the product of
sifting primes; the term count is 2^k for k sifting primes, and the evaluator
is deliberately the honest exponential one, guarded by one fixed cap on the
number of sifting primes, MAX_PI_Z; nothing else limits it.
lpf_count_via_moebius applies the same machinery per sifting prime p, where
the divisor modulus shrinks to the product of primes strictly below p.  The
fractional-part sums carry the exact rational remainder left behind when each
floor is replaced by its real-valued main term.  All three draw the divisors
d and their signs mu(d) from one generator, _signed_subset_products, which
holds two lists of 2^(k/2) subsets rather than all 2^k.
"""

from fractions import Fraction
from math import prod
from typing import Iterator

from .errors import CapExceededError
from .sieve import PrimeTable, check_prime, sifting_primes

# Cap on the sifting primes of one enumeration: 2^15 terms, every divisor
# below 2^64 (the product of the first 16 primes exceeds it).
MAX_PI_Z = 15


def check_enumeration(primes: tuple[int, ...]) -> None:
    """Refuse to enumerate the 2^k divisors of k = len(primes) > MAX_PI_Z primes."""
    if len(primes) > MAX_PI_Z:
        raise CapExceededError(len(primes), MAX_PI_Z)


def _subset_list(primes: tuple[int, ...]) -> list[tuple[int, int]]:
    subsets = [(1, 1)]
    for p in primes:
        subsets += [(value * p, -sign) for value, sign in subsets]
    return subsets


def _signed_subset_products(primes: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """(product, Möbius sign) for every subset, in binary rank order.

    Bit i of the rank selects primes[i]: 1, p0, p1, p0*p1, p2, ...  The
    subsets of the low and the high half of the primes are listed once each
    and their products streamed, high half outermost.
    """
    half = len(primes) // 2
    low = _subset_list(primes[:half])
    for high_value, high_sign in _subset_list(primes[half:]):
        for value, sign in low:
            yield value * high_value, sign * high_sign


def legendre_sum(x: int, z: int, table: PrimeTable) -> int:
    """Count of n <= x with no prime factor below z, as a signed Möbius sum.

    Must agree exactly with the sieve's survivor count; the evaluation cost is
    2^(number of sifting primes), which is the point of the cap.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    primes = sifting_primes(table, z)
    check_enumeration(primes)
    return sum(sign * (x // value) for value, sign in _signed_subset_products(primes))


def lpf_count_via_moebius(x: int, p: int, table: PrimeTable) -> int:
    """Size of the least-prime-factor class of p as a Möbius sum.

    Sums mu(d) * floor(x / (d*p)) over the divisors d of the product of
    primes strictly below p; the least common multiple [p, d] collapses to
    d*p because d is coprime to p.
    """
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    check_prime(p, table)
    primes = sifting_primes(table, p)
    check_enumeration(primes)
    return sum(sign * (x // (value * p)) for value, sign in _signed_subset_products(primes))


def frac_remainder_sum(x: int, z: int, table: PrimeTable) -> Fraction:
    """Exact rational remainder of the per-prime Möbius expansion.

    Sums mu(d) * {x / (d*p)} over every sifting prime p < z and every divisor
    d of the product of primes below p, each fractional part taken exactly as
    (x mod d*p) / (d*p).  Satisfies, as an identity of rationals,

        survivors(x, z) = x * mertens_product(z) + frac_remainder_sum(x, z).
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    primes = sifting_primes(table, z)
    check_enumeration(primes[:-1])  # largest modulus used
    # Each modulus m = d*p is a squarefree divisor > 1 of the product of the
    # sifting primes, with p its largest prime, so mu(d) = -mu(m); m = 1 adds
    # x mod 1 = 0.  The sum is one integer numerator over that product,
    # reduced once at the end.
    den = prod(primes)
    num = 0
    for m, sign in _signed_subset_products(primes):
        num -= sign * (x % m) * (den // m)
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
