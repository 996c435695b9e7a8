"""Exact Möbius-sum evaluators over squarefree divisor lattices.

legendre_sum evaluates the classical inclusion-exclusion count of integers
free of small prime factors as a sum over all divisors of the product of
sifting primes; the term count is 2^k for k sifting primes, and the evaluator
is deliberately the honest exponential one, guarded by one fixed cap on the
number of sifting primes, MAX_PI_Z; nothing else limits it.
lpf_count_via_moebius is the same count at (x // p, primes below p), since
floor(x / (d*p)) = floor(floor(x / p) / d).  The fractional-part sums carry
the exact rational remainder left behind when each floor is replaced by its
real-valued main term.  All three draw their divisors from one helper,
_signed_divisors, which lists them split by the sign of mu.  The cap bounds
those lists, to 2^16 ints in all (3.1 MB under tracemalloc), so the memory
budget is not read.  _signed_divisors keeps its last pair, as tuples no
caller can change: the calls come in runs on one prime set (the samples of
the Legendre and per-prime families, the two sums at each x of a
remainder sweep).  So at MAX_PI_Z at most one pair (3.1 MB) stays alive
between calls, and about twice that while the pair for a new set is built.
"""

from fractions import Fraction
from functools import lru_cache
from math import prod

from .errors import CapExceededError
from .sieve import PrimeTable, check_prime, sifting_primes

# Cap on the sifting primes of one enumeration.  legendre_sum and
# lpf_count_via_moebius list at most 2^15 divisors.  frac_remainder_sum caps
# the primes below its largest sifting prime, so it lists up to 2^16 moduli,
# the largest 2 * 3 * ... * 53 = 32589158477190044730, past 2^64.
MAX_PI_Z = 15


def check_enumeration(primes: tuple[int, ...]) -> None:
    """Refuse to enumerate the 2^k divisors of k = len(primes) > MAX_PI_Z primes."""
    if len(primes) > MAX_PI_Z:
        raise CapExceededError(len(primes), MAX_PI_Z)


@lru_cache(maxsize=1)
def _signed_divisors(primes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The squarefree divisors d of prod(primes) as (plus, minus): mu(d) = +1, -1."""
    plus, minus = [1], []
    for p in primes:
        plus, minus = plus + [d * p for d in minus], minus + [d * p for d in plus]
    return tuple(plus), tuple(minus)


def _moebius_count(y: int, primes: tuple[int, ...]) -> int:
    """Sum of mu(d) * floor(y / d) over the squarefree divisors d of prod(primes)."""
    plus, minus = _signed_divisors(primes)
    return sum(map(y.__floordiv__, plus)) - sum(map(y.__floordiv__, minus))


def legendre_sum(x: int, z: int, table: PrimeTable) -> int:
    """Count of n <= x with no prime factor below z, as a signed Möbius sum.

    Must agree exactly with the sieve's survivor count; the evaluation cost is
    2^(number of sifting primes), which is the point of the cap.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    primes = sifting_primes(table, z)
    check_enumeration(primes)
    return _moebius_count(x, primes)


def lpf_count_via_moebius(x: int, p: int, table: PrimeTable) -> int:
    """Size of the least-prime-factor class of p as a Möbius sum.

    Sums mu(d) * floor(x / (d*p)) = mu(d) * floor((x // p) / d) over the
    divisors d of the product of primes strictly below p; the least common
    multiple [p, d] collapses to d*p because d is coprime to p.
    """
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    check_prime(p, table)
    primes = sifting_primes(table, p)
    check_enumeration(primes)
    return _moebius_count(x // p, primes)


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
    plus, minus = _signed_divisors(primes)
    num = sum((x % m) * (den // m) for m in minus) - sum((x % m) * (den // m) for m in plus)
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
