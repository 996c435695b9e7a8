"""Brute-force oracles: slow, obviously-correct reference implementations.

Everything here works by direct enumeration or trial division and never calls
into sievelab, so the tests compare two independent routes to each quantity.
read_csv parses a CSV report back into rows with the csv module alone.
"""

import csv
import io
from decimal import Decimal, localcontext
from fractions import Fraction


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def primes_upto(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if is_prime(n)]


def least_prime_factor(n: int) -> int:
    """Smallest prime dividing n (n itself when n is prime); n must be >= 2."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def census(x: int, z: int) -> tuple[dict[int, int], int]:
    """Classify 1..x by trial division: ({p: class size for p < z}, survivors)."""
    counts = {p: 0 for p in primes_upto(z - 1)}
    survivors = 0
    for n in range(1, x + 1):
        p = least_prime_factor(n) if n > 1 else None
        if p is not None and p < z:
            counts[p] += 1
        else:
            survivors += 1
    return counts, survivors


def survivors(x: int, z: int) -> int:
    return census(x, z)[1]


def mertens_product(z: int) -> Fraction:
    prod = Fraction(1)
    for p in primes_upto(z - 1):
        prod *= Fraction(p - 1, p)
    return prod


def frac_bound_b3(x: int, z: int) -> Fraction:
    """Sum of {x/p} * prod_{q<p}(1 - 1/q) over primes p < z, one Fraction at a time."""
    total = Fraction(0)
    for p in primes_upto(z - 1):
        total += Fraction(x % p, p) * mertens_product(p)
    return total


def harmonic(z: int) -> Fraction:
    """Sum of 1/k over 1 <= k < z."""
    return sum((Fraction(1, k) for k in range(1, z)), Fraction(0))


def frac_remainder_sum(x: int, z: int) -> Fraction:
    """Sum of mu(d) * {x/(d*p)} over primes p < z and squarefree d built from
    the primes below p, one normalised Fraction addition per term."""
    primes = primes_upto(z - 1)
    total = Fraction(0)
    for i, p in enumerate(primes):
        for mask in range(1 << i):
            d, sign = 1, 1
            for j in range(i):
                if mask >> j & 1:
                    d *= primes[j]
                    sign = -sign
            total += Fraction(sign * (x % (d * p)), d * p)
    return total


def fraction_to_decimal(q: Fraction, prec: int) -> Decimal:
    """q rounded to `prec` significant digits by Decimal division."""
    with localcontext() as ctx:
        ctx.prec = prec
        return Decimal(q.numerator) / Decimal(q.denominator)


def read_csv(text: str) -> list[dict[str, str]]:
    """Rows of a CSV report as {column: field} dicts, by the csv module alone."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return [dict(zip(header, row)) for row in reader]
