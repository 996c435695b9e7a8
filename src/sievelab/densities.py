"""Exact rational densities: Mertens products, least-prime-factor densities,
and the telescoping identity linking them.

Every quantity is exact, so the identity checks are bit-exact rather than
approximate: a Fraction, or in the density table a pair of integer-valued
Decimals (numerator, denominator), whose decimal text takes time linear in
its digits where an int's takes quadratic.  The density of the
least-prime-factor class of p uses the strict product over primes q < p;
with that convention the telescoping sum

    sum_{p <= r} (1/p) * prod_{q < p} (1 - 1/q)  =  1 - prod_{p <= r} (1 - 1/p)

is an identity of rationals at every prime r, which the incremental builders
verify term by term.
"""

from bisect import bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, isqrt, prod
from typing import Iterator, NamedTuple

from .highprec import EXACT, WORKING_PREC, fraction_to_decimal, ln_decimal
from .sieve import PrimeTable, sifting_primes

# Precision of the prime logarithms the harmonic chain sums: 15 digits past
# the working precision, so the one rounding of the sum gives ln z correctly
# rounded to WORKING_PREC digits.
_LOG_GUARD_PREC = 75


def mertens_product(z: int, table: PrimeTable) -> Fraction:
    """prod_{p < z} (1 - 1/p), exactly; 1 when no prime lies below z."""
    if z < 2:
        raise ValueError(f"z must be >= 2, got {z}")
    primes = sifting_primes(table, z)
    return Fraction(prod(p - 1 for p in primes), prod(primes))


def density_identity_check(
    r: int, table: PrimeTable
) -> tuple[Fraction, Fraction, bool]:
    """Both sides of the telescoping identity at threshold r, plus exact equality.

    The left side accumulates per-prime densities; the right side is one
    minus the full product.  The two routes share no arithmetic.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    lhs = Fraction(0)
    running = Fraction(1)
    for p in sifting_primes(table, r + 1):
        lhs += running / p
        running *= Fraction(p - 1, p)
    rhs = 1 - mertens_product(r + 1, table)
    return lhs, rhs, lhs == rhs


def iter_density_identity(
    r_max: int, table: PrimeTable
) -> Iterator[tuple[int, Fraction, Fraction, bool]]:
    """density_identity_check at every prime r <= r_max, sharing prefix work.

    The sum of the densities and one minus the running product are both
    carried forward as Fractions; each yielded tuple compares them exactly.
    This is the rational route the density table is tested against.
    """
    partial = Fraction(0)
    running = Fraction(1)
    for p in sifting_primes(table, r_max + 1):
        partial += running / p
        running *= Fraction(p - 1, p)
        rhs = 1 - running
        yield p, partial, rhs, partial == rhs


class HarmonicChain(NamedTuple):
    product_inverse: Fraction
    harmonic: Fraction
    log_z: Decimal
    ordered: bool


def _chain_ordered(z: int, inv: Fraction, harm: Fraction, log_z: Decimal) -> bool:
    # at z = 2 the first link degenerates to 1 >= 1; strictness starts at z = 3
    first = inv >= harm if z == 2 else inv > harm
    return first and fraction_to_decimal(harm) > log_z


def harmonic_lower_bound_check(z: int, table: PrimeTable) -> HarmonicChain:
    """The chain prod(1-1/p)^-1 > sum_{k<z} 1/k > log z, evaluated exactly.

    Rational legs are compared exactly; the logarithm is taken at 60
    significant digits, far beyond the gap between the quantities.
    """
    if z < 2:
        raise ValueError(f"z must be >= 2, got {z}")
    inv = 1 / mertens_product(z, table)
    harm = sum((Fraction(1, k) for k in range(1, z)), Fraction(0))
    log_z = ln_decimal(z)
    return HarmonicChain(inv, harm, log_z, _chain_ordered(z, inv, harm, log_z))


def _ln_from_factors(z: int, least: list[int], prime_logs: dict[int, Decimal]) -> Decimal:
    """ln z as the sum of the logs of its prime factors, rounded once.

    least[m] is the least prime factor of a composite m and 0 for a prime;
    prime_logs caches each prime's log at _LOG_GUARD_PREC digits.
    """
    with localcontext() as ctx:
        ctx.prec = _LOG_GUARD_PREC
        total = Decimal(0)
        while z > 1:
            p = least[z] or z
            log_p = prime_logs.get(p)
            if log_p is None:
                log_p = prime_logs[p] = ln_decimal(p, _LOG_GUARD_PREC)
            total += log_p
            z //= p
        ctx.prec = WORKING_PREC
        return +total


def iter_harmonic_chain(z_max: int, table: PrimeTable) -> Iterator[tuple[int, HarmonicChain]]:
    """harmonic_lower_bound_check for every z in [2, z_max], incrementally.

    log z is summed from the logs of the prime factors of z, so each prime's
    logarithm is taken once; harmonic_lower_bound_check takes ln z directly.
    """
    if z_max < 2:
        return
    primes = sifting_primes(table, z_max)
    prime_set = set(primes)
    least = [0] * (z_max + 1)
    # descending, so the least prime factor is the last one written
    for p in reversed(primes[: bisect_right(primes, isqrt(z_max))]):
        least[p * p :: p] = [p] * len(range(p * p, z_max + 1, p))
    prime_logs: dict[int, Decimal] = {}
    inv = Fraction(1)
    harm = Fraction(0)
    for z in range(2, z_max + 1):
        harm += Fraction(1, z - 1)
        if z - 1 in prime_set:
            inv *= Fraction(z - 1, z - 2)
        log_z = _ln_from_factors(z, least, prime_logs)
        yield z, HarmonicChain(inv, harm, log_z, _chain_ordered(z, inv, harm, log_z))


# A rational as (numerator, denominator), integer-valued Decimals in lowest
# terms: str() of one is linear in its digits where str(int) is quadratic.
DecimalRatio = tuple[Decimal, Decimal]


class DensityEntry(NamedTuple):
    p: int
    g_p: DecimalRatio
    partial_sum: DecimalRatio
    mertens_below_p: DecimalRatio


def _telescope(
    z: int, table: PrimeTable
) -> Iterator[tuple[int, Decimal, Decimal, Decimal, Decimal, Decimal]]:
    """(p, S, U, P, a, b) through every prime p <= z, as integer Decimals.

    With P the product of the primes so far, S/P is the sum of their
    densities and U/P the product of (1 - 1/q) over them, both unreduced;
    a/b is that product in lowest terms.  Each prime costs a few products
    and two divisions by small ints.  a/b times (p - 1)/p needs only
    gg = gcd(p - 1, b) cancelled: b is squarefree and p does not divide a.
    """
    s, u, big_p, a, b = Decimal(0), Decimal(1), Decimal(1), Decimal(1), Decimal(1)
    for p in sifting_primes(table, z + 1):
        # not held across the yield: the caller's arithmetic keeps its context
        with localcontext(EXACT):
            s = s * p + u
            u *= p - 1
            big_p *= p
            gg = gcd(p - 1, int(b % (p - 1)))
            a *= (p - 1) // gg
            b = b // gg * p
        yield p, s, u, big_p, a, b


def _density_entries(z: int, table: PrimeTable) -> Iterator[DensityEntry]:
    """The rows of _telescope, each checked: S = P - U (the telescoping
    identity, unreduced) at every prime, and a/b = U/P at the last.  Every
    step scales both by the same (p - 1)/p, so equality at the last prime
    means equality at every row."""
    a = b = Decimal(1)
    for p, s, u, big_p, a_next, b_next in _telescope(z, table):
        with localcontext(EXACT):
            if s != big_p - u:
                raise ArithmeticError(f"telescoping identity failed at p = {p}")
            entry = DensityEntry(p, (a, b * p), (b_next - a_next, b_next), (a, b))
        yield entry
        a, b = a_next, b_next
    with localcontext(EXACT):
        if a * big_p != u * b:
            raise ArithmeticError(f"reduced and unreduced Mertens products differ at z = {z}")


def build_density_table(z: int, table: PrimeTable) -> Iterator[DensityEntry]:
    """Per-prime densities and partial sums for all primes p <= z, as an
    iterator that makes one row at a time.

    The whole table is built and checked once before this returns, and the
    returned iterator builds it again, so no row is handed out before every
    row has passed; a failed check raises ArithmeticError (a defect here,
    not bad input).  Rows are g(p) = a/(b*p), the partial sum
    1 - a'/b' = (b' - a')/b' with a'/b' the product through p, and the
    product below p, a/b.
    """
    if z < 2:
        raise ValueError(f"z must be >= 2, got {z}")
    for _ in _density_entries(z, table):
        pass
    return _density_entries(z, table)
