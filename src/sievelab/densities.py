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

from .highprec import EXACT, WORKING, fraction_to_decimal, ln_decimal
from .sieve import PrimeTable, sifting_primes

# The harmonic chain carries ln z as an integer scaled by 10^75: at least 75
# significant digits for z >= 2, 15 past the working precision.  It is low by
# at most about 10^-72 below z = 10^4, so the one rounding to WORKING_PREC
# digits gives ln z correctly rounded there (a test checks every z).
_LOG_GUARD_PREC = 75
_LOG_ONE = 10**_LOG_GUARD_PREC
# Floats further apart than this share of the larger are ordered as the
# exact values they round (see _chain_ordered).
_FLOAT_MARGIN = 1e-9


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


def _chain_ordered_exactly(z: int, inv: Fraction, harm: Fraction, log_z: Decimal) -> bool:
    """The chain's order from the exact rationals and harm rounded to
    WORKING_PREC digits against log z: the route for near-ties."""
    # at z = 2 the first link degenerates to 1 >= 1; strictness starts at z = 3
    first = inv >= harm if z == 2 else inv > harm
    return first and fraction_to_decimal(harm) > log_z


def _apart(a: float, b: float) -> bool:
    return abs(a - b) > _FLOAT_MARGIN * max(abs(a), abs(b))


def _chain_ordered(z: int, inv: Fraction, harm: Fraction, log_z: Decimal,
                   inv_float: float) -> bool:
    """inv > harm > log_z (inv >= harm at z = 2), decided in floats when
    both links are wider than _FLOAT_MARGIN and by _chain_ordered_exactly
    otherwise.  inv_float is float(inv), made by the caller.

    float() of a Fraction divides its numerator by its denominator and
    float() of a Decimal parses its digits, both correctly rounded, so each
    float is within 2^-53 of its value, relatively, and the two roundings
    move a difference by at most about 2.2e-16 of the larger value.  A gap of
    more than 1e-9 of it therefore has the sign of the exact difference, and
    of the difference between harm and log z at WORKING_PREC digits, so the
    floats decide exactly what _chain_ordered_exactly would.  From z = 3 on
    the links are far wider: inv / harm >= 4/3, and harm / log z - 1 is
    about gamma / ln z (0.063 at z = 10^4).  At z = 2 the first link meets
    (1 = 1), so that point always takes the exact route.
    """
    b, c = float(harm), float(log_z)
    if _apart(inv_float, b) and _apart(b, c):
        return inv_float > b > c
    return _chain_ordered_exactly(z, inv, harm, log_z)


def harmonic_lower_bound_check(z: int, table: PrimeTable) -> HarmonicChain:
    """The chain prod(1-1/p)^-1 > sum_{k<z} 1/k > log z, evaluated exactly.

    The rationals are exact and ln z is Decimal's, at 60 significant digits;
    the links are ordered as _chain_ordered decides, in floats where they
    are more than 1e-9 apart, relatively, and exactly otherwise.
    iter_harmonic_chain takes ln z by another route.
    """
    inv = 1 / mertens_product(z, table)
    harm = sum((Fraction(1, k) for k in range(1, z)), Fraction(0))
    log_z = ln_decimal(z)
    return HarmonicChain(inv, harm, log_z, _chain_ordered(z, inv, harm, log_z, float(inv)))


def _log_ratio(p: int) -> int:
    """ln(p / (p - 1)) = 2 atanh(1 / (2p - 1)), scaled by _LOG_ONE.

    The series sum_i y^(2i+1) / (2i+1), y = 1 / (2p - 1), gains
    2 log10(2p - 1) digits a term (about 12 terms at p = 1000).  Each power
    is floored exactly and each term truncated, so the result is low by less
    than four units a term, doubling included.
    """
    k = 2 * p - 1
    k2 = k * k
    power = _LOG_ONE // k
    total = 0
    n = 1
    while power:
        total += power // n
        power //= k2
        n += 2
    return 2 * total


def iter_harmonic_chain(z_max: int, table: PrimeTable) -> Iterator[tuple[int, HarmonicChain]]:
    """harmonic_lower_bound_check for every z in [2, z_max], incrementally.

    ln z is carried as an integer scaled by _LOG_ONE: for a composite z it
    is the sum of the logs of its least prime factor p and of z / p, kept in
    a list to z_max // 2, and for a prime z it is ln(z - 1) + ln(z / (z - 1))
    by _log_ratio, so no logarithm is ever taken.  Each is rounded once to
    WORKING_PREC digits.  The sums are exact; the series' truncations leave
    ln z low by about 10^-72 at most below 10^4, against 15 guard digits.
    Links are ordered by _chain_ordered, and harmonic_lower_bound_check is
    the independent route, taking ln z from Decimal.ln.
    """
    if z_max < 2:
        return
    primes = sifting_primes(table, z_max)
    least = [0] * (z_max + 1)
    # descending, so the least prime factor is the last one written
    for p in reversed(primes[: bisect_right(primes, isqrt(z_max))]):
        least[p * p :: p] = [p] * len(range(p * p, z_max + 1, p))
    # only a least prime factor or a cofactor is looked up, both <= z_max // 2
    logs = [0] * (z_max // 2 + 1)
    log = 0
    inv = Fraction(1)
    inv_float = 1.0
    harm = Fraction(0)
    for z in range(2, z_max + 1):
        harm += Fraction(1, z - 1)
        if z > 2 and not least[z - 1]:
            inv *= Fraction(z - 1, z - 2)
            inv_float = float(inv)
        p = least[z]
        log = logs[p] + logs[z // p] if p else log + _log_ratio(z)
        if z < len(logs):
            logs[z] = log
        log_z = Decimal(log).scaleb(-_LOG_GUARD_PREC, WORKING)
        yield z, HarmonicChain(inv, harm, log_z, _chain_ordered(z, inv, harm, log_z, inv_float))


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


def _checked_telescope(z: int, table: PrimeTable) -> Iterator[tuple[int, Decimal, Decimal]]:
    """(p, a, b) from _telescope through every prime p <= z, checking the
    telescoping identity at each, unreduced (S = P - U), and the reduced
    product a/b against U/P at the last.  Every step scales both by the same
    (p - 1)/p, so equality at the last prime means equality at every row.
    A failed check raises ArithmeticError."""
    for p, s, u, big_p, a, b in _telescope(z, table):
        with localcontext(EXACT):
            if s != big_p - u:
                raise ArithmeticError(f"telescoping identity failed at p = {p}")
        yield p, a, b
    with localcontext(EXACT):
        if a * big_p != u * b:
            raise ArithmeticError(f"reduced and unreduced Mertens products differ at z = {z}")


def _density_entries(z: int, table: PrimeTable) -> Iterator[DensityEntry]:
    """The rows of a second run of _checked_telescope, made one at a time.
    g's denominator b*p is made afresh in every row, b' or not."""
    a = b = Decimal(1)
    for p, a_next, b_next in _checked_telescope(z, table):
        with localcontext(EXACT):
            entry = DensityEntry(p, (a, b * p), (b_next - a_next, b_next), (a, b))
        yield entry
        a, b = a_next, b_next


def build_density_table(z: int, table: PrimeTable) -> Iterator[DensityEntry]:
    """Per-prime densities and partial sums for all primes p <= z, as an
    iterator that makes one row at a time.

    _checked_telescope runs to the last prime before this returns, as a
    check pass that makes no rows, and the returned iterator runs it again
    to make each row; so no row is handed out before every check has passed,
    and a failed check raises ArithmeticError (a defect here, not bad
    input).  Rows are g(p) = a/(b*p), the partial sum 1 - a'/b' =
    (b' - a')/b' with a'/b' the product through p, and the product below p,
    a/b.
    """
    if z < 2:
        raise ValueError(f"z must be >= 2, got {z}")
    for _ in _checked_telescope(z, table):
        pass
    return _density_entries(z, table)
