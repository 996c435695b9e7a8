"""Brute-force oracles: slow, obviously-correct reference implementations.

Everything here works by direct enumeration or trial division and never calls
into sievelab, so the tests compare two independent routes to each quantity.
read_csv parses a CSV report back into rows with the csv module alone.

Two exceptions use the package.  density_report is the density table's text
assembled from the package's Fraction routes (iter_density_identity for the
partial sums, mertens_product for the products, fraction_to_decimal through
render for the decimals), none of which the table itself uses.
counting_dp_every_k is the counting DP with S(x // k) held at every
k <= sqrt(x), where the package's DP holds only the k prime to the wheel: the
same mathematics in the other layout, reading primes from a PrimeTable.
"""

import csv
import io
import json
import sys
from bisect import bisect_right
from contextlib import contextmanager
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import isqrt, prod

from sievelab import densities
from sievelab.highprec import render
from sievelab.report import DENSITY_COLUMNS
from sievelab.sieve import PrimeTable


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


def ln(n: int, prec: int) -> Decimal:
    """ln n rounded to `prec` significant digits by Decimal.ln."""
    with localcontext() as ctx:
        ctx.prec = prec
        return Decimal(n).ln()


def exp_neighbours(k: int) -> tuple[int, int]:
    """(floor(e^k), ceil(e^k)) for k >= 1, from e^k at 80 digits."""
    with localcontext() as ctx:
        ctx.prec = 80
        below = int(Decimal(k).exp())
    return below, below + 1


def chain_ordered(z: int, inv: Fraction, harm: Fraction, log_z: Decimal) -> bool:
    """The harmonic chain's order by exact comparison: inv > harm as
    Fractions (>= at z = 2), then harm at 60 digits against log z."""
    first = inv >= harm if z == 2 else inv > harm
    return first and fraction_to_decimal(harm, 60) > log_z


@cache
def _phi_mod_wheel(wheel: tuple[int, ...]) -> tuple[int, int, list[int]]:
    """(P, phi(P), [phi(m) for 0 <= m < P]), P the product of `wheel`."""
    period = prod(wheel)
    flags = bytearray(b"\x01") * period
    flags[0] = 0
    for p in wheel:
        flags[::p] = bytes(len(range(0, period, p)))
    return period, prod(p - 1 for p in wheel), list(accumulate(flags))


def counting_dp_every_k(x: int, z: int, table: PrimeTable) -> int:
    """Survivors of [1, x] below z for x >= 1 by Lucy Hedgehog's programme,
    large[k] = S(x // k) at every k <= isqrt(x), after the wheel primes 2 to
    13 are sifted in closed form from phi modulo their product."""
    r = isqrt(x)
    primes = table.primes[: bisect_right(table.primes, min(z - 1, r))]
    w = min(len(primes), 6)
    period, phi_period, phi = _phi_mod_wheel(primes[:w])
    c = w - 1
    small = [
        q * phi_period + c + f for q in range(r // period + 1) for f in phi[: r + 1 - q * period]
    ]
    large = [0] + [
        (v // period) * phi_period + phi[v % period] + c for v in (x // k for k in range(1, r + 1))
    ]
    end = bisect_right(primes, x, lo=w, key=lambda p: p * p * p)
    for p in primes[w:end]:
        below = small[p - 1]
        k_max = min(r, x // (p * p))
        k_mid = min(k_max, r // p)
        large[1 : k_mid + 1] = [
            a - b + below for a, b in zip(large[1 : k_mid + 1], large[p : k_mid * p + 1 : p])
        ]
        large[k_mid + 1 : k_max + 1] = [
            a - small[x // p // k] + below
            for k, a in zip(range(k_mid + 1, k_max + 1), large[k_mid + 1 : k_max + 1])
        ]
        if p * p <= r:
            drop = [s - below for s in small[p : r // p + 1]]
            for j in range(p * p, p * p + p):
                small[j::p] = [s - d for s, d in zip(small[j::p], drop)]
    tail = sum(map(large.__getitem__, primes[end:])) - sum(range(end, len(primes)))
    return 1 + large[1] - tail - bisect_right(table.primes, min(z - 1, x))


def density_rows(z: int, table: PrimeTable) -> list[dict]:
    """The density table's rows for the primes p <= z, from Fractions."""
    rows = []
    for p, partial, _, holds in densities.iter_density_identity(z, table):
        assert holds, p
        below = densities.mertens_product(p, table)
        g = below / p
        rows.append({"p": p, "g_exact": str(g), "g_dec": render(g),
                     "partial_sum_exact": str(partial), "partial_sum_dec": render(partial),
                     "mertens_below_exact": str(below), "mertens_below_dec": render(below)})
    return rows


def density_report(rows: list[dict], fmt: str) -> str:
    """density_rows as the CSV (csv module) or JSON (json.dumps) report."""
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(DENSITY_COLUMNS)
    writer.writerows([row[c] for c in DENSITY_COLUMNS] for row in rows)
    return buf.getvalue()


@contextmanager
def int_digit_limit_lifted():
    """Python's int-to-str digit limit off inside the block, restored after
    (the limit exists from Python 3.10.7 and 3.11 on)."""
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


def read_csv(text: str) -> list[dict[str, str]]:
    """Rows of a CSV report as {column: field} dicts, by the csv module alone."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return [dict(zip(header, row)) for row in reader]
