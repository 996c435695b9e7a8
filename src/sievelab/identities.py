"""The exact identity families, shared by verify-identities and the tests.

Each family is a generator of (where, holds) pairs over the samples its
caller passes in, one pair per check, consumed lazily.  The routes are looked
up on their modules at call time (sieve.lpf_census, not a name bound at
import), so a function rebound on its module is the one every family calls.
"""

from typing import Iterable, Iterator

from . import densities, moebius, sieve
from .sieve import PrimeTable

Samples = Iterable[tuple[int, int]]
Checks = Iterator[tuple[str, bool]]


def partition(samples: Samples, table: PrimeTable) -> Checks:
    """survivors + sum of class sizes == x at each (x, z), with the census's
    survivors equal to survivor_count's."""
    for x, z in samples:
        c = sieve.lpf_census(x, z, table)
        yield f"(x={x}, z={z})", (
            c.survivors + sum(n for _, n in c.counts) == x
            and c.survivors == sieve.survivor_count(x, z, table)
        )


def class_recursion(samples: Samples, table: PrimeTable) -> Checks:
    """Every class of the census at (x, z) against the per-prime recursion."""
    for x, z in samples:
        for p, size in sieve.lpf_census(x, z, table).counts:
            yield f"(x={x}, p={p})", sieve.count_lpf(x, p, table) == size


def legendre(samples: Samples, table: PrimeTable) -> Checks:
    """The full Möbius sum equals the sieve's survivor count at each (x, z)."""
    for x, z in samples:
        total = moebius.legendre_sum(x, z, table)
        yield f"(x={x}, z={z})", total == sieve.survivor_count(x, z, table)


def per_prime(samples: Samples, table: PrimeTable) -> Checks:
    """The class size at each (x, p) by the per-prime Möbius sum and by count_lpf."""
    for x, p in samples:
        size = moebius.lpf_count_via_moebius(x, p, table)
        yield f"(x={x}, p={p})", size == sieve.count_lpf(x, p, table)


def telescoping(r_max: int, table: PrimeTable) -> Checks:
    """The density telescoping identity at every prime r <= r_max."""
    for r, _, _, equal in densities.iter_density_identity(r_max, table):
        yield f"r={r}", equal


def remainder(samples: Samples, table: PrimeTable) -> Checks:
    """survivors - x * prod_{p<z}(1 - 1/p) equals the fractional-part sum at each (x, z)."""
    for x, z in samples:
        lhs = sieve.survivor_count(x, z, table) - x * densities.mertens_product(z, table)
        rhs = moebius.frac_remainder_sum(x, z, table)
        yield f"(x={x}, z={z})", lhs == rhs


def harmonic(z_max: int, table: PrimeTable) -> Checks:
    """The harmonic chain strictly ordered at every z in [3, z_max]; the
    degenerate z = 2 counts as a check that holds."""
    for z, rec in densities.iter_harmonic_chain(z_max, table):
        yield f"z={z}", z < 3 or rec.ordered
