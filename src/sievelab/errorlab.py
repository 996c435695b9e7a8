"""Measurement harness for the sieve error term.

An evaluation point (x, z) produces the exact survivor count, the rational
main term x * prod_{p<z}(1 - 1/p), their exact difference, and the candidate
bounds worth comparing against: the number of sifting primes (linear claim),
its power of two (classical inclusion-exclusion term count, reported as the
exponent), and the exact fractional-part quantities.  Everything asserted is
exact; the ratio columns are measurements and carry no pass/fail meaning.
"""

import time
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt
from typing import Callable, Iterable

from .densities import mertens_product
from .errors import CapExceededError
from .highprec import WORKING, ln_decimal
from .moebius import frac_bound_b3, frac_remainder_sum, legendre_sum
from .sieve import PrimeTable, prime_count, survivor_count

# Per-point Möbius cross-checks are enabled by default only this far; the
# divisor enumeration doubles per extra sifting prime.
MOEBIUS_CHECK_MAX_Z = 31


@dataclass(frozen=True)
class ErrorRecord:
    """One (x, z) evaluation: exact counts, main term, error, and bounds."""

    x: int
    z: int
    survivors: int
    main_term: Fraction
    error: Fraction
    pi_z: int
    log2_legendre_bound: int
    b3_bound: Fraction
    frac_remainder: Fraction | None
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class ChebyshevRecord:
    """Exact prime-counting inclusion at z = floor(sqrt(x)) + 1."""

    x: int
    z_used: int
    pi_x: int
    s_plus_pi_z: int
    mertens_upper: Decimal
    holds_54: bool
    holds_53: bool


@dataclass(frozen=True)
class ProbeRow:
    z: int
    term_count: int
    wall_time: float | None
    status: str


def check_point(x: int, z: int) -> None:
    """The sweep's rule on a point: 2 <= z <= x."""
    if not 2 <= z <= x:
        raise ValueError(f"sweep point violates 2 <= z <= x: x={x}, z={z}")


def evaluate_point(
    x: int,
    z: int,
    table: PrimeTable,
    *,
    moebius_cross_check: bool = True,
    frac_remainder: bool = False,
) -> ErrorRecord:
    """Evaluate one sweep point exactly.

    check_point and prime_count(z) refuse before any work.  A Möbius cap
    violation downgrades to an absent field (flagged), never aborts; two exact
    routes that disagree raise ArithmeticError: an implementation defect.
    """
    check_point(x, z)
    pi_z = prime_count(z, table)
    survivors = survivor_count(x, z, table)
    main_term = x * mertens_product(z, table)
    error = survivors - main_term
    flags: list[str] = []

    def check(name: str, route: Callable, expected: int | Fraction) -> int | Fraction | None:
        """route at this point against expected, flagged name=ok, or name=cap
        when route refuses at the enumeration cap (returning None)."""
        try:
            value = route(x, z, table)
        except CapExceededError:
            flags.append(f"{name}=cap")
            return None
        if value != expected:
            raise ArithmeticError(
                f"{name} route gives {value}, expected {expected}, at (x={x}, z={z})"
            )
        flags.append(f"{name}=ok")
        return value

    frac_value = check("frac", frac_remainder_sum, error) if frac_remainder else None
    if moebius_cross_check and z <= MOEBIUS_CHECK_MAX_Z:
        check("moebius", legendre_sum, survivors)

    return ErrorRecord(
        x=x,
        z=z,
        survivors=survivors,
        main_term=main_term,
        error=error,
        pi_z=pi_z,
        log2_legendre_bound=prime_count(z - 1, table),
        b3_bound=frac_bound_b3(x, z, table),
        frac_remainder=frac_value,
        flags=tuple(flags),
    )


def run_sweep(
    points: Iterable[tuple[int, int]], table: PrimeTable, **options
) -> list[ErrorRecord]:
    """evaluate_point at each (x, z) of points, in their order; options are
    evaluate_point's keyword arguments."""
    return [evaluate_point(x, z, table, **options) for x, z in points]


def chebyshev_check(x: int, table: PrimeTable, pi_x: int | None = None) -> ChebyshevRecord:
    """Exact inclusion pi(x) <= survivors + pi(floor(sqrt(x))).

    Uses z = floor(sqrt(x)) + 1 so that every composite <= x is sifted; the
    inclusion is then a set fact: each prime <= x either lies below z or
    survives.  pi(x), unless pi_x gives it, and pi(z) are read from the table
    first, so prime_count refuses a short one before any work.  holds_53 is a
    diagnostic against x/log(sqrt(x)), the unspecified constant taken as 1.
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    z_used = isqrt(x) + 1
    pi_x = prime_count(x, table) if pi_x is None else pi_x
    pi_z = prime_count(z_used, table)
    survivors = survivor_count(x, z_used, table)
    s_plus = survivors + prime_count(z_used - 1, table)
    with localcontext(WORKING):
        mertens_upper = Decimal(x) / (ln_decimal(x) / 2)
        holds_53 = Decimal(survivors) < mertens_upper + pi_z
    return ChebyshevRecord(
        x=x,
        z_used=z_used,
        pi_x=pi_x,
        s_plus_pi_z=s_plus,
        mertens_upper=mertens_upper,
        holds_54=pi_x <= s_plus,
        holds_53=holds_53,
    )


def legendre_blowup_probe(z_max: int, x: int, table: PrimeTable) -> list[ProbeRow]:
    """Term counts (exact) and wall times for the full Möbius sum as z grows.

    Rows past the enumeration cap still carry the exact term count, with status
    "cap" and no time; prime_count refuses a table short of z_max - 1 first.
    """
    prime_count(z_max - 1, table)  # the largest pi a row reads: a short table is refused here
    rows: list[ProbeRow] = []
    for z in range(2, z_max + 1):
        k = prime_count(z - 1, table)
        term_count = 1 << k
        try:
            t0 = time.perf_counter()
            legendre_sum(x, z, table)
            rows.append(ProbeRow(z, term_count, time.perf_counter() - t0, "ok"))
        except CapExceededError:
            rows.append(ProbeRow(z, term_count, None, "cap"))
    return rows
