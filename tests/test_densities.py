import random
from bisect import bisect_right
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sievelab.cli import main
from sievelab.densities import (
    build_density_table,
    density_identity_check,
    harmonic_lower_bound_check,
    iter_density_identity,
    iter_harmonic_chain,
    mertens_product,
)
from sievelab.highprec import ln_decimal
from sievelab.sieve import build_prime_table


def test_mertens_product_examples(table_1k):
    assert mertens_product(3, table_1k) == Fraction(1, 2)
    assert mertens_product(10, table_1k) == Fraction(8, 35)
    assert mertens_product(2, table_1k) == 1


def test_mertens_product_matches_oracle(table_1k):
    for z in range(2, 120):
        assert mertens_product(z, table_1k) == oracles.mertens_product(z)


def test_mertens_product_non_increasing(table_1k):
    prev = Fraction(2)
    for z in range(2, 300):
        cur = mertens_product(z, table_1k)
        assert cur <= prev
        prev = cur


def test_density_identity_examples(table_1k):
    assert density_identity_check(2, table_1k) == (Fraction(1, 2), Fraction(1, 2), True)
    lhs, rhs, ok = density_identity_check(10, table_1k)
    assert (lhs, rhs, ok) == (Fraction(27, 35), Fraction(27, 35), True)
    assert density_identity_check(1, table_1k) == (Fraction(0), Fraction(0), True)


def test_density_identity_incremental_matches_pointwise(table_1k):
    rows = list(iter_density_identity(200, table_1k))
    assert [p for p, *_ in rows] == list(oracles.primes_upto(200))
    for p, lhs, rhs, ok in rows:
        assert ok
        assert (lhs, rhs, ok) == density_identity_check(p, table_1k)


def test_density_partial_sums_increase_toward_one(table_1k):
    rows = list(iter_density_identity(500, table_1k))
    sums = [lhs for _, lhs, _, _ in rows]
    assert all(a < b for a, b in zip(sums, sums[1:]))
    assert all(s < 1 for s in sums)


def test_harmonic_chain_examples(table_1k):
    r = harmonic_lower_bound_check(3, table_1k)
    assert r.product_inverse == 2
    assert r.harmonic == Fraction(3, 2)
    assert str(r.log_z)[:6] == "1.0986"
    assert r.ordered

    r = harmonic_lower_bound_check(2, table_1k)
    assert r.product_inverse == 1
    assert r.harmonic == 1
    assert r.ordered  # boundary case: equality allowed at z = 2

    r = harmonic_lower_bound_check(10, table_1k)
    assert r.product_inverse == Fraction(35, 8)
    assert r.harmonic == Fraction(7129, 2520)
    assert str(r.log_z)[:6] == "2.3025"
    assert r.ordered


def test_harmonic_chain_incremental_matches_pointwise(table_1k):
    rows = dict(iter_harmonic_chain(60, table_1k))
    for z in (2, 3, 10, 31, 60):
        assert rows[z] == harmonic_lower_bound_check(z, table_1k)
    assert all(rec.ordered for rec in rows.values())
    assert rows[10].harmonic == oracles.harmonic(10)
    assert list(iter_harmonic_chain(1, table_1k)) == []  # no z in [2, z_max]


def test_harmonic_chain_logs_match_direct_ln_over_full_range():
    # log z is summed from prime-factor logs; ln_decimal takes it directly
    table = build_prime_table(10_000)
    for z, rec in iter_harmonic_chain(10_000, table):
        assert rec.log_z.as_tuple() == ln_decimal(z).as_tuple(), z


def test_density_table_rows(table_1k):
    # (numerator, denominator) pairs of integer Decimals, in lowest terms
    entries = list(build_density_table(10, table_1k))
    assert [e.p for e in entries] == [2, 3, 5, 7]
    assert [e.g_p for e in entries] == [(1, 2), (1, 6), (1, 15), (4, 105)]
    assert entries[-1].partial_sum == (27, 35)
    assert entries[-1].mertens_below_p == (4, 15)
    assert entries[0].mertens_below_p == (1, 1)


def _density_report(capsys, z: int, fmt: str) -> str:
    assert main(["density-table", "--z", str(z), "--format", fmt]) == 0
    return capsys.readouterr().out


def test_density_table_matches_the_fraction_oracle_at_every_z_to_1500(capsys):
    # the table changes only at a prime z, so JSON, whose writer does not
    # depend on z, is compared there; CSV at every z
    rows = oracles.density_rows(1_500, _TABLE_5K)
    primes = [row["p"] for row in rows]
    # the header and one line per prime
    csv_lines = oracles.density_report(rows, "csv").splitlines(keepends=True)
    for z in range(2, 1_501):
        k = bisect_right(primes, z)
        assert _density_report(capsys, z, "csv") == "".join(csv_lines[: 1 + k]), z
        if z in primes:
            expected = oracles.density_report(rows[:k], "json")
            assert _density_report(capsys, z, "json") == expected, z


def test_density_table_matches_the_fraction_oracle_at_5000(capsys):
    rows = oracles.density_rows(5_000, _TABLE_5K)
    for fmt in ("csv", "json"):
        assert _density_report(capsys, 5_000, fmt) == oracles.density_report(rows, fmt)


def test_rationals_stay_reduced(table_1k):
    rng = random.Random(9)
    for _ in range(30):
        z = rng.randrange(2, 300)
        for q in (
            mertens_product(z, table_1k),
            density_identity_check(z, table_1k)[0],
        ):
            assert q.denominator > 0
            import math

            assert math.gcd(q.numerator, q.denominator) == 1


@settings(max_examples=50, deadline=None, derandomize=True)
@given(r=st.integers(1, 700))
def test_density_identity_property(r):
    lhs, rhs, ok = density_identity_check(r, _TABLE)
    assert ok
    assert lhs == rhs


@settings(max_examples=50, deadline=None, derandomize=True)
@given(z=st.integers(3, 700))
def test_harmonic_chain_property(z):
    assert harmonic_lower_bound_check(z, _TABLE).ordered


_TABLE = build_prime_table(1_000)
_TABLE_5K = build_prime_table(5_000)
