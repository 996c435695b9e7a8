import random
from bisect import bisect_right
from fractions import Fraction
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sievelab import densities
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


def test_harmonic_chain_incremental_matches_pointwise():
    # the two routes share only _chain_ordered: ln z by series and sums
    # against Decimal.ln, running products and sums against fresh ones
    rows = dict(iter_harmonic_chain(10_000, _TABLE_10K))
    for z in [*range(2, 401), 9973, 9974, 10_000]:
        rec, direct = rows[z], harmonic_lower_bound_check(z, _TABLE_10K)
        assert rec.product_inverse == direct.product_inverse, z
        assert rec.harmonic == direct.harmonic, z
        assert rec.log_z.as_tuple() == direct.log_z.as_tuple(), z
        assert rec.ordered and direct.ordered, z
        assert rec == direct, z
    assert rows[10].harmonic == oracles.harmonic(10)
    # a shorter run is a prefix: the logs it keeps end at z_max // 2
    for z_max in range(2, 41):
        assert list(iter_harmonic_chain(z_max, _TABLE_10K)) == list(rows.items())[: z_max - 1]
    assert list(iter_harmonic_chain(1, _TABLE_10K)) == []  # no z in [2, z_max]


_POSITIVE = st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=10**80)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    z=st.integers(2, 10_000),
    inv=_POSITIVE,
    harm=_POSITIVE,
    log_z=_POSITIVE.map(lambda q: oracles.fraction_to_decimal(q, 60)),
)
def test_certified_chain_order_equals_the_exact_one(z, inv, harm, log_z):
    with patch.object(densities, "_chain_ordered_exactly", wraps=densities._chain_ordered_exactly) as exact:
        assert densities._chain_ordered(z, inv, harm, log_z) == oracles.chain_ordered(z, inv, harm, log_z)
    # the floats decide every pair of links far apart, and only those
    links = [(float(inv), float(harm)), (float(harm), float(log_z))]
    far = all(abs(a - b) > 1e-6 * max(a, b) for a, b in links)
    near = any(abs(a - b) < 1e-12 * max(a, b) for a, b in links)
    if far:
        assert exact.call_count == 0
    if near:
        assert exact.call_count == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    z=st.integers(2, 10_000),
    q=_POSITIVE,
    side=st.sampled_from([-1, 0, 1]),
    link=st.sampled_from(["first", "second"]),
)
def test_near_ties_take_the_exact_route(z, q, side, link):
    # q against q + side * 10^-70: at most one float apart, far inside the margin
    near = q + side * Fraction(1, 10**70)
    if link == "first":
        inv, harm, log_z = near, q, oracles.fraction_to_decimal(q / 2, 60)
        expected = side > 0 or (side == 0 and z == 2)
    else:
        inv, harm, log_z = 2 * q, q, oracles.fraction_to_decimal(near, 75)
        expected = oracles.chain_ordered(z, inv, harm, log_z)
    with patch.object(densities, "_chain_ordered_exactly", wraps=densities._chain_ordered_exactly) as exact:
        assert densities._chain_ordered(z, inv, harm, log_z) == expected
    assert exact.call_count == 1


def test_the_chain_meets_itself_at_z_2_only_through_the_exact_route():
    # 1 = 1 at z = 2: the first link holds as >=, and no float margin decides it
    one = Fraction(1)
    with patch.object(densities, "_chain_ordered_exactly", wraps=densities._chain_ordered_exactly) as exact:
        assert densities._chain_ordered(2, one, one, ln_decimal(2))
        assert not densities._chain_ordered(3, one, one, ln_decimal(2))
        assert harmonic_lower_bound_check(2, _TABLE).ordered
        assert dict(iter_harmonic_chain(2, _TABLE))[2].ordered
    assert exact.call_count == 4


def test_harmonic_chain_logs_match_direct_ln_over_full_range():
    # the chain builds log z from series logs of primes and sums of earlier
    # entries; ln_decimal takes it directly
    table = build_prime_table(10_000)
    for z, rec in iter_harmonic_chain(10_000, table):
        assert rec.log_z.as_tuple() == ln_decimal(z).as_tuple(), z


def test_chain_order_from_the_carried_float_is_the_rule_on_the_record():
    # iter_harmonic_chain converts inv to a float only where inv changes;
    # the rule on the yielded values, converting afresh, decides the same
    for z, rec in iter_harmonic_chain(10_000, _TABLE_10K):
        expected = densities._chain_ordered(z, rec.product_inverse, rec.harmonic, rec.log_z)
        assert rec.ordered == expected, z


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
_TABLE_10K = build_prime_table(10_000)
