import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sievelab.errors import CapExceededError
from sievelab.moebius import (
    MAX_PI_Z,
    _signed_divisors,
    check_enumeration,
    frac_bound_b3,
    frac_remainder_sum,
    legendre_sum,
    lpf_count_via_moebius,
)
from sievelab.sieve import (
    build_prime_table,
    count_lpf,
    prime_count,
    sifting_primes,
    survivor_count,
)

from sievelab.densities import mertens_product


def test_enumerate_divisors_empty():
    assert _signed_divisors(()) == ((1,), ())


def test_enumerate_divisors_two_primes():
    assert _signed_divisors((2, 3)) == ((1, 6), (2, 3))


def test_enumerate_divisors_rank_order_and_count():
    # bit i of the rank selects primes[i]; each sign's divisors come in rank order
    primes = (2, 3, 5, 7, 11, 13, 17)
    for k in range(len(primes) + 1):
        by_sign = {1: [], -1: []}
        for mask in range(1 << k):
            chosen = [primes[i] for i in range(k) if mask >> i & 1]
            by_sign[(-1) ** len(chosen)].append(prod(chosen))
        assert _signed_divisors(primes[:k]) == (tuple(by_sign[1]), tuple(by_sign[-1])), k


def test_enumerate_divisors_term_count_doubles():
    primes = (2, 3, 5, 7, 11, 13)
    for k in range(len(primes) + 1):
        plus, minus = _signed_divisors(primes[:k])
        assert len(plus) + len(minus) == 1 << k
        if k:
            assert len(plus) == len(minus) == 1 << (k - 1), k


def test_alternating_prime_sets_each_get_their_own_divisors(table_1k):
    # the helper keeps one prime set's divisors: each switch of set must
    # make the new set's, and each repeat must reuse them
    _signed_divisors.cache_clear()
    rng = random.Random(41)
    for _ in range(6):
        x = rng.randrange(1, 3_000)
        for z, p in ((12, 29), (30, 11), (3, 2)):
            census = oracles.census(x, p + 1)[0]
            for _ in range(2):
                assert legendre_sum(x, z, table_1k) == oracles.survivors(x, z), (x, z)
                assert _signed_divisors.cache_info().currsize <= 1
                assert frac_remainder_sum(x, z, table_1k) == oracles.frac_remainder_sum(x, z)
                assert _signed_divisors.cache_info().currsize <= 1
                assert lpf_count_via_moebius(x, p, table_1k) == census[p], (x, p)
                assert _signed_divisors.cache_info().currsize <= 1
    info = _signed_divisors.cache_info()
    assert info.maxsize == 1 and info.hits and info.misses
    plus, minus = _signed_divisors((2, 3, 5))
    assert type(plus) is tuple and type(minus) is tuple


@settings(max_examples=60, deadline=None, derandomize=True)
@given(x=st.integers(0, 10**12),
       p=st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)))
def test_lpf_count_via_moebius_is_legendre_sum_at_x_over_p(x, p):
    # floor(x / (d*p)) = floor(floor(x / p) / d): the class of p is the
    # Legendre count of x // p at level p
    expected = legendre_sum(x // p, p, _TABLE) if x >= p else 0
    assert lpf_count_via_moebius(x, p, _TABLE) == expected


def test_max_pi_z_binds_past_fifteen_primes(table_1k):
    # the 15 sifting primes below 53 are enumerated, the 16 below 54 and the
    # 17 below 60 are not
    assert MAX_PI_Z == 15
    assert legendre_sum(1000, 53, table_1k) == survivor_count(1000, 53, table_1k)
    for z in (54, 60):
        with pytest.raises(CapExceededError, match=f"\\(cap {MAX_PI_Z}\\)"):
            legendre_sum(1000, z, table_1k)


def test_default_cap_refuses_sixteen_primes(table_1k):
    with pytest.raises(CapExceededError, match="16 sifting primes .*\\(cap 15\\)"):
        legendre_sum(1000, 54, table_1k)
    # the remainder enumerates the primes below its largest sifting prime
    with pytest.raises(CapExceededError, match="\\(cap 15\\)"):
        frac_remainder_sum(1000, 60, table_1k)
    assert frac_remainder_sum(1000, 54, table_1k) == (
        survivor_count(1000, 54, table_1k) - 1000 * mertens_product(54, table_1k)
    )


def test_legendre_sum_examples(table_1k):
    assert legendre_sum(10, 3, table_1k) == 5
    assert legendre_sum(30, 6, table_1k) == 8
    for x in (1, 5, 100, 937):
        assert legendre_sum(x, 2, table_1k) == x


def test_legendre_sum_cap_error_names_term_count(table_1k):
    with pytest.raises(CapExceededError, match="2\\^16 = 65536"):
        check_enumeration(sifting_primes(table_1k, 54))


def test_cap_error_names_a_term_count_past_the_digit_limit():
    # 2^14285 has 4301 digits: the refusal is still the cap's, not str()'s ValueError
    with pytest.raises(CapExceededError) as exc:
        check_enumeration(tuple(range(14285)))
    with oracles.int_digit_limit_lifted():
        expected = f"14285 sifting primes would enumerate 2^14285 = {1 << 14285} divisors (cap 15)"
    assert str(exc.value) == expected


def test_legendre_equivalence_grid(table_1k):
    rng = random.Random(11)
    for z in range(2, 32):
        for x in [1, 2, rng.randrange(3, 1_000), rng.randrange(3, 1_000)]:
            assert legendre_sum(x, z, table_1k) == survivor_count(x, z, table_1k), (x, z)


def test_lpf_count_via_moebius_examples(table_1k):
    assert lpf_count_via_moebius(10, 3, table_1k) == 2
    assert lpf_count_via_moebius(10, 2, table_1k) == 5
    assert lpf_count_via_moebius(100, 7, table_1k) == 4


def test_lpf_count_via_moebius_matches_sieve(table_1k):
    rng = random.Random(23)
    primes = [p for p in table_1k.primes if p < 31]
    for _ in range(20):
        x = rng.randrange(1, 50_000)
        for p in primes:
            assert lpf_count_via_moebius(x, p, table_1k) == count_lpf(x, p, table_1k)


def test_frac_remainder_examples(table_1k):
    assert frac_remainder_sum(16, 4, table_1k) == Fraction(-1, 3)
    assert frac_remainder_sum(6, 3, table_1k) == 0
    assert frac_remainder_sum(30, 6, table_1k) == 0


def test_frac_remainder_exact_identity(table_1k):
    rng = random.Random(5)
    for _ in range(30):
        x = rng.randrange(1, 100_000)
        z = rng.randrange(2, 32)
        lhs = survivor_count(x, z, table_1k) - x * mertens_product(z, table_1k)
        assert lhs == frac_remainder_sum(x, z, table_1k), (x, z)


def test_frac_bound_b3_examples(table_1k):
    assert frac_bound_b3(16, 4, table_1k) == Fraction(1, 6)
    for k in range(1, 12):
        assert frac_bound_b3(2**k, 3, table_1k) == 0
    assert frac_bound_b3(10, 6, table_1k) == Fraction(1, 6)


def test_frac_bound_b3_range(table_1k):
    rng = random.Random(3)
    for _ in range(40):
        x = rng.randrange(1, 100_000)
        z = rng.randrange(2, 200)
        b = frac_bound_b3(x, z, table_1k)
        assert 0 <= b < max(1, prime_count(z - 1, table_1k)), (x, z)
        assert b < prime_count(z - 1, table_1k) or z == 2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(x=st.integers(1, 50_000), z=st.integers(2, 31))
def test_legendre_equivalence_property(x, z):
    assert legendre_sum(x, z, _TABLE) == survivor_count(x, z, _TABLE)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(x=st.integers(1, 20_000), z=st.integers(2, 24))
def test_remainder_identity_property(x, z):
    err = survivor_count(x, z, _TABLE) - x * mertens_product(z, _TABLE)
    assert err == frac_remainder_sum(x, z, _TABLE)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(x=st.integers(1, 10**9), z=st.integers(2, 400))
def test_common_denominator_routes_match_fraction_loops(x, z):
    assert frac_bound_b3(x, z, _TABLE) == oracles.frac_bound_b3(x, z)
    assert mertens_product(z, _TABLE) == oracles.mertens_product(z)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(x=st.integers(1, 10**9), z=st.integers(2, 30))
def test_frac_remainder_common_denominator_matches_fraction_loop(x, z):
    assert frac_remainder_sum(x, z, _TABLE) == oracles.frac_remainder_sum(x, z)


_TABLE = build_prime_table(1_000)
