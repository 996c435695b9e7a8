import random
import sys
import tracemalloc
from bisect import bisect_right
from math import isqrt
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sievelab import sieve
from sievelab.cli import _chebyshev_grid
from sievelab.errors import ResourceLimitError
from sievelab.sieve import (
    build_prime_table,
    count_lpf,
    lpf_census,
    prime_count,
    prime_counts,
    sifting_primes,
    survivor_count,
)


def test_build_prime_table_examples():
    assert build_prime_table(1).primes == ()
    assert build_prime_table(10).primes == (2, 3, 5, 7)
    assert len(build_prime_table(100).primes) == 25


def test_prime_table_matches_trial_division_oracle():
    table = build_prime_table(10_000)
    assert list(table.primes) == oracles.primes_upto(10_000)
    # every small limit: the edges at 2, 3 and 4 and each odd square
    for n in range(1, 401):
        assert build_prime_table(n).primes == tuple(oracles.primes_upto(n)), n


def test_prime_table_sorted_strictly(table_100k):
    ps = table_100k.primes
    assert all(a < b for a, b in zip(ps, ps[1:]))
    assert ps[0] == 2


def test_build_prime_table_rejects_bad_limit():
    with pytest.raises(ValueError):
        build_prime_table(0)
    # refused before the memory estimate turns the limit into a float
    with pytest.raises(ResourceLimitError, match="prime table limit"):
        build_prime_table(10**310)


def test_build_prime_table_memory_budget(monkeypatch):
    monkeypatch.setenv("SIEVELAB_MEMORY_BUDGET", "100")
    with pytest.raises(ResourceLimitError):
        build_prime_table(10_000)


def test_build_prime_table_budget_counts_the_prime_tuple(monkeypatch):
    # 2 MB covers the odd flags (0.5 MB) but not the 78498 primes as ints
    monkeypatch.setenv("SIEVELAB_MEMORY_BUDGET", str(2 * 10**6))
    with pytest.raises(ResourceLimitError):
        build_prime_table(10**6)
    monkeypatch.setenv("SIEVELAB_MEMORY_BUDGET", str(4 * 10**6))
    assert len(build_prime_table(10**6).primes) == 78498


def test_memory_budget_env_override(monkeypatch):
    monkeypatch.setenv("SIEVELAB_MEMORY_BUDGET", "100")
    with pytest.raises(ResourceLimitError):
        build_prime_table(10_000)
    # unset, the budget is the 1 GiB default
    monkeypatch.delenv("SIEVELAB_MEMORY_BUDGET")
    assert build_prime_table(10_000).primes[0] == 2


def test_prime_count_examples(table_1k):
    assert prime_count(10, table_1k) == 4
    assert prime_count(100, table_1k) == 25
    assert prime_count(1, table_1k) == 0


def test_prime_count_out_of_range(table_1k):
    with pytest.raises(ValueError):
        prime_count(1_001, table_1k)


def test_sifting_primes_strict(table_1k):
    assert sifting_primes(table_1k, 2) == ()
    assert sifting_primes(table_1k, 3) == (2,)
    assert sifting_primes(table_1k, 8) == (2, 3, 5, 7)
    # z itself is never a sifting prime
    assert sifting_primes(table_1k, 7) == (2, 3, 5)


def test_lpf_census_examples(table_1k):
    c = lpf_census(10, 4, table_1k)
    assert dict(c.counts) == {2: 5, 3: 2}
    assert c.survivors == 3

    c = lpf_census(16, 4, table_1k)
    assert dict(c.counts) == {2: 8, 3: 3}
    assert c.survivors == 5

    c = lpf_census(5, 2, table_1k)
    assert c.counts == []
    assert c.survivors == 5


def test_lpf_census_against_oracle(table_1k):
    for x, z in [(1, 2), (2, 3), (30, 6), (100, 11), (97, 97), (500, 23), (1000, 1000)]:
        counts, survivors = oracles.census(x, z)
        c = lpf_census(x, z, table_1k)
        assert dict(c.counts) == counts, (x, z)
        assert c.survivors == survivors, (x, z)


def test_lpf_census_oracle_at_1e5(table_100k):
    # slow-but-sure: classify 1..1e5 per integer by trial division
    x = 100_000
    for z in (37, 317, x):
        counts, survivors = oracles.census(x, z)
        c = lpf_census(x, z, table_100k)
        assert dict(c.counts) == counts, z
        assert c.survivors == survivors, z


def test_lpf_census_counts_zero_above_x(table_1k):
    c = lpf_census(7, 30, table_1k)
    assert dict(c.counts) == {2: 3, 3: 1, 5: 1, 7: 1, 11: 0, 13: 0, 17: 0, 19: 0, 23: 0, 29: 0}
    assert c.survivors == 1  # only 1 itself


def test_count_lpf_examples(table_1k):
    assert count_lpf(10, 2, table_1k) == 5
    assert count_lpf(100, 7, table_1k) == 4
    assert count_lpf(10**4, 7, table_1k) == 381  # main term 10^4 * 4/105 = 8000/21
    assert count_lpf(10, 11, table_1k) == 0


def test_count_lpf_rejects_composite(table_1k):
    with pytest.raises(ValueError):
        count_lpf(100, 6, table_1k)


def test_survivor_count_examples(table_1k):
    assert survivor_count(100, 10, table_1k) == 22
    assert survivor_count(30, 6, table_1k) == 8
    for x in (*range(1, 51), 64, 999):
        assert survivor_count(x, 2, table_1k) == x
        assert survivor_count(x, 3, table_1k) == (x + 1) // 2


def test_survivor_count_large_z_tail(table_1k):
    # z far above sqrt(x): survivors are 1 plus the primes in [z, x]
    assert survivor_count(100, 50, table_1k) == 11
    assert survivor_count(100, 101, table_1k) == 1
    assert survivor_count(1000, 998, table_1k) == oracles.survivors(1000, 998)


def test_partition_identity_random_grid(table_1m):
    rng = random.Random(1729)
    for _ in range(60):
        x = rng.randrange(1, 1_000_000)
        z = rng.choice(
            [2, rng.randrange(2, isqrt(x) + 3), isqrt(x) + 1, rng.randrange(2, x + 2)]
        )
        z = min(z, table_1m.limit + 1)
        c = lpf_census(x, z, table_1m)
        assert c.survivors + sum(n for _, n in c.counts) == x, (x, z)
        assert c.survivors == survivor_count(x, z, table_1m), (x, z)


def test_recursion_consistency(table_100k):
    rng = random.Random(7)
    for _ in range(25):
        x = rng.randrange(1, 100_000)
        for p in (2, 3, 13, 97):
            assert count_lpf(x, p, table_100k) == survivor_count(x // p, p, table_100k)


def test_survivor_structure_at_sqrt(table_1m):
    for x in (4, 100, 1_000, 65_536, 999_999):
        z = isqrt(x) + 1
        expected = prime_count(x, table_1m) - prime_count(z - 1, table_1m) + 1
        assert survivor_count(x, z, table_1m) == expected, x


def test_census_independent_of_segment_size(table_1k, monkeypatch):
    baseline = lpf_census(50_000, 100, table_1k)
    # sizes 1..3 put one to three odd integers in a segment
    for size in (1, 2, 3, 7, 64, 1_000, 4_096, 1 << 20):
        monkeypatch.setattr(sieve, "SEGMENT_SIZE", size)
        c = lpf_census(50_000, 100, table_1k)
        assert c.counts == baseline.counts
        assert c.survivors == baseline.survivors
        assert survivor_count(50_000, 100, table_1k) == baseline.survivors


@pytest.mark.parametrize("size", [7, 64, 1 << 20])
def test_prime_counts_match_the_full_table(table_100k, monkeypatch, size):
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", size)
    # every chebyshev grid to 2000, each from a table only to sqrt(x-max)
    for x_max in range(2, 2001):
        grid = _chebyshev_grid(x_max, "default", 3, x_max)
        table = build_prime_table(isqrt(x_max))
        assert prime_counts(grid, table) == [prime_count(x, table_100k) for x in grid], x_max
    # every end: stops inside a segment, on its last byte, and two ends
    # (2j - 1 and 2j) on one stop, at segment boundaries of both sizes
    for x_max in (13, 14, 15, 127, 128, 129, 2000):
        ends = list(range(1, x_max + 1))
        assert prime_counts(ends, table_100k) == [prime_count(x, table_100k) for x in ends]


def test_prime_counts_take_an_empty_list_and_repeated_points(table_1k):
    assert prime_counts([], table_1k) == []
    assert prime_counts([5, 5, 10], table_1k) == [3, 3, 4]
    assert prime_counts([1, 1], table_1k) == [0, 0]


def _pass_by_trial_division(x_max: int, primes: tuple[int, ...]) -> tuple[list, list]:
    """For each x <= x_max, what _sieve_pass(ends, primes, True) returns with
    ends = [1, ..., x]: (the integers <= e with no factor in `primes`, for each
    e <= x), and a list of class sizes to x for each prime, by trial division."""
    alive, unmarked, sizes, counts = 0, [], dict.fromkeys(primes, 0), []
    for n in range(1, x_max + 1):
        p = oracles.least_prime_factor(n) if n > 1 else None
        if p in sizes:
            sizes[p] += 1
        else:
            alive += 1
        unmarked.append(alive)
        counts.append(list(sizes.values()))
    return unmarked, counts


@pytest.mark.parametrize("size", [1, 2, 3, 5, 7, 1 << 20])
def test_the_pass_matches_trial_division_on_each_prime_prefix_and_stop_residue(monkeypatch, size):
    # Fewer than two primes take the closed form; from (2, 3) on the classes of
    # 2 and 3 are closed forms and 5 on sit on two lanes each.  Every stop e
    # from 1 on covers every residue mod 6, and segments of 1 to 7 bytes put
    # each lane start, p // 3 and 5p // 3, on either side of a boundary.
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", size)
    for primes in ((), (2,), (2, 3), (2, 3, 5), (2, 3, 5, 7), (2, 3, 5, 7, 11, 13)):
        unmarked, counts = _pass_by_trial_division(200, primes)
        for x in range(1, 201):
            ends = list(range(1, x + 1))
            assert sieve._sieve_pass(ends, primes, True) == (unmarked[:x], counts[x - 1]), (primes, x)
            assert sieve._sieve_pass([x], primes, False)[0] == [unmarked[x - 1]], (primes, x)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    # (x, segment size): segments of a few bytes cost a pass over the primes each
    x_size=st.one_of(
        st.tuples(st.integers(1, 3_000), st.integers(1, 7)),
        st.tuples(st.integers(1, 10**5), st.integers(8, 1 << 20)),
    ),
    z=st.integers(2, 400),
)
def test_census_matches_trial_division_at_any_segment_size_property(x_size, z):
    x, size = x_size
    counts, survivors = oracles.census(x, z)
    with patch.object(sieve, "SEGMENT_SIZE", size):
        c = lpf_census(x, z, _PROPERTY_TABLE)
        (pi_x,) = prime_counts([x], _PROPERTY_TABLE)
    assert (dict(c.counts), c.survivors) == (counts, survivors)
    assert pi_x == len(oracles.primes_upto(x))


def test_prime_counts_at_seeded_points_to_1e7():
    full = build_prime_table(10**7)
    rng = random.Random(13)
    xs = sorted({rng.randrange(2, 10**7 + 1) for _ in range(50)})
    assert prime_counts(xs, build_prime_table(isqrt(xs[-1]))) == [prime_count(x, full) for x in xs]
    assert prime_counts([10**7], build_prime_table(3162)) == [664579]


def test_census_rejects_bad_arguments(table_1k):
    with pytest.raises(ValueError):
        lpf_census(0, 4, table_1k)
    with pytest.raises(ValueError):
        lpf_census(10, 1, table_1k)
    with pytest.raises(ValueError):
        lpf_census(10, 1_002, table_1k)
    with pytest.raises(ResourceLimitError):
        survivor_count(1 << 49, 4, table_1k)


def test_survivor_count_routes_agree_at_the_threshold_and_at_1e8(table_1m, monkeypatch):
    # lpf_census sieves at every x, and survivor_count counts by one of its
    # two routes; 2^20 was once the threshold between two survivor_count routes
    for x in (2**20 - 1, 2**20, 10**8):
        for z in (2, 3, 31, isqrt(x), isqrt(x) + 1):
            assert survivor_count(x, z, table_1m) == lpf_census(x, z, table_1m).survivors, (x, z)
    # With the first m primes after the wheel sifted, x = 4^m - 1 has
    # isqrt(x) < 2^m and takes the DP, and x = 4^m takes the recursion; each
    # time the other route is replaced by one that fails.
    after_wheel = table_1m.primes[len(sieve.WHEEL_PRIMES) :]
    sides = [(4**m - d, after_wheel[m - 1] + 1, d) for m in range(5, 16) for d in (1, 0)]
    expected = [_legendre_dp(x, z, table_1m) for x, z, _ in sides]
    for (x, z, to_dp), dp in zip(sides, expected):
        monkeypatch.setattr(sieve, "_lpf_recursion" if to_dp else "_legendre_dp", _no_route)
        assert survivor_count(x, z, table_1m) == dp, (x, z)
        monkeypatch.undo()


def test_the_route_rule_reads_no_prime_table(table_1k):
    # _takes_dp holds the first 31 primes: six wheel primes and one for each
    # bit of isqrt(x) <= 2^24.  At every bit count up to the 2^48 cap, on both
    # sides of the prime it reads, it equals the rule counted from a table.
    assert sieve._FIRST_PRIMES == table_1k.primes[:31]
    for x in (4**m + d for m in range(25) for d in (-1, 0)):  # 4^24 = MAX_SIEVE_X
        r = isqrt(x)
        p = table_1k.primes[len(sieve.WHEEL_PRIMES) + r.bit_length() - 1]
        for z in (2, p, p + 1, p + 2, r, r + 1, 1001):
            m = bisect_right(table_1k.primes, min(z - 1, r)) - len(sieve.WHEEL_PRIMES)
            assert sieve._takes_dp(x, z) == (m > 0 and 2**m > r), (x, z)


def test_x_of_0_has_no_survivors_and_no_class(table_1k):
    # survivor_count's domain is x >= 0 (x = 0 takes the recursion, with no
    # primes); count_lpf reaches x // p = 0 whenever x < p
    assert survivor_count(0, 5, table_1k) == 0
    assert count_lpf(0, 3, table_1k) == count_lpf(2, 3, table_1k) == 0


def _above_sqrt(x: int, limit: int) -> list[int]:
    """Levels z, 2 <= z <= limit + 1, with z - 1 in (sqrt(x), x] or past x."""
    r = isqrt(x)
    zs = {r + 2, (r + x) // 2 + 1, x + 1, x + 2, 2 * x + 3}
    return sorted(z for z in zs if 2 <= z <= limit + 1)


@pytest.mark.parametrize("to_dp", [False, True], ids=["recursion", "dp"])
def test_sifting_primes_above_sqrt_x_count_one_integer_each(table_1m, monkeypatch, to_dp):
    # Every composite n <= x has its least prime factor at or below sqrt(x),
    # so survivor_count counts by the primes up to isqrt(x) on either route
    # and subtracts each sifting prime in (isqrt(x), x] as one integer.  Each
    # route is forced here at every (x, z).  x = 0 takes the recursion at
    # every z, with no primes and an empty wheel; the DP's domain is x >= 1.
    assert not any(sieve._takes_dp(0, z) for z in range(2, 1002))
    monkeypatch.setattr(sieve, "_takes_dp", lambda x, z: to_dp)
    for x in range(int(to_dp), 121):
        for z in _above_sqrt(x, table_1m.limit):
            expected = oracles.survivors(x, z)
            assert survivor_count(x, z, table_1m) == expected, (x, z)
            if x:
                assert lpf_census(x, z, table_1m).survivors == expected, (x, z)
    for x in (10**4, 65_537, 999_983, 10**6):
        for z in _above_sqrt(x, table_1m.limit):
            expected = lpf_census(x, z, table_1m).survivors
            assert survivor_count(x, z, table_1m) == expected, (x, z)


def test_the_budget_is_read_at_each_call_and_a_bad_one_refused_each_time(table_1k, monkeypatch):
    # each distinct value is parsed once, so a changed value must still count
    monkeypatch.setenv("SIEVELAB_MEMORY_BUDGET", "100")
    with pytest.raises(ResourceLimitError, match="budget is 100$"):
        survivor_count(600, 20, table_1k)
    monkeypatch.setenv("SIEVELAB_MEMORY_BUDGET", str(1 << 30))
    assert survivor_count(600, 20, table_1k) == lpf_census(600, 20, table_1k).survivors
    monkeypatch.setenv("SIEVELAB_MEMORY_BUDGET", "100")
    with pytest.raises(ResourceLimitError, match="budget is 100$"):
        survivor_count(600, 20, table_1k)
    monkeypatch.setenv("SIEVELAB_MEMORY_BUDGET", "abc")
    for _ in range(2):
        with pytest.raises(ValueError, match="SIEVELAB_MEMORY_BUDGET must be a positive integer"):
            survivor_count(600, 20, table_1k)


def test_dp_lists_are_held_to_the_memory_budget(table_1k, monkeypatch):
    monkeypatch.delenv("SIEVELAB_MEMORY_BUDGET", raising=False)
    # 4 (2^24 + 1) slots and ints of 40 bytes: 2.7 GB against the 1 GiB default
    with pytest.raises(ResourceLimitError, match="counting lists"):
        survivor_count(1 << 48, 1000, table_1k)


def test_the_dp_budget_covers_the_wheel_tables(table_1k, monkeypatch):
    x = 2**20  # at z = 1000 the DP counts
    expected = lpf_census(x, 1000, table_1k).survivors
    lists = 4 * (isqrt(x) + 1) * (8 + sys.getsizeof(x))
    monkeypatch.setenv("SIEVELAB_MEMORY_BUDGET", str(lists + sieve._WHEEL_TABLE_BYTES - 1))
    with pytest.raises(ResourceLimitError, match="wheel tables"):
        survivor_count(x, 1000, table_1k)
    monkeypatch.setenv("SIEVELAB_MEMORY_BUDGET", str(lists + sieve._WHEEL_TABLE_BYTES))
    assert survivor_count(x, 1000, table_1k) == expected


def _no_route(*args):
    raise AssertionError("survivor_count took the other route")


def _by_route(count, x: int, z: int, table: sieve.PrimeTable) -> int:
    """survivor_count(x, z, table) with `count` for the primes up to isqrt(x)."""
    primes = table.primes[: bisect_right(table.primes, min(z - 1, isqrt(x)))]
    singles = bisect_right(table.primes, min(z - 1, x)) - len(primes)
    return count(x, primes, min(len(primes), len(sieve.WHEEL_PRIMES))) - singles


def _legendre_dp(x: int, z: int, table: sieve.PrimeTable) -> int:
    """survivor_count's counting DP route at any x >= 1, whichever route it selects."""
    return _by_route(sieve._legendre_dp, x, z, table)


def _recursion_route(x: int, z: int, table: sieve.PrimeTable) -> int:
    """survivor_count's recursion route at any x >= 0, whichever route it selects."""
    return _by_route(sieve._lpf_recursion, x, z, table)


# survivor_count's two counting routes, each checked against the same oracles
ROUTES = (_legendre_dp, _recursion_route)


def test_legendre_dp_matches_the_oracle_on_both_sides_of_each_wheel_prime(table_1k):
    # below 13^2 = 169 there are fewer wheel rounds than z allows; z - 1 > x
    # leaves every sifting prime above x
    for route in ROUTES:
        for x in range(1, 301):
            for z in (*range(2, 19), x + 2, 2 * x + 3):
                assert route(x, z, table_1k) == oracles.survivors(x, z), (route, x, z)


@pytest.mark.parametrize("x", [2**20 - 1, 2**20, 3 * 10**6 + 1])
def test_legendre_dp_matches_the_pass_on_both_sides_of_each_wheel_prime(table_1k, x):
    for z in range(2, 19):
        expected = lpf_census(x, z, table_1k).survivors
        for route in ROUTES:
            assert route(x, z, table_1k) == expected, (route, z)


def test_legendre_dp_matches_the_pass_across_the_cube_root(table_1k):
    # The DP's rounds end at the last prime p with p^3 <= x, and each later
    # sifting prime adds one tail term.  x = p^3 - 1, p^3 and p^3 + 1 move p
    # between the rounds and the tail; p^2 (p + 2) keeps p the last round
    # and, when q = p + 2 is prime, makes the tail read x // q = p^2, the
    # first value that round changes; and every z moves the end of the tail.
    # The bound has one prime of slack: for the first prime after the rounds
    # the tail reads the values its own round would read, so p^3 < x is as
    # correct as p^3 <= x, and no test can tell the two apart.
    for p in (17, 19, 23, 29, 31, 37):
        for x in (p**3 - 1, p**3, p**3 + 1, p * p * (p + 2)):
            for z in range(2, isqrt(x) + 3):
                expected = lpf_census(x, z, table_1k).survivors
                for route in ROUTES:
                    assert route(x, z, table_1k) == expected, (route, x, z)


def test_legendre_dp_matches_the_every_k_dp_at_every_small_x(table_1k):
    # the DP holds S(x // k) only at the k prime to the wheel; the oracle at every k
    for x in range(1, 3001):
        for z in (*range(2, 20), 29, 31, isqrt(x) + 1):
            expected = oracles.counting_dp_every_k(x, z, table_1k)
            for route in ROUTES:
                assert route(x, z, table_1k) == expected, (route, x, z)


def test_legendre_dp_matches_the_every_k_dp_at_round_and_wheel_boundaries():
    # p^3 moves p between the rounds and the tail; x = 30030 m +- 1 puts x // k
    # next to a wheel period; from 30030^2 on sqrt(x) passes the period, and
    # k p and the tail primes q reach past it, to index phi(30030) = 5760 on.
    # p^2 moves p between the recursion's calls and its one bisect_right, and
    # isqrt(x) = 2^m - 1 or 2^m with the first m primes after the wheel sifted
    # puts x on either side of survivor_count's choice between the routes.
    # p^4 moves p in or out of the last round that removes integers from
    # small, the values at v <= isqrt(x).
    cases = [(p**3 + d, z) for p in range(17, 48) for d in (-1, 0, 1) for z in (p, p + 1, 60)]
    cases += [(p**4 + d, z) for p in range(17, 48) for d in (-1, 0, 1) for z in (p, p + 1, 60)]
    cases += [(p * p + d, z) for p in range(17, 48) for d in (-1, 0, 1) for z in (p, p + 1, 60)]
    after_wheel = _PI_TABLE.primes[len(sieve.WHEEL_PRIMES) :]
    for m in range(1, 16):
        cases += [(x, z) for x in (4**m - 1, 4**m) for z in (14, after_wheel[m - 1] + 1, 100)]
    for x in [30030 * m + d for m in (1, 2, 3, 29, 1000) for d in (-1, 1)]:
        cases += [(x, z) for z in (14, 17, 29, isqrt(x), isqrt(x) + 1)]
    for x in (30030**2 - 1, 30030**2, 30031**2, 2 * 30030**2 + 1):
        cases += [(x, z) for z in (17, 30030, isqrt(x) + 1)]
    for x, z in cases:
        expected = oracles.counting_dp_every_k(x, z, _PI_TABLE)
        for route in ROUTES:
            assert route(x, z, _PI_TABLE) == expected, (route, x, z)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    # about half the draws have sqrt(x) past the wheel period
    x=st.one_of(st.integers(1, 30030**2 - 1), st.integers(30030**2, 10**10)),
    z=st.integers(2, 100_001),
)
def test_legendre_dp_matches_the_every_k_dp_property(x, z):
    expected = oracles.counting_dp_every_k(x, z, _PI_TABLE)
    for route in ROUTES:
        assert route(x, z, _PI_TABLE) == expected, route


def test_the_wheel_reservation_covers_what_the_wheel_tables_hold():
    sieve._wheel_phi.cache_clear()
    tracemalloc.start()
    try:
        for a in range(len(sieve.WHEEL_PRIMES) + 1):
            sieve._wheel_phi(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= sieve._WHEEL_TABLE_BYTES


def test_the_dp_peaks_below_half_its_reservation():
    # a round sums small again from p^2 on after truncating it, so the old
    # tail is freed before the new one is made
    x, z = 10**8, 10**4 + 1
    table = build_prime_table(z)
    sieve._wheel_phi(len(sieve.WHEEL_PRIMES))  # cached before, so not in the peak
    reserved = 4 * (isqrt(x) + 1) * (8 + sys.getsizeof(x)) + sieve._WHEEL_TABLE_BYTES
    tracemalloc.start()
    try:
        _legendre_dp(x, z, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < reserved / 2


def test_the_pass_peaks_at_or_below_its_reservation(monkeypatch):
    # the segment, one lane copied out of it or made to mark it, and a count
    # per sieving prime; at 10^7 the pass crosses three segment boundaries
    reserved = []
    monkeypatch.setattr(sieve, "_reserve", lambda need, what: reserved.append(need))
    for x in (10**5, 10**6, 10**7):
        table = build_prime_table(isqrt(x) + 1)
        sieve.check_sieve_pass(x)
        need = reserved.pop()
        for run in (lambda: lpf_census(x, isqrt(x) + 1, table), lambda: prime_counts([x], table)):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= need, (x, peak, need)
    assert 10**7 - 10**7 // 2 - 10**7 // 3 + 10**7 // 6 > 3 * sieve.SEGMENT_SIZE


@pytest.mark.parametrize(
    "k, pi",
    [(6, 78498), (7, 664579), (8, 5761455), (9, 50847534), (10, 455052511)],
    ids=str,
)
def test_survivor_count_gives_the_published_pi_of_powers_of_ten(k, pi):
    # OEIS A006880; from 10^9 on sqrt(x) passes the wheel period 30030
    r = isqrt(10**k)
    assert survivor_count(10**k, r + 1, _PI_TABLE) + prime_count(r, _PI_TABLE) - 1 == pi


@settings(max_examples=60, deadline=None, derandomize=True)
@given(x=st.integers(1, 3_000), z=st.integers(2, 3_001))
def test_census_oracle_property(x, z):
    table = _PROPERTY_TABLE
    counts, survivors = oracles.census(x, z)
    c = lpf_census(x, z, table)
    assert dict(c.counts) == counts
    assert c.survivors == survivors
    assert c.survivors + sum(n for _, n in c.counts) == x


@settings(max_examples=60, deadline=None, derandomize=True)
@given(x=st.integers(1, 3_000), z=st.integers(2, 3_001))
def test_legendre_dp_oracle_property(x, z):
    # x < 17^3, so every sifting prime after the wheel is a tail term, and z
    # runs far above sqrt(x)
    for route in ROUTES:
        assert route(x, z, _PROPERTY_TABLE) == oracles.survivors(x, z), route


@settings(max_examples=60, deadline=None, derandomize=True)
@given(x=st.integers(1, 10**7), data=st.data())
def test_the_two_counting_routes_agree_on_the_same_primes(x, data):
    # both take (x, the first j primes, each <= isqrt(x), w wheel primes among
    # them) and return phi(x, j), whichever route survivor_count would select
    j = data.draw(st.integers(0, bisect_right(_PI_TABLE.primes, isqrt(x))), label="j")
    primes, w = _PI_TABLE.primes[:j], min(j, len(sieve.WHEEL_PRIMES))
    assert sieve._legendre_dp(x, primes, w) == sieve._lpf_recursion(x, primes, w)


_PROPERTY_TABLE = build_prime_table(3_000)
_PI_TABLE = build_prime_table(isqrt(10**10) + 1)
