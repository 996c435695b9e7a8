"""Prime tables and exact least-prime-factor classification of [1, x].

The classifier partitions 1..x into disjoint classes: for each sifting prime
p < z, the integers whose least prime factor is p; everything left over
(1, the primes in [z, x], and composites with no factor below z) survives.
A sieve and a count compute it, and they share no counting arithmetic.
Every composite n <= x has its least prime factor at or below sqrt(x), so a
sifting prime above sqrt(x) owns one integer, itself, when it is <= x (the
cut of Legendre's pi(x) = phi(x, pi(sqrt x)) + pi(sqrt x) - 1).  All three
routes, lpf_census, survivor_count and prime_counts, sift only by the primes
up to sqrt(x) and count each larger sifting prime up to x as one integer;
lpf_census and survivor_count each count those on their own.

lpf_census sieves, and prime_counts reads pi at ascending x from one sieve
pass.  _sieve_pass is their one marking loop: fixed-size wheel-2 segments,
one byte per odd integer, marked by bytearray slices so that the hot loops
stay in C, with the class of 2 counted in closed form.

survivor_count counts phi(x, a), the integers in [1, x] with no factor among
the a sifting primes up to r = isqrt(x), by one of two exact routes that
start after the wheel primes 2, 3, 5, 7, 11 and 13: phi(v, a) = (v // P_a)
phi(P_a) + phi(v mod P_a, a) for their product P_a <= 30030 (Lehmer 1959;
Lagarias, Miller and Odlyzko 1985), read from one cached table.
_lpf_recursion removes each integer once, by its least prime factor, in at
most 2^m calls for the m sifting primes after the wheel, and holds no list.
_legendre_dp is Lucy Hedgehog's dynamic programme over the O(sqrt x) values
x // k, held only at the k prime to P_a, with Meissel's tail past the cube
root of x.  survivor_count takes the recursion when 2^m <= r, a bound on its
work, and the DP otherwise; _takes_dp states that rule from (x, z) alone.

Each route's whole contract on x is one public check, made before any work
and open to a caller before it builds a prime table: check_survivor_count
(on x and z, which choose the counting route) or check_sieve_pass.  The
memory budget is the SIEVELAB_MEMORY_BUDGET environment variable, else 1 GiB.
"""

import os
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain, compress, cycle, islice, repeat
from math import ceil, isqrt, log, prod

from .errors import ResourceLimitError
from .highprec import int_to_str

# Bytes per segment buffer, one odd integer each: 1 MiB covers about 2^21
# integers.  _sieve_pass reads it at call time, so tests can shrink it to
# force segment boundaries.
SEGMENT_SIZE = 1 << 20
# Cap on x and the prime-table limit: lpf_census sieves 10^8 integers in under
# a second, so near 2^48 a census takes weeks.  The default 1 GiB budget binds
# first on the DP's lists (near x = 4.5 10^13), so on x the cap binds only under
# a raised budget.  It keeps _prime_table_bytes' float finite (--z 10^310).
MAX_SIEVE_X = 1 << 48
DEFAULT_MEMORY_BUDGET = 1 << 30
MEMORY_BUDGET_ENV = "SIEVELAB_MEMORY_BUDGET"
# _legendre_dp makes the rounds of these primes in closed form, from one
# table of phi mod their product, 30030.  With 17 the product is 510510, and
# its table needs 4-byte entries (phi = 92160): 2 MB, built in 30 ms against
# 3 ms, for DP times within 10% of these at 2^20 to 10^8.
WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
# The _wheel_phi tables and flags for 0..6 wheel primes hold 100.2 KB
# (tracemalloc peak 100.5 KB): at most 4 bytes per residue of 30030.
_WHEEL_TABLE_BYTES = 4 * prod(WHEEL_PRIMES)
# The first 31 primes, to 127: under the 2^48 cap isqrt(x).bit_length() <= 25,
# so _takes_dp reads no prime past the 6 + 25 = 31st.
_FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
                 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127)


@cache
def _budget_bytes(text: str) -> int:
    """SIEVELAB_MEMORY_BUDGET's `text` in bytes, parsed once per text (raises are not cached)."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"{MEMORY_BUDGET_ENV} must be a positive integer of bytes, got {text!r}")
    return int(text)


def _reserve(need: int, what: str) -> None:
    """Refuse `what` when its estimated `need` in bytes exceeds the budget, read at each call."""
    budget = _budget_bytes(os.environ.get(MEMORY_BUDGET_ENV, str(DEFAULT_MEMORY_BUDGET)))
    if need > budget:
        raise ResourceLimitError(f"{what} would take about {need} bytes, budget is {budget}")


def _check_range(n: int, what: str, low: int) -> None:
    """low <= n <= MAX_SIEVE_X: a ValueError below, a ResourceLimitError above."""
    if n < low:
        raise ValueError(f"{what} must be >= {low}, got {int_to_str(n)}")
    if n > MAX_SIEVE_X:
        raise ResourceLimitError(f"{what} = {int_to_str(n)} exceeds the 2^48 sieve cap")


@dataclass(frozen=True)
class PrimeTable:
    """All primes <= limit, ascending.  Immutable once built."""

    limit: int
    primes: tuple[int, ...]


@dataclass(frozen=True)
class LpfCensus:
    """Exact class sizes for one (x, z) sieve run.

    counts lists (p, #{n <= x : lpf(n) = p}) for every prime p < z in
    ascending order; survivors counts the integers <= x with no prime factor
    below z (always including 1).
    """

    x: int
    z: int
    counts: list[tuple[int, int]]
    survivors: int


def _prime_table_bytes(limit: int) -> int:
    """Upper bound on the bytes of build_prime_table(limit): its odd flags and
    the tuple of primes it returns.

    One flag byte per odd integer, plus one tuple entry per prime: pi(x) <
    1.26 x / ln x for x > 1 (Rosser and Schoenfeld, 1962), and each entry
    costs a tuple slot and an int object no larger than `limit` (36 bytes
    below 2^30 on a 64-bit build).
    """
    if limit < 2:
        return 1
    pi_bound = ceil(1.26 * limit / log(limit))
    return (limit + 1) // 2 + pi_bound * (8 + sys.getsizeof(limit))


def build_prime_table(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes over the odd integers up to limit, plus 2.

    Refuses a limit below 1 or past MAX_SIEVE_X, and odd flags plus a tuple of
    primes that would exceed the memory budget.
    """
    _check_range(limit, "prime table limit", 1)
    _reserve(_prime_table_bytes(limit), f"prime table to {limit}")
    if limit < 2:
        return PrimeTable(limit, ())
    # flags[j] stands for the odd integer 2j + 1
    n_odd = (limit + 1) // 2
    flags = bytearray(b"\x01") * n_odd
    flags[0] = 0
    for j in range(1, (isqrt(limit) + 1) // 2):
        if flags[j]:
            p = 2 * j + 1
            start = (p * p) // 2
            flags[start::p] = bytes((n_odd - 1 - start) // p + 1)
    return PrimeTable(limit, (2, *compress(range(1, limit + 1, 2), flags)))


def prime_count(x: int, table: PrimeTable) -> int:
    """pi(x): number of primes <= x.  A table short of x is refused (reach rule)."""
    if x > table.limit:
        raise ValueError(f"prime_count({x}) needs a table to {x}, limit is {table.limit}")
    return bisect_right(table.primes, x)


def sifting_primes(table: PrimeTable, z: int) -> tuple[int, ...]:
    """The sifting set for level z: all primes strictly below z, none for z < 2."""
    if z >= 2:
        _check_sifting(z, table)
    return table.primes[: bisect_left(table.primes, z)]


def check_prime(p: int, table: PrimeTable) -> None:
    """count_lpf's and lpf_count_via_moebius' contract on p: a prime of the table."""
    i = bisect_left(table.primes, p)
    if i == len(table.primes) or table.primes[i] != p:
        raise ValueError(f"{p} is not a prime <= {table.limit}")


def _check_sifting(z: int, table: PrimeTable) -> None:
    """The sifting level survivor_count and lpf_census share: 2 <= z <= limit + 1."""
    if z < 2:
        raise ValueError(f"sifting level must be >= 2, got {z}")
    if z > table.limit + 1:
        raise ValueError(f"sifting level {z} needs a table to {z - 1}, limit is {table.limit}")


def _takes_dp(x: int, z: int) -> bool:
    """Whether survivor_count(x, z) takes the counting DP, for 0 <= x <=
    MAX_SIEVE_X: 2^m > r for the m sifting primes after the wheel up to r =
    isqrt(x), that is, the (6 + r.bit_length())-th prime is at most z - 1 and r."""
    r = isqrt(x)
    return _FIRST_PRIMES[len(WHEEL_PRIMES) + r.bit_length() - 1] <= min(z - 1, r)


def check_survivor_count(x: int, z: int) -> None:
    """survivor_count's contract on (x, z): a ValueError when x < 0, a
    ResourceLimitError when x is past MAX_SIEVE_X or what its route holds is
    past the memory budget: the wheel tables, and the DP's lists for x when
    (x, z) takes the DP.

    The DP holds a list of r + 1 ints, r = isqrt(x), and r bytes of flags,
    two lists of the k it keeps and their values (about r / 5 each with six
    wheel primes), and while a range is rebuilt its new ints and slices.
    4 (r + 1) list slots and ints no larger than x are reserved; tracemalloc
    measured a peak of 0.85, 1.78 and 1.85 of them at x = 2^19, 10^8 and
    10^9, z = isqrt(x) + 1.  The wheel tables stay cached once built, and
    are reserved on both routes so that the budget covers all the route
    holds.  The recursion holds no list.
    """
    _check_range(x, "x", 0)
    if _takes_dp(x, z):
        need = 4 * (isqrt(x) + 1) * (8 + sys.getsizeof(x)) + _WHEEL_TABLE_BYTES
        _reserve(need, f"counting lists for x = {x} and wheel tables")
    else:
        _reserve(_WHEEL_TABLE_BYTES, "wheel tables")


def check_sieve_pass(x: int) -> None:
    """lpf_census's and prime_counts' contract on x: a ValueError when x < 1, a
    ResourceLimitError past MAX_SIEVE_X or with a segment buffer past the budget."""
    _check_range(x, "x", 1)
    _reserve(min(SEGMENT_SIZE, (x + 1) // 2), "segment buffer")


def _sieve_pass(ends: list[int], primes: tuple[int, ...], want_counts: bool) -> tuple[list, list]:
    """Mark multiples of `primes` over [1, x], x = ends[-1], in wheel-2 segments.

    `ends` ascends, and `primes` is a prefix of the ascending primes, so 2
    comes first when it is not empty.  Returns (the unmarked integers <= e
    for each e in ends, per-prime counts of integers <= x whose least listed
    prime factor is primes[i]).  The class of 2 is x // 2 in closed form;
    segment byte j - lo stands for the odd integer 2j + 1, and the odd
    multiples of p sit at j = (p - 1) / 2 (mod p).  Counts of odd primes are
    only accumulated when want_counts is set.
    """
    x = ends[-1]
    counts = [0] * len(primes)
    if not primes:
        return list(ends), counts
    counts[0] = x // 2
    n_odd = (x + 1) // 2
    buffer = min(SEGMENT_SIZE, n_odd)
    # longest marking lane is the p = 3 one, at most a third of a segment
    ones = b"\x01" * ((buffer + 2) // 3 + 1)
    unmarked, found = 0, []
    # the odd integers <= e are the segment bytes below (e + 1) // 2; last first
    stops = [(e + 1) // 2 for e in reversed(ends)]
    for lo in range(0, n_odd, SEGMENT_SIZE):
        hi = min(lo + SEGMENT_SIZE, n_odd)
        length = hi - lo
        seg = bytearray(length)
        for i in range(1, len(primes)):
            p = primes[i]
            # from the index p >> 1 of p itself, the first odd multiple never
            # below p; p >> 1 < p, so a segment that starts below it starts there
            a = ((p >> 1) - lo) % p
            if a >= length:
                continue
            if want_counts:
                lane = seg[a::p]
                counts[i] += lane.count(0)
                seg[a::p] = ones[: len(lane)]
            else:
                seg[a::p] = ones[: (length - a + p - 1) // p]
        # each byte is counted once: up to each stop in the segment, then the rest
        at = 0
        while stops and stops[-1] <= hi:
            unmarked += seg.count(0, at, stops[-1] - lo)
            at = stops.pop() - lo
            found.append(unmarked)
        unmarked += seg.count(0, at)
    return found, counts


@cache
def _wheel_phi(a: int) -> tuple[int, int, array, bytearray]:
    """(P, phi(P), table, flags) for the first a wheel primes, P their product:
    flags[j] is 1 when j + 1 is prime to P, and table[m] = phi(m, a), the
    integers in [1, m] prime to P, for 0 <= m < P, so phi(v, a) = (v // P)
    phi(P) + table[v % P].  phi(P) <= 5760 fits "H"."""
    period = prod(WHEEL_PRIMES[:a])
    flags = bytearray(b"\x01") * period
    for p in WHEEL_PRIMES[:a]:
        flags[p - 1 :: p] = bytes(len(range(p - 1, period, p)))
    phi = array("H", accumulate(islice(flags, period - 1), initial=0))
    return period, prod(p - 1 for p in WHEEL_PRIMES[:a]), phi, flags


def _legendre_dp(x: int, primes: tuple[int, ...], w: int) -> int:
    """phi(x, j), j = len(primes), for x >= 1 by Lucy Hedgehog's programme,
    with `primes` and w as for _lpf_recursion: primes[i] = p, i = pi(p - 1).

    S(v) counts the integers in [2, v] that are prime or have no factor
    among the primes sifted so far, and is kept only at the values x // k:
    small[v] for v <= r = isqrt(x), and large for x // k with k <= r.  The
    first w, the wheel primes, are sifted in closed form, so S(v) starts at
    phi(v, w) - 1 + #{the first w wheel primes <= v}, phi from _wheel_phi.
    Sifting a later p removes p*m for every m in [p, v // p] with no prime
    factor below p, S(v // p) - S(p - 1) of them, from each S(v) with v >=
    p^2.  On small, while p^2 <= r, the rounds are an Eratosthenes pass over
    [1, r]: one bytearray slice removes the v <= r with least prime factor
    p, and small is summed again from p^2 on.

    large holds S(x // k) only at the k prime to P_w, the product of the
    first w wheel primes, kept in ks ascending: k sits at index phi(k, w) - 1.
    The programme reads large at k = 1 for the answer, at k = q for the tail
    primes q, and in round p at k p for a k that round updates.  q and p come
    after the wheel, so by induction every k read is prime to P_w, and the
    other k, 81% at w = 6, need not be held (Lehmer 1959; Lagarias, Miller
    and Odlyzko 1985).

    The rounds are made for the later p with p^3 <= x.  Every update of a
    round reads values of the previous round: large is rebuilt from slices
    of the old lists before small changes.  Let p_a be the last prime
    sifted, by a round or the wheel.  Each later p lowers S(x) by one term,
    S(x // p) - i: x // p < p_{a+1}^2, as p >= p_{a+1} and p_{a+1}^3 > x,
    and below p_{a+1}^2 every composite has a factor <= p_a, so S(x // p) is
    already pi(x // p) and no later round would change it; for the same reason
    S(p - 1) = pi(p - 1) = i.  At the end S(x) counts the primes <= x and
    the composites with no factor among `primes`, all <= x, so phi(x, j) =
    1 + S(x) - j.  Its memory is checked by check_survivor_count.
    """
    r = isqrt(x)
    period, phi_period, phi, flags = _wheel_phi(w)
    # S(v) = phi(v, w) + w - 1 for v at or above the w-th wheel prime, and
    # only such v are read: large holds x // k >= r, and a later round p reads
    # small from p - 1 on.  alive[v - 1] is 1 at the v <= r prime to P_w that
    # no round has removed, so small is w - 1 plus its running sum.
    c = w - 1
    alive = flags * (r // period) + flags[: r % period]
    small = list(accumulate(alive, initial=c))
    ks = list(compress(range(1, r + 1), cycle(flags)))
    large = [(v // period) * phi_period + phi[v % period] + c for k in ks for v in (x // k,)]
    # the rounds: the primes after the wheel with p^3 <= x, so p_a is primes[end - 1]
    end = bisect_right(primes, x, lo=w, key=lambda p: p * p * p)
    for p in primes[w:end]:
        below = small[p - 1]
        # x // (k p) is S at index phi(k p, w) - 1 while k p <= r, else small[(x // p) // k]
        i_mid = bisect_right(ks, r // p)
        i_max = bisect_right(ks, min(r, x // (p * p)))
        large[:i_mid] = [
            a - large[m // period * phi_period + phi[m % period] - 1] + below
            for a, m in zip(large[:i_mid], map(p.__mul__, ks[:i_mid]))
        ]
        xp = x // p
        large[i_mid:i_max] = [
            a - small[xp // k] + below for k, a in zip(ks[i_mid:i_max], large[i_mid:i_max])
        ]
        if p * p <= r:
            # the multiples of p from p^2 on still alive have least prime factor p
            alive[p * p - 1 :: p] = bytes(len(range(p * p, r + 1, p)))
            del small[p * p :]
            small += accumulate(islice(alive, p * p - 1, None), initial=small.pop())
    # the tail: pi(x // q) - pi(q - 1) for each later q
    tail = sum(large[q // period * phi_period + phi[q % period] - 1] for q in primes[end:])
    tail -= sum(range(end, len(primes)))
    return 1 + large[0] - tail - len(primes)


def _lpf_recursion(x: int, primes: tuple[int, ...], w: int) -> int:
    """phi(x, j), j = len(primes): the integers in [1, x] with no factor among
    `primes`, a prefix of the ascending primes, each <= isqrt(x), whose first
    w = min(j, 6) are wheel primes (x = 0 has none, and counts 0).
    survivor_count subtracts the sifting primes above isqrt(x).

    Each integer is removed once, by its least prime factor, so phi(v, j) =
    phi(v, w) - sum over w <= i < j of phi(v // p_i, i), the class of p_i
    (Legendre 1808), with phi(v, w) from _wheel_phi(w).  Once p_i^2 > v,
    v // p_i < p_i and the class of p_i is p_i alone if p_i <= v, so the rest
    of the sum is one bisect_right and no call is made.  A call is thus made
    for a set of primes after the wheel: at most 2^m calls for m of them,
    and no list is held.
    """
    period, phi_period, phi, _ = _wheel_phi(w)

    def count(v: int, j: int) -> int:
        left = v // period * phi_period + phi[v % period]
        for i in range(w, j):
            p = primes[i]
            if p * p > v:
                return left - (bisect_right(primes, v, i, j) - i)
            left -= count(v // p, i)
        return left

    return count(x, len(primes))


def survivor_count(x: int, z: int, table: PrimeTable) -> int:
    """Number of integers in [1, x] with no prime factor below z.

    Both routes return phi(x, a) over the a sifting primes up to r =
    isqrt(x); each sifting prime in (r, min(z - 1, x)] is one integer, and
    is subtracted here.  With m of the a after the wheel, the recursion
    (_lpf_recursion) makes at most 2^m calls; when 2^m <= r (or m <= 0) that
    is no more than the r + 1 entries the counting DP (_legendre_dp) builds
    before its first round, so it counts, and else the DP.  lpf_census is a
    route independent of either at every x.  The route is chosen by
    _takes_dp, the rule check_survivor_count reserves by, so the DP's lists
    are reserved only when the DP counts."""
    _check_sifting(z, table)
    check_survivor_count(x, z)
    primes = table.primes[: bisect_right(table.primes, min(z - 1, isqrt(x)))]
    singles = bisect_right(table.primes, min(z - 1, x), len(primes)) - len(primes)
    count = _legendre_dp if _takes_dp(x, z) else _lpf_recursion
    return count(x, primes, min(len(primes), len(WHEEL_PRIMES))) - singles


def lpf_census(x: int, z: int, table: PrimeTable) -> LpfCensus:
    """Classify [1, x] by least prime factor below z.

    The result satisfies survivors + sum(counts) == x exactly: the classes
    are disjoint and exhaustive, and 1 always survives.  A sifting prime
    above sqrt(x) is its own class when it is <= x, else its class is empty.
    """
    _check_sifting(z, table)
    check_sieve_pass(x)
    primes = table.primes[: bisect_right(table.primes, min(z - 1, isqrt(x)))]
    (unmarked,), sieved = _sieve_pass([x], primes, want_counts=True)
    tail = table.primes[len(primes) : bisect_left(table.primes, z)]
    singles = bisect_right(tail, x)
    counts = [*zip(primes, sieved), *zip(tail, chain(repeat(1, singles), repeat(0)))]
    return LpfCensus(x, z, counts, unmarked - singles)


def prime_counts(xs: list[int], table: PrimeTable) -> list[int]:
    """pi(x) for each x of xs, ascending from 1 (repeats allowed), from one
    segmented pass to xs[-1] that sieves the primes q <= r = isqrt(xs[-1]), q
    included: the integers it leaves <= x are 1 and the primes in (min(x, r), x]."""
    if not xs:
        return []
    for a, b in zip(xs, xs[1:]):
        if a > b:
            raise ValueError(f"xs must ascend, got {a} before {b}")
    check_sieve_pass(xs[0])
    check_sieve_pass(xs[-1])
    r = isqrt(xs[-1])
    if r > table.limit:
        raise ValueError(f"prime_counts to {xs[-1]} needs a table to {r}, limit is {table.limit}")
    unmarked, _ = _sieve_pass(xs, table.primes[: bisect_right(table.primes, r)], False)
    return [u - 1 + prime_count(min(x, r), table) for x, u in zip(xs, unmarked)]


def count_lpf(x: int, p: int, table: PrimeTable) -> int:
    """#{n <= x : least prime factor of n is p}.

    Evaluated through the defining recursion: multiples p*m <= x whose
    cofactor m has no prime factor below p, m = 1 included.
    """
    check_prime(p, table)
    _check_range(x, "x", 0)
    return survivor_count(x // p, p, table)

