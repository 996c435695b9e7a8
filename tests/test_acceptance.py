"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every assertion here is exact (zero tolerance) except the
two stated wall-clock budgets.
"""

import random
import time
from fractions import Fraction
from math import isqrt

import pytest

from sievelab import identities
from sievelab.cli import main
from sievelab.densities import (
    density_identity_check,
    harmonic_lower_bound_check,
    iter_density_identity,
)
from sievelab.errorlab import chebyshev_check, legendre_blowup_probe
from sievelab.moebius import frac_remainder_sum
from sievelab.sieve import build_prime_table, prime_count, sifting_primes, survivor_count
from oracles import read_csv

SEED = 1729


@pytest.fixture(scope="module")
def table_10m():
    return build_prime_table(10_000_000)


@pytest.fixture(scope="module")
def table_11k():
    return build_prime_table(11_000)


def _sample_pairs(rng: random.Random, n: int, x_max: int) -> list[tuple[int, int]]:
    """Mixed (x, z) grid: small z, sqrt regime, log-uniform z, and edge cases."""
    pairs = []
    for i in range(n):
        x = rng.randrange(1, x_max + 1) if i % 2 else int(10 ** rng.uniform(0, 7))
        x = min(x, x_max)
        mode = rng.random()
        if mode < 0.45:
            z = rng.randrange(2, min(x + 1, 64) + 1)
        elif mode < 0.75:
            z = rng.randrange(2, isqrt(x) + 3)
        elif mode < 0.95:
            z = int(2 ** rng.uniform(1, x.bit_length()))
        else:
            z = rng.choice([x, max(2, x - 1), isqrt(x) + 1])
        pairs.append((x, max(2, min(z, max(x, 2)))))
    return pairs


def _checks_run(checks) -> int:
    """Assert every (where, holds) check of a sievelab.identities family."""
    count = 0
    for where, holds in checks:
        assert holds, where
        count += 1
    return count


def test_criterion_1_partition_identity(table_10m):
    rng = random.Random(SEED)
    pairs = _sample_pairs(rng, 1000, 10_000_000)
    t0 = time.perf_counter()
    assert _checks_run(identities.partition(pairs, table_10m)) == 1000
    elapsed = time.perf_counter() - t0

    # the census classes are the count_lpf values: every class of a
    # subsample, re-derived through the per-prime recursion route
    subsample = [p for p in pairs if p[1] <= 113][:20]
    classes = sum(len(sifting_primes(table_10m, z)) for _, z in subsample)
    assert _checks_run(identities.class_recursion(subsample, table_10m)) == classes

    assert elapsed < 60, f"partition sweep took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: partition identity exact on 1000 pairs, "
          f"x <= 1e7 ({elapsed:.1f}s)")


def test_criterion_2_legendre_equivalence(table_1m):
    rng = random.Random(SEED + 2)
    xs = [rng.randrange(1, 1_000_001) for _ in range(200)]
    pairs = [(x, z) for x in xs for z in range(2, 32)]
    t0 = time.perf_counter()
    assert _checks_run(identities.legendre(pairs, table_1m)) == 6000
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"Legendre sweep took {elapsed:.1f}s"
    print(f"\nPASS criterion 2: Legendre sum = sieve count on "
          f"{len(pairs)} pairs, z in [2, 31] ({elapsed:.1f}s)")


def test_criterion_3_per_prime_moebius(table_1m):
    rng = random.Random(SEED + 3)
    xs = [rng.randrange(1, 1_000_001) for _ in range(200)]
    primes = [p for p in table_1m.primes if p < 31]
    pairs = [(x, p) for x in xs for p in primes]
    assert _checks_run(identities.per_prime(pairs, table_1m)) == 2000
    print(f"\nPASS criterion 3: per-prime Möbius identity exact on "
          f"{len(pairs)} pairs, p < 31")


def test_criterion_4_density_telescoping(table_11k):
    assert _checks_run(identities.telescoping(10_000, table_11k)) == 1229  # primes up to 1e4
    # identify the incremental rows with the pointwise operation on a sample
    rows = list(iter_density_identity(10_000, table_11k))
    sample = [rows[0], rows[3], rows[24], rows[499], rows[999], rows[-1]]
    for r, lhs, rhs, equal in sample:
        assert density_identity_check(r, table_11k) == (lhs, rhs, True), r
    print("\nPASS criterion 4: density telescoping exact at every prime r <= 1e4")


def test_criterion_5_exact_remainder(table_1m):
    rng = random.Random(SEED + 5)
    assert frac_remainder_sum(16, 4, table_1m) == Fraction(-1, 3)
    assert _checks_run(identities.remainder([(16, 4)], table_1m)) == 1

    xs = [rng.randrange(1, 1_000_001) for _ in range(100)]
    pairs = [(x, z) for x in xs for z in range(2, 32)]
    assert _checks_run(identities.remainder(pairs, table_1m)) == 3000
    print(f"\nPASS criterion 5: remainder decomposition exact on "
          f"{len(pairs)} pairs plus the worked point (16, 4) -> -1/3")


def test_criterion_6_chebyshev_inclusion(table_1m):
    worked = chebyshev_check(100, table_1m)
    assert worked.pi_x == 25
    assert survivor_count(100, worked.z_used, table_1m) == 22
    assert prime_count(10, table_1m) == 4
    assert worked.s_plus_pi_z == 26 and worked.holds_54

    rng = random.Random(SEED + 6)
    grid = [10**k for k in range(2, 7)]
    grid += [rng.randrange(2, 1_000_001) for _ in range(500)]
    for x in grid:
        rec = chebyshev_check(x, table_1m)
        assert rec.holds_54, x
        assert rec.pi_x <= rec.s_plus_pi_z, x
    print(f"\nPASS criterion 6: prime-count inclusion exact on decade grid "
          f"plus {len(grid) - 5} random x <= 1e6")


def test_criterion_7_harmonic_chain(table_11k):
    assert _checks_run(identities.harmonic(10_000, table_11k)) == 9999  # z in [2, 1e4]
    for z in (3, 10, 100, 1000, 9973, 10_000):
        assert harmonic_lower_bound_check(z, table_11k).ordered, z
    print("\nPASS criterion 7: harmonic chain strictly ordered for all z in [3, 1e4]")


def test_criterion_8_sweep_report_artifact(capsys, tmp_path):
    argv = ["sweep", "--x", "pow10:2..8", "--z", "sqrt"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second, "sweep output is not byte-deterministic"

    out_file = tmp_path / "sweep.csv"
    assert main(list(argv) + ["--out", str(out_file)]) == 0
    capsys.readouterr()
    assert out_file.read_text() == first

    rows = read_csv(first)
    assert [int(r["x"]) for r in rows] == [10**k for k in range(2, 9)]
    for row in rows:
        assert row["ratio_error_to_pi_z"], row["x"]
        assert row["ratio_error_logx_over_x"], row["x"]
        # the ratio columns are measurements: finite, parseable, non-negative
        assert float(row["ratio_error_to_pi_z"]) >= 0
        assert float(row["ratio_error_logx_over_x"]) >= 0
    print("\nPASS criterion 8: decade sweep to 1e8 emits both ratio columns, "
          "byte-deterministic")


def test_criterion_9_performance_envelope():
    table = build_prime_table(10_000)
    t0 = time.perf_counter()
    survivors = survivor_count(10**8, 10**4, table)
    elapsed = time.perf_counter() - t0
    # 1 + pi(1e8) - pi(9999), with pi(1e8) = 5761455 (textbook value)
    assert survivors == 1 + 5_761_455 - 1_229
    assert elapsed < 10, f"survivor_count(1e8, 1e4) took {elapsed:.1f}s"

    rows = legendre_blowup_probe(31, 10**6, table)
    by_z = {r.z: r.term_count for r in rows}
    primes = set(sifting_primes(table, 32))
    for z in range(2, 32):
        assert by_z[z] == 2 ** prime_count(z - 1, table), z
        if z > 2:
            assert by_z[z] == by_z[z - 1] * (2 if (z - 1) in primes else 1), z
    print(f"\nPASS criterion 9: survivor_count(1e8, 1e4) = {survivors} in "
          f"{elapsed:.2f}s; probe term counts double exactly at each new prime")
