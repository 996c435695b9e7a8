import random
from fractions import Fraction
from math import isqrt

import pytest

from sievelab.cli import main
from sievelab.errorlab import (
    ChebyshevRecord,
    chebyshev_check,
    evaluate_point,
    legendre_blowup_probe,
    run_sweep,
)
from sievelab.report import error_row
from sievelab.sieve import lpf_census, prime_count, sifting_primes
from oracles import read_csv


def test_evaluate_point_worked_example(table_1k):
    rec = evaluate_point(16, 4, table_1k, frac_remainder=True)
    assert rec.survivors == 5
    assert rec.main_term == Fraction(16, 3)
    assert rec.error == Fraction(-1, 3)
    assert rec.pi_z == 2
    assert rec.log2_legendre_bound == 2
    assert rec.b3_bound == Fraction(1, 6)
    assert rec.frac_remainder == Fraction(-1, 3)
    assert set(rec.flags) == {"frac=ok", "moebius=ok"}
    assert error_row(rec)["ratio_error_to_pi_z"].startswith("0.1666666")
    assert 0 <= rec.b3_bound < rec.pi_z


def test_evaluate_point_second_example(table_1k):
    rec = evaluate_point(100, 10, table_1k)
    assert rec.survivors == 22
    assert rec.main_term == Fraction(160, 7)
    assert rec.error == Fraction(-6, 7)


def test_evaluate_point_trivial_z(table_1k):
    for x in (2, 17, 400):
        rec = evaluate_point(x, 2, table_1k)
        assert rec.survivors == x
        assert rec.main_term == x
        assert rec.error == 0
        assert error_row(rec)["ratio_error_to_pi_z"] == "0"


def test_evaluate_point_partition_coherence(table_1k):
    rng = random.Random(77)
    for _ in range(10):
        x = rng.randrange(4, 50_000)
        z = rng.randrange(2, 500)
        if z > x:
            z = x
        rec = evaluate_point(x, z, table_1k)
        census = lpf_census(x, z, table_1k)
        assert rec.survivors == x - sum(n for _, n in census.counts)


def test_evaluate_point_cap_markers(table_1k):
    # the remainder enumerates the primes below the largest sifting prime: 15
    # at z = 59, 16 at z = 60.  The Möbius check runs only to z = 31, 10
    # primes, so it never meets the cap.
    rec = evaluate_point(1000, 59, table_1k, frac_remainder=True)
    assert rec.flags == ("frac=ok",)
    rec = evaluate_point(1000, 60, table_1k, frac_remainder=True)
    assert rec.frac_remainder is None
    assert rec.flags == ("frac=cap",)
    assert rec.b3_bound is not None  # no cap applies to the prime-indexed bound


def test_evaluate_point_rejects_bad_z(table_1k):
    with pytest.raises(ValueError):
        evaluate_point(10, 11, table_1k)
    with pytest.raises(ValueError):
        evaluate_point(10, 1, table_1k)


def _sweep_points(capsys, *argv):
    """(exit code, [(x, z)] of the report, stderr) of a CSV sweep run."""
    code = main(["sweep", *argv])
    captured = capsys.readouterr()
    rows = read_csv(captured.out) if captured.out else []
    return code, [(int(r["x"]), int(r["z"])) for r in rows], captured.err


def test_sweep_config_rules(capsys):
    # the sweep plan sorts x and applies the z rule to each point
    assert _sweep_points(capsys, "--x", "100,16", "--z", "sqrt")[:2] == (0, [(16, 4), (100, 10)])
    assert _sweep_points(capsys, "--x", "1000", "--z", "fixed:31")[:2] == (0, [(1000, 31)])
    assert _sweep_points(capsys, "--x", "100,1000000", "--z", "logx")[:2] == (
        0, [(100, 4), (10**6, 13)])


def test_sweep_config_rejects_invalid_points(capsys):
    for argv, message in (
        (("--x", "16", "--z", "fixed:17"), "violates 2 <= z <= x: x=16, z=17"),
        (("--x", "1", "--z", "sqrt"), "sweep point x=1 is below 2"),
        (("--x", "16", "--z", "nope"), "configuration error"),
    ):
        code, points, err = _sweep_points(capsys, *argv)
        assert (code, points) == (2, [])
        assert message in err


def test_run_sweep_decades(table_1k):
    points = [(10**k, isqrt(10**k)) for k in range(2, 7)]
    records = run_sweep(points, table_1k, frac_remainder=True)
    assert [r.x for r in records] == [10**k for k in range(2, 7)]
    assert [r.z for r in records] == [10, 31, 100, 316, 1000]
    for r in records:
        if r.frac_remainder is not None:
            assert r.frac_remainder == r.error
    # frac within caps for the first two points only
    assert records[0].frac_remainder is not None
    assert records[1].frac_remainder is not None
    assert records[2].frac_remainder is None


def test_run_sweep_single_point_matches_evaluate(table_1k):
    assert run_sweep([(16, 4)], table_1k, frac_remainder=True) == [
        evaluate_point(16, 4, table_1k, frac_remainder=True)
    ]


def test_run_sweep_powers_of_two(table_100k):
    points = [(2**k, isqrt(2**k)) for k in range(4, 21)]
    records = run_sweep(points, table_100k)
    assert len(records) == 17
    assert records == run_sweep(points, table_100k)  # deterministic


def test_chebyshev_worked_examples(table_1k):
    rec = chebyshev_check(100, table_1k)
    assert rec == ChebyshevRecord(
        x=100,
        z_used=11,
        pi_x=25,
        s_plus_pi_z=26,
        mertens_upper=rec.mertens_upper,
        holds_54=True,
        holds_53=rec.holds_53,
    )
    assert rec.s_plus_pi_z == 22 + 4
    assert str(rec.mertens_upper).startswith("43.42944")  # 100 / log 10

    rec = chebyshev_check(4, table_1k)
    assert rec.z_used == 3
    assert rec.pi_x == 2
    assert rec.s_plus_pi_z == 2 + 1
    assert rec.holds_54

    rec = chebyshev_check(2, table_1k)
    assert rec.z_used == 2
    assert rec.pi_x == 1
    assert rec.s_plus_pi_z == 2
    assert rec.holds_54


def test_chebyshev_random_points(table_100k):
    rng = random.Random(13)
    for _ in range(50):
        x = rng.randrange(2, 100_000)
        rec = chebyshev_check(x, table_100k)
        assert rec.holds_54, x
        # the inclusion is exact: survivors = pi(x) - pi(z-1) + 1
        assert rec.s_plus_pi_z == rec.pi_x + 1, x


def test_blowup_probe_term_counts(table_1k):
    rows = legendre_blowup_probe(6, 1000, table_1k)
    assert [(r.z, r.term_count) for r in rows] == [
        (2, 1), (3, 2), (4, 4), (5, 4), (6, 8),
    ]
    assert all(r.status == "ok" and r.wall_time is not None for r in rows)

    rows = legendre_blowup_probe(31, 1000, table_1k)
    assert rows[-1].term_count == 1024

    rows = legendre_blowup_probe(2, 1000, table_1k)
    assert [(r.z, r.term_count) for r in rows] == [(2, 1)]


def test_blowup_probe_doubles_exactly_at_primes(table_1k):
    rows = legendre_blowup_probe(31, 10_000, table_1k)
    by_z = {r.z: r.term_count for r in rows}
    for z in range(3, 32):
        ratio = by_z[z] // by_z[z - 1]
        assert ratio == (2 if (z - 1) in sifting_primes(table_1k, 32) else 1)
        assert by_z[z] == 2 ** prime_count(z - 1, table_1k)


def test_blowup_probe_records_cap_rows(table_1k):
    rows = legendre_blowup_probe(54, 1000, table_1k)
    capped = [r for r in rows if r.status == "cap"]
    assert capped and all(r.wall_time is None for r in capped)
    assert capped[0].z == 54  # sixteen sifting primes first needed at z = 54
    assert capped[0].term_count == 65536
