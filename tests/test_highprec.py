from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sievelab.densities import build_density_table
from sievelab.highprec import WORKING_PREC, fraction_to_decimal, render
from sievelab.sieve import build_prime_table


def _same_as_division(q: Fraction, prec: int = WORKING_PREC) -> None:
    assert fraction_to_decimal(q, prec).as_tuple() == oracles.fraction_to_decimal(q, prec).as_tuple()


@pytest.mark.parametrize(
    "q, text",
    [
        (Fraction(0), "0"),
        (Fraction(-1, 3), "-0." + "3" * 60),
        (Fraction(-6, 2), "-3"),
        (Fraction(1, 4), "0.25"),
        (Fraction(6, 2), "3"),
        (Fraction(10**70), "1." + "0" * 59 + "E+70"),
        (Fraction(10**60 - 1, 10**60), "0." + "9" * 60),
    ],
)
def test_named_cases(q, text):
    assert str(fraction_to_decimal(q)) == text
    _same_as_division(q)


def test_density_table_row():
    # rationals with denominators of about 1700 digits
    entry = build_density_table(5000, build_prime_table(5000))[-1]
    for q in (entry.g_p, entry.partial_sum, entry.mertens_below_p):
        _same_as_division(q)
    assert render(entry.g_p) == render(oracles.fraction_to_decimal(entry.g_p, WORKING_PREC))


def test_halfway_cases_round_to_even():
    # 0.5, 1.5, 2.5 and 3.5 at one digit
    assert [str(fraction_to_decimal(Fraction(k, 2), 1)) for k in (1, 3, 5, 7)] == [
        "0.5", "2", "2", "4"
    ]
    assert str(fraction_to_decimal(Fraction(25, 1000), 1)) == "0.02"
    assert str(fraction_to_decimal(Fraction(35, 1000), 1)) == "0.04"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    n=st.integers(-(10**120), 10**120),
    d=st.integers(1, 10**120) | st.sampled_from([1, 2, 4, 5, 8, 10, 16, 125, 10**30, 2**100]),
    prec=st.sampled_from([1, 2, 30, WORKING_PREC]),
)
def test_fraction_to_decimal_matches_decimal_division(n, d, prec):
    _same_as_division(Fraction(n, d), prec)
