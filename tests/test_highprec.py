import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sievelab import highprec
from sievelab.densities import build_density_table
from sievelab.highprec import (
    _PIECE_BITS, _STR_BITS, WORKING_PREC, decimal_quotient, fraction_to_decimal, int_to_str,
    ln_decimal, render,
)
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
    entry = list(build_density_table(5000, build_prime_table(5000)))[-1]
    for num, den in (entry.g_p, entry.partial_sum, entry.mertens_below_p):
        q = Fraction(int(num), int(den))
        _same_as_division(q)
        assert decimal_quotient(num, den).as_tuple() == fraction_to_decimal(q).as_tuple()
    g = Fraction(int(entry.g_p[0]), int(entry.g_p[1]))
    assert render(decimal_quotient(*entry.g_p)) == render(oracles.fraction_to_decimal(g, WORKING_PREC))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(0, 10**150),
    d=st.integers(1, 10**150) | st.sampled_from([1, 2, 4, 5, 8, 10, 16, 125, 10**30, 2**100]),
    prec=st.sampled_from([1, 2, 30, WORKING_PREC]),
)
def test_decimal_quotient_equals_fraction_to_decimal(n, d, prec):
    q = Fraction(n, d)
    quotient = decimal_quotient(Decimal(q.numerator), Decimal(q.denominator), prec)
    assert quotient.as_tuple() == fraction_to_decimal(q, prec).as_tuple()


def _int_to_str_cases() -> list[int]:
    """0, +-1, and ints of every bit length around the str() cut-over, the
    piece size and the splits above it: random ones, powers of two (all-zero
    low pieces), 2^k - 1 (all-one pieces) and powers of ten."""
    rng = random.Random(14)
    bits = {1, 2, _PIECE_BITS - 1, _PIECE_BITS, _PIECE_BITS + 1}
    for base in (_STR_BITS, 16 * _PIECE_BITS, 32 * _PIECE_BITS, 3 * _STR_BITS):
        bits.update(range(base - 2, base + 3))
    cases = [0, 1]
    for b in sorted(bits):
        cases += [rng.getrandbits(b) | 1 << (b - 1), 1 << b, (1 << b) - 1, 10 ** (b * 3 // 10)]
    return cases + [-n for n in cases]


def test_int_to_str_equals_str():
    cases = _int_to_str_cases()
    if hasattr(sys, "get_int_max_str_digits"):
        # str() itself refuses the largest of them
        with pytest.raises(ValueError):
            str(1 << (3 * _STR_BITS))
    texts = [int_to_str(n) for n in cases]
    with oracles.int_digit_limit_lifted():
        assert texts == [str(n) for n in cases]


def test_halfway_cases_round_to_even():
    # 0.5, 1.5, 2.5 and 3.5 at one digit
    assert [str(fraction_to_decimal(Fraction(k, 2), 1)) for k in (1, 3, 5, 7)] == [
        "0.5", "2", "2", "4"
    ]
    assert str(fraction_to_decimal(Fraction(25, 1000), 1)) == "0.02"
    assert str(fraction_to_decimal(Fraction(35, 1000), 1)) == "0.04"
    # ties at the rounding digit broken only by a remainder far past the cut,
    # the second pair with no scaling of the numerator at all
    near_ties = {
        Fraction(25 * 10**70 + 1, 10**73): "0.03",
        Fraction(25 * 10**70 - 1, 10**73): "0.02",
        Fraction(-(25 * 10**70 + 1), 10**73): "-0.03",
        Fraction(25 * 10**80 + 1, 10**10): "3E+71",
        Fraction(25 * 10**80 - 1, 10**10): "2E+71",
        Fraction(-(25 * 10**80 + 1), 10**10): "-3E+71",
    }
    assert {q: str(fraction_to_decimal(q, 1)) for q in near_ties} == near_ties
    for q in near_ties:
        _same_as_division(q, 1)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    n=st.integers(-(10**120), 10**120),
    d=st.integers(1, 10**120) | st.sampled_from([1, 2, 4, 5, 8, 10, 16, 125, 10**30, 2**100]),
    prec=st.sampled_from([1, 2, 30, WORKING_PREC]),
)
def test_fraction_to_decimal_matches_decimal_division(n, d, prec):
    q = Fraction(n, d)
    _same_as_division(q, prec)
    # symmetric in sign, exponent included: report.error_row lowers |error| by copy_abs
    assert fraction_to_decimal(q, prec).copy_abs().as_tuple() == (
        fraction_to_decimal(abs(q), prec).as_tuple()
    )


def _same_as_ln(n: int) -> None:
    got, expected = ln_decimal(n), oracles.ln(n, WORKING_PREC)
    assert (str(got), got.as_tuple()) == (str(expected), expected.as_tuple()), n


def test_ln_decimal_is_decimals_ln():
    # every n to 20000, powers of 2 and 10 and their neighbours, where the
    # fixed point's mantissa is 1 or next to it, and the integers next to e^k
    cases = list(range(1, 20001))
    cases += [2**k + d for k in range(49) for d in (-1, 0, 1)]
    cases += [10**k + d for k in range(15) for d in (-1, 0, 1)]
    cases += [n for k in range(1, 34) for n in oracles.exp_neighbours(k)]
    for n in cases:
        if n > 0:
            _same_as_ln(n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 2**48 - 1))
def test_ln_decimal_is_decimals_ln_property(n):
    _same_as_ln(n)


def test_ln_decimal_falls_back_to_decimals_ln_where_the_roundings_differ(monkeypatch):
    # an error bound of ten in value: the two ends of the interval round apart
    monkeypatch.setattr(highprec, "_LN_ERR", 10 << highprec._LN_BITS)
    for n in (1, 2, 3, 1000, 214643579785916, 2**48 - 1):
        _same_as_ln(n)


def test_the_fixed_point_ln_2_is_ln_2_rounded():
    # in a 100-digit context: the default 28 digits would round the product
    with localcontext() as ctx:
        ctx.prec = 100
        scaled = Decimal(2).ln() * 2**highprec._LN_BITS
        assert highprec._LN2 == int(scaled.to_integral_value())
