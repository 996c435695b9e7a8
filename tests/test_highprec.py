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
    _PIECE_BITS, _STR_BITS, WORKING, WORKING_PREC, fraction_to_decimal, int_to_str, ln_decimal,
    render,
)
from sievelab.sieve import build_prime_table


def _same_as_division(q: Fraction) -> None:
    assert fraction_to_decimal(q).as_tuple() == oracles.fraction_to_decimal(q, WORKING_PREC).as_tuple()


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
        assert WORKING.divide(num, den).as_tuple() == fraction_to_decimal(q).as_tuple()
    g = Fraction(int(entry.g_p[0]), int(entry.g_p[1]))
    assert render(WORKING.divide(*entry.g_p)) == render(oracles.fraction_to_decimal(g, WORKING_PREC))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(0, 10**150),
    d=st.integers(1, 10**150) | st.sampled_from([1, 2, 4, 5, 8, 10, 16, 125, 10**30, 2**100]),
)
def test_decimal_quotient_equals_fraction_to_decimal(n, d):
    # a DecimalRatio's one division against the cut of the same Fraction
    q = Fraction(n, d)
    quotient = WORKING.divide(Decimal(q.numerator), Decimal(q.denominator))
    assert quotient.as_tuple() == fraction_to_decimal(q).as_tuple()


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
    # ties at the 60th digit: 10^59 + 1/2 to even, 10^59 + 3/2 up, and ties
    # broken only by a remainder 20 digits past the cut
    big = 10**59
    half = Fraction(2 * big + 1, 2)
    eps = Fraction(1, 10**80)
    cases = {half: big, half + 1: big + 2, half + eps: big + 1, half - eps: big}
    cases = {q: str(rounded) for q, rounded in cases.items()}
    # past 10^62 the numerator is not scaled at all: 10^62 + 500 is a tie in units of 1000
    tie = Fraction(10**62 + 500)
    cases[tie + Fraction(1, 10**10)] = f"1.{'0' * 58}1E+62"
    cases[tie - Fraction(1, 10**10)] = f"1.{'0' * 59}E+62"
    cases.update({-q: "-" + text for q, text in cases.items()})
    assert {q: str(fraction_to_decimal(q)) for q in cases} == cases
    for q in cases:
        _same_as_division(q)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    n=st.integers(-(10**120), 10**120),
    d=st.integers(1, 10**120) | st.sampled_from([1, 2, 4, 5, 8, 10, 16, 125, 10**30, 2**100]),
)
def test_fraction_to_decimal_matches_decimal_division(n, d):
    q = Fraction(n, d)
    _same_as_division(q)
    # symmetric in sign, exponent included: report.error_row lowers |error| by copy_abs
    assert fraction_to_decimal(q).copy_abs().as_tuple() == fraction_to_decimal(abs(q)).as_tuple()


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
