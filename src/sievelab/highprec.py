"""High-precision real arithmetic on top of the stdlib decimal module.

This module is the single place where exact quantities, Fractions and the
density table's DecimalRatios, are lowered to decimals for ratio columns,
report rendering and the harmonic chain's near-tie comparisons (the chain
compares correctly rounded floats where its sides are far apart).  The
working precision (60 significant digits, the WORKING context) comfortably
exceeds the 50 digits the comparisons need.

Every lowering is one WORKING.divide, decimal's own rounding, and no
function here takes a precision.  A DecimalRatio is divided as it stands.  A
fraction n/d is first cut with integer arithmetic: one divmod of n scaled by
a power of ten against d gives a quotient of at least WORKING_PREC + 1
digits, and a nonzero remainder becomes a sticky half unit past its last
digit, which rounds as the remainder would (Goldberg's guard and sticky
digits).  No numerator or denominator (thousands of digits for a harmonic
number or a primorial) is ever converted to a Decimal, and the result equals
Decimal(n) / Decimal(d) in the WORKING context, exponent included: 1/4 gives
0.25 and 6/2 gives 3.

ln_decimal takes ln n in integer fixed point, by square roots and the atanh
series, and lets decimal round the two ends of its error interval; where
they round apart it takes decimal's own ln, to the same Decimal.

Reports render from the 60-digit value rounded again to 30 digits rather
than from the fraction rounded once; the two differ where the 60-digit value
lands on a 30-digit tie, and the report bytes are defined by the double
rounding.

Ints of any size are written in decimal by int_to_str: str() below about
3900 digits, and past that (where Python's 4300-digit limit would refuse
str()) by divide and conquer through exact Decimal arithmetic, as CPython
3.12's _pylong.int_to_decimal_string does.
"""

from decimal import (
    MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, DivisionByZero, Inexact,
    InvalidOperation, Overflow, localcontext,
)
from fractions import Fraction
from math import isqrt

WORKING_PREC = 60
RENDER_DIGITS = 30

# Unrounded integer arithmetic: any result that would need rounding raises
# instead.  An inexact division would try to allocate MAX_PREC digits and
# fail with MemoryError, so it is never asked for here: only +, -, *, //, %.
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                traps=[Inexact, InvalidOperation, DivisionByZero, Overflow])
# The working and rendering precisions, each in one context.
WORKING = Context(prec=WORKING_PREC)
_RENDER = Context(prec=RENDER_DIGITS)
# int_to_str uses str() below this many bits, at most 3914 digits, safely
# under the 4300-digit limit; str() is as fast as the split up to about 10^4
# digits and quadratic beyond.
_STR_BITS = 13_000
# The split converts pieces of at most this many bits through Decimal(int).
_PIECE_BITS = 1024
# ln_decimal's fixed point, 2^-240 (about 10^-72), and ln 2 in it, rounded.
_LN_BITS = 240
_LN2 = 1224685061431752149387114016819916847747660333428801675508466606222838699
# A bound on ln_decimal's error in those units, besides the e/2 of e * _LN2:
# its docstring derives 15359 < 2^14, and 2^20 keeps a 64-fold margin.  The
# largest error seen is 5029, over n <= 8000 and 3000 drawn n < 2^48.
_LN_ERR = 1 << 20


def fraction_to_decimal(q: Fraction) -> Decimal:
    """Round an exact rational to a Decimal with WORKING_PREC significant digits.

    |n| * 10^s / d is cut to an integer m of at least WORKING_PREC + 1
    digits, and a nonzero remainder becomes a sticky half unit: every
    rounding boundary is an integer in units of m, so WORKING.divide rounds
    (2m + sticky) / (2 * 10^s) as it would round n / d.  The result is
    Decimal(n) / Decimal(d) in WORKING, exponent included: an exact quotient
    takes decimal's ideal exponent 0 in both.
    """
    n, d = q.numerator, q.denominator
    # for n != 0, |n| / d > 2^(bits(n) - bits(d) - 1), so 10^e <= |n| / d
    e = (n.bit_length() - d.bit_length() - 1) * 30103 // 100000 - 1
    scale = 10 ** max(WORKING_PREC - e, 0)
    m, r = divmod(abs(n) * scale, d)
    half_units = 2 * m + (r != 0)
    num = Decimal(-half_units if n < 0 else half_units)
    return WORKING.divide(num, Decimal(2 * scale))


def _int_to_decimal(n: int) -> Decimal:
    """The Decimal equal to n >= 0, in time subquadratic in its digits.

    n is halved by bits, hi * 2^w + lo, until the pieces have at most
    _PIECE_BITS bits; each piece goes through Decimal(int), and the halves
    are joined exactly in EXACT, reusing each power of two.
    """
    powers: dict[int, Decimal] = {}

    def join(m: int, bits: int) -> Decimal:
        if bits <= _PIECE_BITS:
            return Decimal(m)
        w = bits >> 1
        hi = m >> w
        power = powers.get(w)
        if power is None:
            power = powers[w] = Decimal(2) ** w
        return join(hi, bits - w) * power + join(m - (hi << w), w)

    with localcontext(EXACT):
        return join(n, n.bit_length())


def int_to_str(n: int) -> str:
    """str(n) for an int of any size, without Python's int-to-str digit limit."""
    if n.bit_length() < _STR_BITS:
        return str(n)
    text = str(_int_to_decimal(abs(n)))
    return "-" + text if n < 0 else text


def ln_decimal(n: int) -> Decimal:
    """Natural logarithm of a positive integer, correctly rounded to
    WORKING_PREC significant digits: Decimal(n).ln(WORKING), exponent included.

    ln n is approximated in units of 2^-_LN_BITS.  With n = m 2^e and m in
    [1, 2), eight integer square roots take m to y < 2^(1/256), and
    ln m = 512 atanh((y - 1) / (y + 1)) by its series, whose ratio
    (y - 1) / (y + 1) < 2^-9.5 leaves at most 13 nonzero terms; e ln 2 is
    added from _LN2.  Every floor makes the approximation low: the cut of m
    when e > _LN_BITS by less than 1 unit, the roots by less than
    2 + 4 + ... + 256 = 510, and the series by less than 512 times 29 (1 for
    the ratio, 2 for each term, 2 for the tail), 14848; _LN2 is off by at
    most half a unit, e/2 in all.  So ln n lies within _LN_ERR + e units of
    the approximation, and where both ends of that interval round to the
    same WORKING_PREC digits, so does ln n, which is irrational for n > 1
    and so never a tie (Ziv 1991).  Otherwise, about once in 2^20 calls
    and always at n = 1, decimal's ln is taken.
    """
    if n <= 0:
        raise ValueError(f"ln requires a positive argument, got {n}")
    e = n.bit_length() - 1
    m = n << _LN_BITS >> e
    for _ in range(8):
        m = isqrt(m << _LN_BITS)
    one = 1 << _LN_BITS
    ratio = ((m - one) << _LN_BITS) // (m + one)
    square = ratio * ratio >> _LN_BITS
    atanh = power = ratio
    k = 1
    while power:
        power = power * square >> _LN_BITS
        k += 2
        atanh += power // k
    approx = (atanh << 9) + e * _LN2
    err = _LN_ERR + e
    low = WORKING.divide(approx - err, one)
    high = WORKING.divide(approx + err, one)
    # the same digits and exponent: an exact quotient of fewer digits differs
    if low.compare_total(high) == 0:
        return low
    return Decimal(n).ln(WORKING)


def render(value: Decimal | Fraction) -> str:
    """Deterministic decimal string with at most RENDER_DIGITS significant digits."""
    if isinstance(value, Fraction):
        value = fraction_to_decimal(value)
    return str(_RENDER.plus(value))
