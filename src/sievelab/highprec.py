"""High-precision real arithmetic on top of the stdlib decimal module.

Exact quantities live as Fractions everywhere else in the package; this module
is the single place where they are lowered to decimals for logarithm
comparisons, ratio columns and report rendering.  The working precision (60
significant digits) comfortably exceeds the 50 digits the comparisons need.

A fraction n/d is lowered with integer arithmetic alone: one divmod of n
scaled by a power of ten against d yields the `prec`-digit quotient and its
remainder, and comparing twice the remainder with d rounds it half-even.  No
numerator or denominator (thousands of digits for a harmonic number or a
primorial) is ever converted to a Decimal.  The result equals
Decimal(n) / Decimal(d) in a `prec`-digit context, exponent included: an
exact quotient drops trailing zeros toward exponent 0, so 1/4 gives 0.25 and
6/2 gives 3.

Reports render from the 60-digit value rounded again to 30 digits rather
than from the fraction rounded once; the two differ where the 60-digit value
lands on a 30-digit tie, and the report bytes are defined by the double
rounding.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

WORKING_PREC = 60
RENDER_DIGITS = 30


def fraction_to_decimal(q: Fraction, prec: int = WORKING_PREC) -> Decimal:
    """Round an exact rational to a Decimal with `prec` significant digits."""
    n, d = q.numerator, q.denominator
    if n == 0:
        return Decimal(0)
    sign = "-" if n < 0 else ""
    n = abs(n)
    # n / d > 2^(bits(n) - bits(d) - 1), so 10^e <= n / d < 10^(e + 3) and
    # the quotient below has prec to prec + 2 digits; the excess is folded
    # into the remainder.
    e = (n.bit_length() - d.bit_length() - 1) * 30103 // 100000 - 1
    shift = prec - 1 - e
    if shift >= 0:
        digits, r = divmod(n * 10**shift, d)
    else:
        d *= 10**-shift
        digits, r = divmod(n, d)
    excess = len(str(digits)) - prec
    if excess > 0:
        scale = 10**excess
        digits, low = divmod(digits, scale)
        r += low * d
        d *= scale
        shift -= excess
    if r == 0:
        while shift > 0 and digits % 10 == 0:
            digits //= 10
            shift -= 1
    elif 2 * r > d or (2 * r == d and digits & 1):
        digits += 1
        if digits == 10**prec:
            digits //= 10
            shift -= 1
    return Decimal(f"{sign}{digits}E{-shift}")


def ln_decimal(n: int, prec: int = WORKING_PREC) -> Decimal:
    """Natural logarithm of a positive integer at `prec` significant digits."""
    if n <= 0:
        raise ValueError(f"ln requires a positive argument, got {n}")
    with localcontext() as ctx:
        ctx.prec = prec
        return Decimal(n).ln()


def render(value: Decimal | Fraction) -> str:
    """Deterministic decimal string with at most RENDER_DIGITS significant digits."""
    if isinstance(value, Fraction):
        value = fraction_to_decimal(value)
    with localcontext() as ctx:
        ctx.prec = RENDER_DIGITS
        return str(+value)
