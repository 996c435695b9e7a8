"""Flattening of records into report rows and CSV/JSON emission.

Rationals appear twice per row: as exact num/den strings (which round-trip)
and as 30-significant-digit decimal strings.  Column order is fixed so the
byte output is deterministic.  Exact strings are written for rationals of any
size, past Python's 4300-digit int-to-str limit.
"""

import io
import json
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Any, Iterable, Iterator, Sequence, TextIO

from .densities import DecimalRatio, DensityEntry
from .errorlab import ChebyshevRecord, ErrorRecord, ProbeRow
from .highprec import WORKING, fraction_to_decimal, int_to_str, ln_decimal, render

FORMATS = ("csv", "json")

ERROR_COLUMNS = [
    "x",
    "z",
    "survivors",
    "main_term_exact",
    "main_term_dec",
    "error_exact",
    "error_dec",
    "pi_z",
    "log2_legendre_bound",
    "b3_exact",
    "b3_dec",
    "frac_remainder_exact",
    "ratio_error_to_pi_z",
    "ratio_error_logx_over_x",
    "flags",
]

CHEBYSHEV_COLUMNS = [
    "x",
    "z_used",
    "pi_x",
    "s_plus_pi_z",
    "mertens_upper_dec",
    "holds_54",
    "holds_53",
]

PROBE_COLUMNS = ["z", "term_count", "wall_time_s", "status"]

DENSITY_COLUMNS = [
    "p",
    "g_exact",
    "g_dec",
    "partial_sum_exact",
    "partial_sum_dec",
    "mertens_below_exact",
    "mertens_below_dec",
]


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _exact(q: Fraction) -> str:
    """str(q), without the int-to-str digit limit."""
    num = int_to_str(q.numerator)
    return num if q.denominator == 1 else f"{num}/{int_to_str(q.denominator)}"


def _ratio_dec(ratio: DecimalRatio) -> str:
    return render(WORKING.divide(*ratio))


def _ratio_error_logx_over_x(abs_error: Decimal, x: int) -> Decimal:
    with localcontext(WORKING):
        return abs_error * ln_decimal(x) / x


def error_row(rec: ErrorRecord) -> dict[str, Any]:
    # lowered once: fraction_to_decimal is symmetric in sign, so its copy_abs
    # is the lowering of |error|
    error = fraction_to_decimal(rec.error)
    return {
        "x": rec.x,
        "z": rec.z,
        "survivors": rec.survivors,
        "main_term_exact": _exact(rec.main_term),
        "main_term_dec": render(rec.main_term),
        "error_exact": _exact(rec.error),
        "error_dec": render(error),
        "pi_z": rec.pi_z,
        "log2_legendre_bound": rec.log2_legendre_bound,
        "b3_exact": _exact(rec.b3_bound),
        "b3_dec": render(rec.b3_bound),
        "frac_remainder_exact": (
            None if rec.frac_remainder is None else _exact(rec.frac_remainder)
        ),
        "ratio_error_to_pi_z": render(abs(rec.error) / rec.pi_z),
        "ratio_error_logx_over_x": render(_ratio_error_logx_over_x(error.copy_abs(), rec.x)),
        "flags": ";".join(rec.flags),
    }


def chebyshev_row(rec: ChebyshevRecord) -> dict[str, Any]:
    return {
        "x": rec.x,
        "z_used": rec.z_used,
        "pi_x": rec.pi_x,
        "s_plus_pi_z": rec.s_plus_pi_z,
        "mertens_upper_dec": render(rec.mertens_upper),
        "holds_54": _bool(rec.holds_54),
        "holds_53": _bool(rec.holds_53),
    }


def probe_row(row: ProbeRow) -> dict[str, Any]:
    return {
        "z": row.z,
        "term_count": row.term_count,
        "wall_time_s": None if row.wall_time is None else f"{row.wall_time:.6f}",
        "status": row.status,
    }


def density_rows(entries: Iterable[DensityEntry]) -> Iterator[dict[str, Any]]:
    """One row per entry, made as the row is asked for.

    Each row takes str() of a, b' and b' - a', and of g's denominator b*p
    only where gcd(p - 1, b) > 1.  A text is reused only where two integers
    are equal by value: b*p against b', the product below's numerator
    against a, and its denominator against the last row's b'.
    """
    last_den, last_text = Decimal(1), "1"
    for e in entries:
        (a, g_den), (num, den), (below_num, below_den) = e.g_p, e.partial_sum, e.mertens_below_p
        a_text, den_text = str(a), str(den)
        g_den_text = den_text if g_den == den else str(g_den)
        below = a_text if below_num == a else str(below_num)
        if below_den != 1:
            below += "/" + (last_text if below_den == last_den else str(below_den))
        yield {
            "p": e.p,
            "g_exact": f"{a_text}/{g_den_text}",
            "g_dec": _ratio_dec(e.g_p),
            "partial_sum_exact": f"{num!s}/{den_text}",
            "partial_sum_dec": _ratio_dec(e.partial_sum),
            "mertens_below_exact": below,
            "mertens_below_dec": _ratio_dec(e.mertens_below_p),
        }
        last_den, last_text = den, den_text


def write_rows(rows: Iterable[dict[str, Any]], columns: Sequence[str], fmt: str,
               out: TextIO) -> None:
    """Write the report to `out` one row at a time, as `rows` yields them:
    CSV with a header line, or a JSON array of objects as json.dumps(...,
    indent=2) writes it.

    CSV fields are joined unquoted: every field is an int, an a/b fraction, a
    decimal, true/false, ;-joined flags or empty (None), so none holds a
    comma, a quote or a line break.  Ints of any size (a probe's term count
    2^k) are written by int_to_str, past the digit limit of str and json.
    """
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
        for row in rows:
            # one write a row: a row of a large density table is tens of
            # kilobytes, a copy that costs less than a write per field
            out.write(",".join("" if v is None else int_to_str(v) if type(v) is int else str(v)
                               for v in map(row.__getitem__, columns)) + "\n")
    elif fmt == "json":
        out.write("[")
        empty = True
        keys = [json.dumps(c) + ": " for c in columns]
        for row in rows:
            # each object indented one level, as an element of the array
            text = ",\n    ".join(k + (int_to_str(v) if type(v) is int else json.dumps(v))
                                  for k, v in zip(keys, map(row.__getitem__, columns)))
            out.write(("\n  {\n    " if empty else ",\n  {\n    ") + text + "\n  }")
            empty = False
        out.write("]\n" if empty else "\n]\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def format_rows(rows: Iterable[dict[str, Any]], columns: Sequence[str], fmt: str) -> str:
    """The report text that write_rows writes."""
    buf = io.StringIO()
    write_rows(rows, columns, fmt, buf)
    return buf.getvalue()
