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
from .highprec import (
    WORKING_PREC, decimal_quotient, fraction_to_decimal, int_to_str, ln_decimal, render,
)

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


def _ratio_exact(ratio: DecimalRatio) -> str:
    """The exact text of a DecimalRatio, as str(Fraction) writes it."""
    num, den = ratio
    return str(num) if den == 1 else f"{num}/{den}"


def _ratio_dec(ratio: DecimalRatio) -> str:
    return render(decimal_quotient(*ratio))


def _ratio_error_logx_over_x(error: Fraction, x: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = WORKING_PREC
        return fraction_to_decimal(abs(error)) * ln_decimal(x) / x


def error_row(rec: ErrorRecord) -> dict[str, Any]:
    return {
        "x": rec.x,
        "z": rec.z,
        "survivors": rec.survivors,
        "main_term_exact": _exact(rec.main_term),
        "main_term_dec": render(rec.main_term),
        "error_exact": _exact(rec.error),
        "error_dec": render(rec.error),
        "pi_z": rec.pi_z,
        "log2_legendre_bound": rec.log2_legendre_bound,
        "b3_exact": _exact(rec.b3_bound),
        "b3_dec": render(rec.b3_bound),
        "frac_remainder_exact": (
            None if rec.frac_remainder is None else _exact(rec.frac_remainder)
        ),
        "ratio_error_to_pi_z": render(rec.ratio_error_to_pi_z),
        "ratio_error_logx_over_x": render(_ratio_error_logx_over_x(rec.error, rec.x)),
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
    """One row per entry, made as the row is asked for."""
    for e in entries:
        yield {
            "p": e.p,
            "g_exact": _ratio_exact(e.g_p),
            "g_dec": _ratio_dec(e.g_p),
            "partial_sum_exact": _ratio_exact(e.partial_sum),
            "partial_sum_dec": _ratio_dec(e.partial_sum),
            "mertens_below_exact": _ratio_exact(e.mertens_below_p),
            "mertens_below_dec": _ratio_dec(e.mertens_below_p),
        }


def write_rows(rows: Iterable[dict[str, Any]], columns: Sequence[str], fmt: str,
               out: TextIO) -> None:
    """Write the report to `out` one row at a time, as `rows` yields them:
    CSV with a header line, or a JSON array of objects as json.dumps(...,
    indent=2) writes it.

    CSV fields are joined unquoted: every field is an int, an a/b fraction, a
    decimal, true/false, ;-joined flags or empty (None), so none holds a
    comma, a quote or a line break.
    """
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
        last = len(columns) - 1
        for row in rows:
            # field by field: no copy of a whole row, which in a large
            # density table runs to tens of kilobytes, is made
            for i, c in enumerate(columns):
                if row[c] is not None:
                    out.write(str(row[c]))
                out.write("\n" if i == last else ",")
    elif fmt == "json":
        out.write("[")
        empty = True
        for row in rows:
            # each object indented one level, as an element of the array
            text = json.dumps({c: row[c] for c in columns}, indent=2).replace("\n", "\n  ")
            out.write(("\n  " if empty else ",\n  ") + text)
            empty = False
        out.write("]\n" if empty else "\n]\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def format_rows(rows: Iterable[dict[str, Any]], columns: Sequence[str], fmt: str) -> str:
    """The report text that write_rows writes."""
    buf = io.StringIO()
    write_rows(rows, columns, fmt, buf)
    return buf.getvalue()
