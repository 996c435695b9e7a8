"""Flattening of records into report rows and CSV/JSON emission.

Rationals appear twice per row: as exact num/den strings (which round-trip)
and as 30-significant-digit decimal strings.  Column order is fixed so the
byte output is deterministic.
"""

import json
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Any, Iterable, Sequence

from .densities import DensityEntry
from .errorlab import ChebyshevRecord, ErrorRecord, ProbeRow
from .highprec import WORKING_PREC, fraction_to_decimal, ln_decimal, render

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


def _ratio_error_logx_over_x(error: Fraction, x: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = WORKING_PREC
        return fraction_to_decimal(abs(error)) * ln_decimal(x) / x


def error_row(rec: ErrorRecord) -> dict[str, Any]:
    return {
        "x": rec.x,
        "z": rec.z,
        "survivors": rec.survivors,
        "main_term_exact": str(rec.main_term),
        "main_term_dec": render(rec.main_term),
        "error_exact": str(rec.error),
        "error_dec": render(rec.error),
        "pi_z": rec.pi_z,
        "log2_legendre_bound": rec.log2_legendre_bound,
        "b3_exact": str(rec.b3_bound),
        "b3_dec": render(rec.b3_bound),
        "frac_remainder_exact": (
            None if rec.frac_remainder is None else str(rec.frac_remainder)
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


def density_rows(entries: list[DensityEntry]) -> list[dict[str, Any]]:
    return [
        {
            "p": e.p,
            "g_exact": str(e.g_p),
            "g_dec": render(e.g_p),
            "partial_sum_exact": str(e.partial_sum),
            "partial_sum_dec": render(e.partial_sum),
            "mertens_below_exact": str(e.mertens_below_p),
            "mertens_below_dec": render(e.mertens_below_p),
        }
        for e in entries
    ]


def format_rows(rows: Iterable[dict[str, Any]], columns: Sequence[str], fmt: str) -> str:
    """The report text: CSV with a header line, or a JSON array of objects.

    CSV fields are joined unquoted: every field is an int, an a/b fraction, a
    decimal, true/false, ;-joined flags or empty (None), so none holds a
    comma, a quote or a line break.
    """
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join("" if row[c] is None else str(row[c]) for c in columns))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps([{c: row[c] for c in columns} for row in rows], indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
