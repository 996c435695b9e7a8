import csv
import io
import json
from decimal import Decimal
from fractions import Fraction

import pytest

from sievelab.densities import build_density_table
from sievelab.errorlab import chebyshev_check, legendre_blowup_probe, run_sweep
from sievelab.report import (
    CHEBYSHEV_COLUMNS,
    DENSITY_COLUMNS,
    ERROR_COLUMNS,
    PROBE_COLUMNS,
    chebyshev_row,
    density_rows,
    error_row,
    format_rows,
    probe_row,
    write_rows,
)
from oracles import read_csv


@pytest.fixture(scope="module")
def records(table_1k):
    return run_sweep([(16, 4), (100, 10), (1000, 31), (10**4, 100)], table_1k,
                     frac_remainder=True)


def test_error_rows_cover_schema(records):
    for rec in records:
        row = error_row(rec)
        assert list(row) == ERROR_COLUMNS


def test_csv_round_trip_exact_columns(records):
    text = format_rows([error_row(r) for r in records], ERROR_COLUMNS, "csv")
    parsed = read_csv(text)
    assert len(parsed) == len(records)
    for row, rec in zip(parsed, records):
        assert int(row["x"]) == rec.x
        assert int(row["z"]) == rec.z
        assert int(row["survivors"]) == rec.survivors
        assert Fraction(row["main_term_exact"]) == rec.main_term
        assert Fraction(row["error_exact"]) == rec.error
        assert Fraction(row["b3_exact"]) == rec.b3_bound
        if row["frac_remainder_exact"]:
            assert Fraction(row["frac_remainder_exact"]) == rec.frac_remainder
        else:
            assert rec.frac_remainder is None


def test_exact_and_decimal_renderings_agree(records):
    from decimal import localcontext

    for rec in records:
        row = error_row(rec)
        for exact_col, dec_col in [
            ("main_term_exact", "main_term_dec"),
            ("error_exact", "error_dec"),
            ("b3_exact", "b3_dec"),
        ]:
            exact = Fraction(row[exact_col])
            shown = Decimal(row[dec_col])
            # the printed decimal is the exact value rounded to 30 digits
            with localcontext() as ctx:
                ctx.prec = 60
                true_value = Decimal(exact.numerator) / Decimal(exact.denominator)
                gap = abs(true_value - shown)
            tol = Decimal(1).scaleb(shown.adjusted() - 29)
            assert gap <= tol, (exact_col, rec.x, rec.z)


def test_csv_deterministic_bytes(records):
    rows = [error_row(r) for r in records]
    a = format_rows(rows, ERROR_COLUMNS, "csv")
    b = format_rows([error_row(r) for r in records], ERROR_COLUMNS, "csv")
    assert a == b
    assert a.startswith(",".join(ERROR_COLUMNS) + "\n")


def test_json_mirrors_csv_rows(records):
    rows = [error_row(r) for r in records]
    payload = json.loads(format_rows(rows, ERROR_COLUMNS, "json"))
    assert [list(obj) for obj in payload] == [ERROR_COLUMNS] * len(rows)
    csv_rows = read_csv(format_rows(rows, ERROR_COLUMNS, "csv"))
    for obj, csv_row in zip(payload, csv_rows):
        for col in ERROR_COLUMNS:
            want = "" if obj[col] is None else str(obj[col])
            assert want == csv_row[col]


def test_empty_rows_give_header_only():
    text = format_rows([], ERROR_COLUMNS, "csv")
    assert text == ",".join(ERROR_COLUMNS) + "\n"


def test_chebyshev_rows(table_1k):
    rec = chebyshev_check(100, table_1k)
    row = chebyshev_row(rec)
    assert list(row) == CHEBYSHEV_COLUMNS
    assert row["holds_54"] == "true"
    assert row["s_plus_pi_z"] == 26


def test_unknown_format_rejected(records):
    with pytest.raises(ValueError):
        format_rows([error_row(records[0])], ERROR_COLUMNS, "xml")


# Each row kind and its columns, from the records of a 1000-wide prime table.
# With max_pi_z = 5 the sweep has ok and cap rows for both cross-checks, and
# the probe has cap rows without a wall time.
_ROW_KINDS = {
    "sweep": (lambda table: [
        error_row(r) for r in run_sweep([(16, 4), (100, 10), (1000, 31), (5000, 60)], table,
                                        frac_remainder=True, max_pi_z=5)
    ], ERROR_COLUMNS),
    "blowup-probe": (lambda table: [
        probe_row(r) for r in legendre_blowup_probe(40, 1000, table, max_pi_z=5)
    ], PROBE_COLUMNS),
    "chebyshev": (lambda table: [
        chebyshev_row(chebyshev_check(x, table)) for x in (2, 4, 16, 100, 997, 1000)
    ], CHEBYSHEV_COLUMNS),
    "density-table": (lambda table: list(density_rows(build_density_table(300, table))),
                      DENSITY_COLUMNS),
}


@pytest.mark.parametrize("kind", _ROW_KINDS)
def test_csv_matches_the_csv_module(table_1k, kind):
    build, columns = _ROW_KINDS[kind]
    rows = build(table_1k)
    if kind == "sweep":
        flags = {f for row in rows for f in row["flags"].split(";")}
        assert {"frac=ok", "frac=cap", "moebius=ok", "moebius=cap"} <= flags
        assert any(row["frac_remainder_exact"] is None for row in rows)
    if kind == "blowup-probe":
        assert any(row["wall_time_s"] is None for row in rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([row[c] for c in columns] for row in rows)
    assert format_rows(rows, columns, "csv") == buf.getvalue()


@pytest.mark.parametrize("kind", _ROW_KINDS)
def test_json_matches_json_dumps(table_1k, kind):
    build, columns = _ROW_KINDS[kind]
    rows = build(table_1k)
    for some in (rows, rows[:1], []):
        expected = json.dumps([{c: row[c] for c in columns} for row in some], indent=2) + "\n"
        assert format_rows(some, columns, "json") == expected


def test_write_rows_writes_each_row_as_it_is_made():
    columns = ["p", "q"]
    out = io.StringIO()

    def rows():
        for p in (2, 3):
            yield {"p": p, "q": None}
            # what is written so far ends with the row just made
            assert out.getvalue().endswith(f"{p},\n")

    write_rows(rows(), columns, "csv", out)
    assert out.getvalue() == "p,q\n2,\n3,\n"
