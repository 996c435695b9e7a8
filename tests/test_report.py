import csv
import io
import json
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest

from sievelab.densities import DensityEntry, build_density_table
from sievelab.errorlab import ProbeRow, chebyshev_check, legendre_blowup_probe, run_sweep
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
from sievelab.highprec import WORKING, render
from sievelab.sieve import build_prime_table
from oracles import int_digit_limit_lifted, read_csv


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
# The sweep has Möbius-checked rows and remainder rows at and past the cap
# (z = 59 and 60), and the probe has cap rows without a wall time (z = 54).
_ROW_KINDS = {
    "sweep": (lambda table: [
        error_row(r) for r in run_sweep([(16, 4), (100, 10), (1000, 31), (1000, 59), (1000, 60)],
                                        table, frac_remainder=True)
    ], ERROR_COLUMNS),
    "blowup-probe": (lambda table: [
        probe_row(r) for r in legendre_blowup_probe(54, 1000, table)
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
        assert {"frac=ok", "frac=cap", "moebius=ok"} <= flags
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


def test_a_term_count_past_the_digit_limit_is_written_in_full():
    # 2^14285 has 4301 digits, one past the limit of str() and json.dumps
    rows = [probe_row(ProbeRow(14287, 1 << 14285, None, "cap"))]
    with int_digit_limit_lifted():
        expected_csv = ",".join(PROBE_COLUMNS) + f"\n14287,{1 << 14285},,cap\n"
        expected_json = json.dumps([{c: row[c] for c in PROBE_COLUMNS} for row in rows],
                                   indent=2) + "\n"
    assert format_rows(rows, PROBE_COLUMNS, "csv") == expected_csv
    assert format_rows(rows, PROBE_COLUMNS, "json") == expected_json


def _naive_density_rows(entries):
    """density_rows with str() and WORKING.divide called afresh for every field."""
    def exact(ratio):
        num, den = ratio
        return str(num) if den == 1 else f"{str(num)}/{str(den)}"

    return [{"p": e.p,
             "g_exact": exact(e.g_p), "g_dec": render(WORKING.divide(*e.g_p)),
             "partial_sum_exact": exact(e.partial_sum),
             "partial_sum_dec": render(WORKING.divide(*e.partial_sum)),
             "mertens_below_exact": exact(e.mertens_below_p),
             "mertens_below_dec": render(WORKING.divide(*e.mertens_below_p))}
            for e in entries]


def _fresh_copies(entries):
    """Each entry with new integer objects, shared within the entry as in the
    original.  The generator drops its copies at its next step, so a row's
    objects are freed once its consumer lets go of them, and their ids can
    be reused by a later row's."""
    for e in entries:
        copies = {}
        yield DensityEntry(e.p, *(
            tuple(copies.setdefault(id(n), n.copy_abs()) for n in ratio)
            for ratio in e[1:]
        ))


class _CountedDecimal(Decimal):
    """A Decimal that counts the calls of its str()."""
    texts = 0

    def __str__(self):
        _CountedDecimal.texts += 1
        return super().__str__()


def _text_count(entries):
    """The str() calls density_rows makes on a list of entries rebuilt as
    _CountedDecimals, each shared, within a row and across rows, where the
    original is."""
    copies = {}
    counted = [DensityEntry(e.p, *(
        tuple(copies.setdefault(id(n), _CountedDecimal(n)) for n in ratio) for ratio in e[1:]
    )) for e in entries]
    _CountedDecimal.texts = 0
    for _ in density_rows(counted):
        pass
    return _CountedDecimal.texts


def _check_density_rows(z, table):
    entries = list(build_density_table(z, table))
    expected = _naive_density_rows(entries)
    assert list(density_rows(entries)) == expected, z
    assert list(density_rows(_fresh_copies(entries))) == expected, z
    # each integer's text once: a, b' and b' - a' a row, and b*p where
    # gcd(p - 1, b) > 1, the rows where b*p is not b'
    assert _text_count(entries) == sum(3 + (gcd(e.p - 1, int(e.mertens_below_p[1])) > 1)
                                       for e in entries), z
    return entries


def test_density_rows_match_a_field_by_field_rendering_to_z_400():
    table = build_prime_table(400)
    for z in range(2, 401):
        entries = _check_density_rows(z, table)
    # both kinds of row: at p = 3, b = 2 shares 2 with p - 1; at p = 5, b = 3 does not
    assert entries[1].g_p[1] != entries[1].partial_sum[1]
    assert entries[2].g_p[1] == entries[2].partial_sum[1]
    assert _text_count(entries) == 262


def test_density_rows_match_a_field_by_field_rendering_past_the_digit_limit():
    # 12277 is the first prime whose row holds a rational of more than 4300 digits
    entries = _check_density_rows(12_281, build_prime_table(12_281))
    assert entries[-1].p == 12_281 and len(str(entries[-1].g_p[1])) > 4_300


def test_density_rows_make_each_integer_text_once():
    # 1522 rows at z = 12761: three texts a row, and one more in the 342
    # rows where gcd(p - 1, b) > 1
    entries = list(build_density_table(12_761, build_prime_table(12_761)))
    assert _text_count(entries) == 4_908
