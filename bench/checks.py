"""Checks of sievelab reports, run by run.py on each job's stdout.

Exact relations that are cheap to re-check are verified with integer
cross-multiplication, so no rational is normalised twice; run.py also
compares whole reports by sha256 against the digests in reference.json.
"""

import csv
import io

from jobs import primes_to

VERIFY_DONE = "all identity families hold exactly\n"


def _ratio(text: str) -> tuple[int, int]:
    """Numerator and denominator of an exact 'a/b' or 'a' column."""
    num, _, den = text.partition("/")
    return int(num), int(den or 1)


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _check_sweep(argv, rows):
    if [int(r["x"]) for r in rows] != sorted(int(x) for x in _flag(argv, "--x").split(",")):
        return "rows do not match the x grid"
    for r in rows:
        survivors = int(r["survivors"])
        main_num, main_den = _ratio(r["main_term_exact"])
        err_num, err_den = _ratio(r["error_exact"])
        if err_num * main_den != (survivors * main_den - main_num) * err_den:
            return f"error_exact != survivors - main_term_exact at x={r['x']}"
        if "--frac" in argv:
            if not r["frac_remainder_exact"]:
                return f"frac_remainder_exact missing at x={r['x']}"
            frac_num, frac_den = _ratio(r["frac_remainder_exact"])
            if frac_num * err_den != err_num * frac_den:
                return f"frac_remainder_exact != error_exact at x={r['x']}"
    return None


def _check_density(argv, rows):
    if [int(r["p"]) for r in rows] != primes_to(int(_flag(argv, "--z"))):
        return "rows are not the primes <= z"
    for r in rows:
        p = int(r["p"])
        part_num, part_den = _ratio(r["partial_sum_exact"])
        below_num, below_den = _ratio(r["mertens_below_exact"])
        # partial_sum == 1 - mertens_below * (1 - 1/p)
        if part_num * below_den * p != part_den * (below_den * p - below_num * (p - 1)):
            return f"partial_sum != 1 - mertens_below*(1 - 1/p) at p={p}"
    return None


def _check_chebyshev(argv, rows):
    if int(rows[-1]["x"]) != int(_flag(argv, "--x-max")):
        return "last row is not x_max"
    bad = [r["x"] for r in rows if r["holds_54"] != "true"]
    return f"holds_54 is false at x={bad[0]}" if bad else None


_CHECKS = {
    "sweep": _check_sweep,
    "density-table": _check_density,
    "chebyshev": _check_chebyshev,
}


def check_report(argv: list[str], stdout: bytes) -> str | None:
    """None when the report of job `argv` passes, else the reason it fails."""
    try:
        text = stdout.decode()
        if argv[0] == "verify-identities":
            return None if text.endswith(VERIFY_DONE) else "no final all-hold line"
        rows = list(csv.DictReader(io.StringIO(text)))
        if not rows:
            return "empty report"
        return _CHECKS[argv[0]](argv, rows)
    except (KeyError, ValueError) as exc:
        return f"malformed report: {exc!r}"
