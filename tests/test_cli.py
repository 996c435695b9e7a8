import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from argparse import Namespace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from sievelab import cli, densities, errorlab, moebius, sieve
from sievelab.cli import load_config_file, main, parse_x_spec, parse_z_spec
from sievelab.errors import ResourceLimitError
import oracles
from oracles import read_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_x_spec():
    assert parse_x_spec("") == []
    assert parse_x_spec("16,32") == [16, 32]
    assert parse_x_spec("pow2:4..6") == [16, 32, 64]
    assert parse_x_spec("pow10:2..4") == [100, 1000, 10000]
    with pytest.raises(ValueError):
        parse_x_spec("pow10:2")
    for spec in ("pow10:-1..2", "pow2:-2..5"):
        with pytest.raises(ValueError, match="negative exponent"):
            parse_x_spec(spec)
    for spec in ("pow10:3..2", "pow2:5..0"):
        with pytest.raises(ValueError, match="empty range"):
            parse_x_spec(spec)
    # the last power of a range against the 2^48 cap, 10^14 < 2^48 < 10^15
    assert parse_x_spec("pow2:48..48") == [1 << 48]
    assert parse_x_spec("pow10:14..14") == [10**14]
    for spec, power in (("pow2:0..49", "2^49"), ("pow10:15..15", "10^15")):
        with pytest.raises(ResourceLimitError) as exc:
            parse_x_spec(spec)
        assert str(exc.value) == f"x = {power} exceeds the 2^48 sieve cap"
    # a decimal too long for int() is past the cap; other bad tokens stay int()'s
    with pytest.raises(ResourceLimitError, match="^x has 4401 digits, past the 2"):
        parse_x_spec("16," + "1" * 4401)
    with pytest.raises(ResourceLimitError, match="^the exponent of x has 4401 digits"):
        parse_x_spec("pow10:1.." + "1" * 4401)
    with pytest.raises(ValueError):
        parse_x_spec("16,1" + "0" * 4399 + "a")


def test_parse_z_spec():
    sqrt, logx = parse_z_spec("sqrt"), parse_z_spec("logx")
    assert [sqrt(x) for x in (2, 3, 16, 100, 10**6)] == [2, 2, 4, 10, 1000]
    assert [logx(x) for x in (2, 100, 10**6)] == [2, 4, 13]
    # floor(ln x) on either side of each e^k; a float log gave 33 at
    # floor(e^33) = 214643579785916, whose ln is 32.99999999999999969...
    for k in range(1, 34):
        below, above = oracles.exp_neighbours(k)
        assert (logx(below), logx(above)) == (max(2, k - 1), max(2, k)), k
    assert parse_z_spec("fixed:31")(1000) == 31
    assert parse_z_spec("4")(16) == 4
    with pytest.raises(ValueError):
        parse_z_spec("nope")


def test_sweep_single_point(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--x", "16", "--z", "4", "--frac")
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 1
    assert Fraction(rows[0]["error_exact"]) == Fraction(-1, 3)
    assert rows[0]["frac_remainder_exact"] == "-1/3"


def test_sweep_pow10_grid(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--x", "pow10:2..6", "--z", "sqrt")
    assert code == 0
    rows = read_csv(out)
    assert [int(r["x"]) for r in rows] == [10**k for k in range(2, 7)]
    assert [int(r["z"]) for r in rows] == [10, 31, 100, 316, 1000]


def test_sweep_orders_points_by_x(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--x", "100,16", "--z", "sqrt")
    assert code == 0
    assert [(r["x"], r["z"]) for r in read_csv(out)] == [("16", "4"), ("100", "10")]


def test_sweep_empty_grid(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--x", "")
    assert code == 0
    assert out.count("\n") == 1  # header only


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--x", "16", "--z", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["x"] == 16
    assert payload[0]["error_exact"] == "-1/3"


def test_sweep_deterministic_bytes(capsys):
    args = ("sweep", "--x", "pow10:2..5", "--z", "sqrt", "--frac")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_sweep_out_file(tmp_path, capsys):
    out_file = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "sweep", "--x", "16", "--z", "4", "--out", str(out_file))
    assert code == 0
    assert out == ""
    assert read_csv(out_file.read_text())[0]["survivors"] == "5"


def test_sweep_config_file_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("x = 16\nz = 4\nfrac = true\nformat = json\n")
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)[0]["frac_remainder_exact"] == "-1/3"

    # inline flags override the file
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--format", "csv", "--x", "100")
    assert code == 0
    rows = read_csv(out)
    assert [r["x"] for r in rows] == ["100"]


def test_config_file_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("x : 16\n")
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 2
    assert "configuration error" in err

    code, _, err = run_cli(capsys, "sweep", "--config", str(tmp_path / "missing.cfg"))
    assert code == 2


def test_sweep_invalid_point_is_config_error(capsys):
    code, _, err = run_cli(capsys, "sweep", "--x", "16", "--z", "fixed:17")
    assert code == 2
    assert "sweep point violates 2 <= z <= x: x=16, z=17" in err
    code, _, err = run_cli(capsys, "sweep", "--x", "16", "--z", "nope")
    assert code == 2
    assert "configuration error" in err


def _no_prime_table(monkeypatch):
    def no_work(limit):
        raise AssertionError("the prime table was built")

    monkeypatch.setattr(cli, "build_prime_table", no_work)


@pytest.mark.parametrize("z", ["sqrt", "logx", "fixed:3"])
@pytest.mark.parametrize("x", ["-5", "0", "1"])
def test_sweep_x_below_2_is_refused_before_its_z_rule(capsys, monkeypatch, x, z):
    _no_prime_table(monkeypatch)
    code, out, err = run_cli(capsys, "sweep", f"--x={x},16", "--z", z)
    assert (code, out) == (2, "")
    assert f"configuration error: sweep point x={x} is below 2" in err


@pytest.mark.parametrize(
    "x, env, message",
    [
        ("1000,281474976710657", {}, "x = 281474976710657 exceeds the 2^48 sieve cap"),
        ("1000000000000000", {}, "x = 1000000000000000 exceeds the 2^48 sieve cap"),
        ("1000,100000000", {"SIEVELAB_MEMORY_BUDGET": "500000"},
         "counting lists for x = 100000000"),
    ],
    ids=["cap", "cap_of_16_digits", "budget"],
)
def test_sweep_refuses_its_largest_x_before_any_point(capsys, monkeypatch, x, env, message):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    _no_prime_table(monkeypatch)
    # at z = sqrt(x) the 10^8 point takes the counting DP, whose lists the budget refuses
    code, out, err = run_cli(capsys, "sweep", "--x", x, "--z", "sqrt", "--no-moebius-check")
    assert (code, out) == (3, "")
    assert message in err


def test_a_sweep_point_on_the_recursion_route_reserves_no_dp_lists(capsys, monkeypatch):
    # at z = 18 the 10^8 point takes the recursion, which holds no list: only
    # the wheel tables are reserved, well inside the budget
    monkeypatch.setenv("SIEVELAB_MEMORY_BUDGET", "500000")
    code, out, _ = run_cli(capsys, "sweep", "--x", "1000,100000000", "--z", "18")
    assert code == 0
    assert [row["flags"] for row in read_csv(out)] == ["moebius=ok", "moebius=ok"]
    monkeypatch.setenv("SIEVELAB_MEMORY_BUDGET", "120119")  # the wheel tables' 120120 bytes
    _no_prime_table(monkeypatch)
    code, out, err = run_cli(capsys, "sweep", "--x", "1000,100000000", "--z", "18")
    assert (code, out) == (3, "")
    assert "resource cap: wheel tables would take about 120120 bytes, budget is 120119" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--x", "1000", "--z", "10"],
        ["chebyshev", "--x-max", "1000"],
        ["blowup-probe", "--z-max", "10", "--x", "1000"],
        ["density-table", "--z", "10"],
    ],
    ids=lambda argv: argv[0],
)
def test_unopenable_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch, argv):
    _no_prime_table(monkeypatch)
    path = tmp_path / "missing" / "report.csv"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert f"configuration error: [Errno 2] No such file or directory: '{path}'" in err


@pytest.mark.parametrize("z", ["sqrt", "fixed:3"])
def test_sweep_negative_exponent_exits_2(capsys, z):
    code, out, err = run_cli(capsys, "sweep", "--x", "pow10:-1..2", "--z", z)
    assert (code, out) == (2, "")
    assert "negative exponent" in err


def _config_refusal(tmp_path, capsys, monkeypatch, line):
    """stderr of a sweep whose config file sets `line`, which its flag's
    parser refuses: exit 2, before any work."""
    _no_prime_table(monkeypatch)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"x = 1000\nz = 10\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(cfg)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_sweep_config_format_is_checked_before_any_work(tmp_path, capsys, monkeypatch):
    err = _config_refusal(tmp_path, capsys, monkeypatch, "format = xml")
    assert "argument --format: invalid choice: 'xml'" in err


def test_sweep_config_switch_takes_only_a_boolean(tmp_path, capsys, monkeypatch):
    err = _config_refusal(tmp_path, capsys, monkeypatch, "frac = maybe")
    assert "argument --frac/--no-frac: ignored explicit argument 'maybe'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-identities", "--limit", "100"],
        ["sweep", "--x", "1000", "--z", "10"],
        ["blowup-probe", "--z-max", "10", "--x", "1000"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_max_pi_z_flag_exits_2_before_any_work(capsys, argv):
    # the Möbius cap is the constant moebius.MAX_PI_Z: no subcommand has the
    # flag, so any value of it is an argument error
    for value in ("-1", "5"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--max-pi-z", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --max-pi-z {value}" in captured.err


def test_negative_max_pi_z_config_key_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    # nor is it a config key, whatever its value
    _no_prime_table(monkeypatch)
    cfg = tmp_path / "sweep.cfg"
    for value in ("-1", "5"):
        cfg.write_text(f"x = 1000\nz = 10\nmax_pi_z = {value}\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert f"{cfg}:3: unknown config key 'max_pi_z'" in err


def test_verify_identities_small(capsys):
    code, out, _ = run_cli(capsys, "verify-identities", "--limit", "500")
    assert code == 0
    assert "partition" in out
    assert "density telescoping" in out
    assert out.strip().endswith("all identity families hold exactly")


def test_verify_identities_limit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify-identities", "--limit", "0")
    assert code == 0
    assert "nothing to check" in out


def test_verify_identities_limit_1e6(capsys):
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify-identities", "--limit", "1000000")
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert "all identity families hold exactly" in out
    assert elapsed < 60, f"verify-identities at 1e6 took {elapsed:.1f}s"


def test_chebyshev_default_grid(capsys):
    code, out, _ = run_cli(capsys, "chebyshev", "--x-max", "100")
    assert code == 0
    rows = read_csv(out)
    assert [int(r["x"]) for r in rows] == [4, 16, 100]
    assert all(r["holds_54"] == "true" for r in rows)


def test_chebyshev_single_row(capsys):
    code, out, _ = run_cli(capsys, "chebyshev", "--x-max", "4")
    assert code == 0
    assert len(read_csv(out)) == 1


def test_chebyshev_decade_grid(capsys):
    code, out, _ = run_cli(capsys, "chebyshev", "--x-max", "1000000", "--grid", "decade")
    assert code == 0
    rows = read_csv(out)
    assert [int(r["x"]) for r in rows] == [10**k for k in range(2, 7)]
    assert all(r["holds_54"] == "true" for r in rows)


def test_blowup_probe(capsys):
    code, out, _ = run_cli(capsys, "blowup-probe", "--z-max", "31", "--x", "1000")
    assert code == 0
    rows = read_csv(out)
    assert rows[-1]["term_count"] == "1024"
    assert rows[0]["term_count"] == "1"


def test_blowup_probe_cap_exit(capsys):
    code, out, _ = run_cli(capsys, "blowup-probe", "--z-max", "54", "--x", "1000")
    assert code == 0
    rows = read_csv(out)
    assert any(r["status"] == "cap" and r["wall_time_s"] == "" for r in rows)


def test_blowup_probe_max_pi_z_binds_past_fifteen_primes(capsys):
    code, out, _ = run_cli(capsys, "blowup-probe", "--z-max", "60", "--x", "1000")
    assert code == 0
    status = {int(r["z"]): r["status"] for r in read_csv(out)}
    # 15 sifting primes for z = 48..53, 16 at z = 54..59 and 17 at z = 60
    assert [status[z] for z in range(48, 61)] == ["ok"] * 6 + ["cap"] * 7


def test_density_table_cmd(capsys):
    code, out, _ = run_cli(capsys, "density-table", "--z", "10")
    assert code == 0
    rows = read_csv(out)
    assert [r["p"] for r in rows] == ["2", "3", "5", "7"]
    assert rows[-1]["partial_sum_exact"] == "27/35"


def _ratio(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def _most_digits(row: dict[str, str]) -> int:
    """The most digits of a numerator or denominator in the row's exact columns."""
    return max(len(part.lstrip("-")) for column, text in row.items()
               if column.endswith("_exact") for part in text.split("/"))


# The first z past Python's 4300-digit int-to-str limit, and one further out.
@pytest.mark.parametrize("z", [12_277, 13_000])
def test_density_table_past_the_int_digit_limit(capsys, z):
    code, out, err = run_cli(capsys, "density-table", "--z", str(z))
    assert (code, err) == (0, "")
    rows = read_csv(out)
    assert rows[-1]["p"] == str(max(p for p in range(z - 30, z + 1) if oracles.is_prime(p)))
    with oracles.int_digit_limit_lifted():
        for row in rows:
            p = int(row["p"])
            below = _ratio(row["mertens_below_exact"])
            assert _ratio(row["partial_sum_exact"]) == 1 - below * Fraction(p - 1, p), p
    assert _most_digits(rows[-1]) > 4_300


def test_sweep_past_the_int_digit_limit(capsys):
    # the smallest x under --z sqrt whose exact columns pass 4300 digits
    code, out, err = run_cli(capsys, "sweep", "--x", "100161993", "--z", "sqrt",
                             "--no-moebius-check")
    assert (code, err) == (0, "")
    (row,) = read_csv(out)
    assert row["z"] == "10008"
    with oracles.int_digit_limit_lifted():
        main_term, error = _ratio(row["main_term_exact"]), _ratio(row["error_exact"])
        assert error == int(row["survivors"]) - main_term
    assert _most_digits(row) > 4_300


_OUT_OF_RANGE = [
    (["chebyshev", "--random", "-3"], "argument --random: expected an integer >= 0, got '-3'"),
    (["verify-identities", "--limit", "-1"],
     "argument --limit: expected an integer >= 0, got '-1'"),
    (["chebyshev", "--x-max", "1"], "argument --x-max: expected an integer >= 2, got '1'"),
    (["density-table", "--z", "1"], "argument --z: expected an integer >= 2, got '1'"),
    (["blowup-probe", "--z-max", "1"], "argument --z-max: expected an integer >= 2, got '1'"),
    (["blowup-probe", "--z-max", "-5"], "argument --z-max: expected an integer >= 2, got '-5'"),
    (["blowup-probe", "--x", "0"], "argument --x: expected an integer >= 1, got '0'"),
    (["blowup-probe", "--z-max", "ten"], "argument --z-max: invalid int value: 'ten'"),
]


@pytest.mark.parametrize(
    "argv, message", _OUT_OF_RANGE, ids=[" ".join(argv) for argv, _ in _OUT_OF_RANGE]
)
def test_out_of_range_arguments_exit_2(capsys, monkeypatch, argv, message):
    _no_prime_table(monkeypatch)
    with pytest.raises(SystemExit) as exc:  # refused by the flag's own parser
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert message in captured.err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_resource_cap_exit(capsys):
    code, _, err = run_cli(capsys, "verify-identities", "--limit", str(1 << 40))
    assert code == 3
    assert "resource cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["chebyshev", "--x-max"],
        ["verify-identities", "--limit"],
        ["density-table", "--z"],
        ["blowup-probe", "--z-max"],
    ],
    ids=lambda argv: argv[0],
)
def test_prime_table_limit_past_the_sieve_cap_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv, str(10**310))
    assert (code, out) == (3, "")
    # chebyshev builds its table only to sqrt(x-max), so x-max itself is refused
    what = "x" if argv[0] == "chebyshev" else "prime table limit"
    assert f"resource cap: {what} = {10**310} exceeds the 2^48 sieve cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--x"],
        ["chebyshev", "--x-max"],
        ["verify-identities", "--limit"],
        ["density-table", "--z"],
        ["blowup-probe", "--z-max"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_value_too_long_for_int_exits_3_on_its_digit_count(capsys, monkeypatch, argv):
    # int() refuses more than 4300 digits by default, and 2^48 has 15, so a
    # longer decimal is refused as past the cap, not as a configuration error
    _no_prime_table(monkeypatch)
    code, out, err = run_cli(capsys, *argv, "1" + "0" * 4400)
    assert (code, out) == (3, "")
    what = "x" if argv[0] == "sweep" else argv[1]
    assert err == f"resource cap: {what} has 4401 digits, past the 2^48 sieve cap\n"


@pytest.mark.parametrize("spec, power", [
    ("pow2:2..60000", "2^60000"),  # its powers alone take about 250 MB
    ("pow2:20000..20000", "2^20000"),  # one x of 6021 digits, past str()'s limit
    ("pow10:2..15", "10^15"),
])
def test_an_x_range_past_the_sieve_cap_exits_3_before_any_power(capsys, monkeypatch, spec, power):
    _no_prime_table(monkeypatch)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "sweep", "--x", spec, "--z", "3")
    elapsed = time.perf_counter() - t0
    assert (code, out) == (3, "")
    assert err == f"resource cap: x = {power} exceeds the 2^48 sieve cap\n"
    assert elapsed < 0.5, f"refusing {spec} took {elapsed:.2f}s"


def test_an_x_range_to_the_sieve_cap_runs(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--x", "pow2:2..48", "--z", "3")
    assert code == 0
    rows = read_csv(out)
    assert [int(r["x"]) for r in rows] == [1 << k for k in range(2, 49)]
    assert all(int(r["survivors"]) == 1 << (k - 1) for k, r in zip(range(2, 49), rows))


def test_memory_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("SIEVELAB_MEMORY_BUDGET", "1000")
    code, _, err = run_cli(capsys, "verify-identities", "--limit", "100000")
    assert code == 3
    assert "resource cap" in err


def test_memory_budget_binds_on_the_counting_route(capsys, monkeypatch):
    # at z = sqrt(x) the DP counts: 4 (10^4 + 1) slots and ints of 36 bytes,
    # 1.4 MB against a 500 kB budget
    monkeypatch.setenv("SIEVELAB_MEMORY_BUDGET", "500000")
    code, out, err = run_cli(
        capsys, "sweep", "--x", "100000000", "--z", "sqrt", "--no-moebius-check"
    )
    assert code == 3
    assert "resource cap" in err
    assert out == ""


def test_memory_budget_counts_the_chebyshev_prime_table(capsys, monkeypatch):
    # the table reaches only sqrt(x-max): a full one to 10^7 would take about 53 MB
    monkeypatch.setenv("SIEVELAB_MEMORY_BUDGET", "2000000")
    code, out, _ = run_cli(capsys, "chebyshev", "--x-max", "10000000")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "61555f026dce84f31d1e0bf5686a7ab78fe005489e6884e9f3919494a493af18"
    )
    # below the 1 MiB segment buffer of the pass to x-max, with its longest lane
    # and counts, refused before the table
    monkeypatch.setenv("SIEVELAB_MEMORY_BUDGET", "1000000")
    _no_prime_table(monkeypatch)
    code, out, err = run_cli(capsys, "chebyshev", "--x-max", "10000000")
    assert (code, out) == (3, "")
    assert err == (
        "resource cap: segment buffer and counts for x = 10000000 would take about"
        " 1175214 bytes, budget is 1000000\n"
    )


@pytest.mark.parametrize("budget", ["abc", "-1", "0", "1e9"])
def test_memory_budget_that_is_not_a_positive_integer_exits_2(capsys, monkeypatch, budget):
    monkeypatch.setenv("SIEVELAB_MEMORY_BUDGET", budget)
    code, out, err = run_cli(capsys, "chebyshev", "--x-max", "1000")
    assert (code, out) == (2, "")
    assert err == (
        "configuration error: SIEVELAB_MEMORY_BUDGET must be a positive integer "
        f"of bytes, got {budget!r}\n"
    )


def test_the_reused_parser_carries_nothing_between_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run_cli(capsys, "sweep", "--x", "16", "--z", "4", "--frac")
    assert code == 0
    assert read_csv(out)[0]["frac_remainder_exact"] == "-1/3"
    code, out, _ = run_cli(capsys, "sweep", "--x", "16", "--z", "4")
    assert code == 0
    row = read_csv(out)[0]
    assert row["frac_remainder_exact"] == ""
    assert "frac=" not in row["flags"]

    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("x = 100\nz = 5\nformat = json\nmoebius_check = off\n")
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    row = json.loads(out)[0]
    assert (row["x"], row["flags"]) == (100, "")
    code, out, _ = run_cli(capsys, "sweep", "--x", "16")
    assert code == 0
    row = read_csv(out)[0]  # csv, z = sqrt(16), and the Möbius check on
    assert (row["x"], row["z"], row["flags"]) == ("16", "4", "moebius=ok")


def _run_module(*argv, **env):
    """(exit code, stdout) of `python -m sievelab ARGV` in a fresh interpreter."""
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "sievelab", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src), **env}, timeout=60,
    )
    return proc.returncode, proc.stdout


def test_python_m_sievelab_runs_the_command_line(capsys):
    _, expected, _ = run_cli(capsys, "sweep", "--x", "16", "--z", "4")
    assert _run_module("sweep", "--x", "16", "--z", "4") == (0, expected)
    assert _run_module("chebyshev", "--x-max", "1") == (2, "")
    assert _run_module("chebyshev", "--x-max", "100000", SIEVELAB_MEMORY_BUDGET="1000") == (3, "")


def test_a_stdout_closed_after_the_first_line_exits_141_quietly():
    # `density-table --z 3000 | head -1`: the report runs to hundreds of KB,
    # past any pipe buffer, so the writer meets the closed pipe
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "sievelab", "density-table", "--z", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.stdout.readline().startswith(b"p,g_exact,")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


# Prints whether a 4 MiB block is mmapped right after an 8 MiB one was freed,
# reading glibc's mallinfo2; with an argument, after a density-table run.
_MAPPED_AFTER_A_FREE = """
import ctypes, os, sys
from sievelab import cli

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.argtypes = ()
mallinfo2.restype = Mallinfo2

if sys.argv[1:]:
    assert cli.main(["density-table", "--z", "10", "--out", os.devnull]) == 0
freed = bytearray(8 << 20)
del freed
before = mallinfo2().hblkhd
block = bytearray(4 << 20)
print(mallinfo2().hblkhd - before >= 4 << 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mmap threshold")
@pytest.mark.parametrize("argv, mapped", [([], "False"), (["density"], "True")])
def test_density_table_pins_the_mmap_threshold(argv, mapped):
    # Unpinned, freeing the 8 MiB block raises glibc's threshold past 4 MiB,
    # and the next large block grows on the brk heap: a report held in an
    # io.BytesIO then reached up to twice its size, by an amount that
    # depended on the heap's history.
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _MAPPED_AFTER_A_FREE, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True,
    )
    assert proc.stdout.strip() == mapped


def test_load_config_file_parses_comments(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\nx = pow2:4..8   # trailing\n\nformat = json\n"
                   "frac = Yes\nmoebius-check = off\nout = true\n")
    assert load_config_file(str(cfg)) == [
        "--x=pow2:4..8", "--format=json", "--frac", "--no-moebius-check", "--out=true"
    ]


def test_load_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "c.cfg"
    for line in ("xx = 16", "segment_size = 4096"):
        cfg.write_text(line + "\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config_file(str(cfg))


GOLDEN_VERIFY = """\
ok partition: 40 checks
ok class recursion: 15 checks
ok Legendre sum: 90 checks
ok per-prime Möbius: 30 checks
ok density telescoping: 109 checks
ok exact remainder: 20 checks
ok harmonic chain: 599 checks
all identity families hold exactly
"""


def test_verify_identities_golden_bytes(capsys):
    code, out, err = run_cli(capsys, "verify-identities", "--limit", "600", "--seed", "5")
    assert (code, out, err) == (0, GOLDEN_VERIFY, "")


def test_verify_identities_draws_are_pinned():
    # stdout prints counts only, which do not depend on the rng draws
    lines = [
        (f"{family}\t{where}", holds)
        for family, checks in cli._identity_families(600, Namespace(seed=5))
        for where, holds in checks
    ]
    assert len(lines) == 903 and all(holds for _, holds in lines)
    digest = hashlib.sha256("\n".join(line for line, _ in lines).encode()).hexdigest()
    assert digest == "02c519deb9bcebe106b5ca333d7e5bd2ffac2055ae52b431703f71fae8b8bd0b"


def _off_by_one(real):
    return lambda *args, **kwargs: real(*args, **kwargs) + 1


def _one_survivor_too_many(real):
    def census(*args, **kwargs):
        c = real(*args, **kwargs)
        return dataclasses.replace(c, survivors=c.survivors + 1)
    return census


def _unequal(real):
    return lambda *args, **kwargs: ((*row[:3], False) for row in real(*args, **kwargs))


def _unordered(real):
    return lambda *args, **kwargs: (
        (z, rec._replace(ordered=False)) for z, rec in real(*args, **kwargs)
    )


def _partial_sums_one_too_large(real):
    # the unreduced numerator S of the partial sum S/P, one too large
    return lambda *args, **kwargs: (
        (p, Decimal(int(s) + 1), u, big_p, a, b)
        for p, s, u, big_p, a, b in real(*args, **kwargs)
    )


def _reduced_denominators_one_too_large(real):
    return lambda *args, **kwargs: (
        (p, s, u, big_p, a, Decimal(int(b) + 1))
        for p, s, u, big_p, a, b in real(*args, **kwargs)
    )


# (the module whose binding a report's cross-check calls, the route, how to
# break it, a command that checks it)
_REPORT_ROUTES = [
    (errorlab, "legendre_sum", _off_by_one, ["sweep", "--x", "1000", "--z", "31"]),
    (errorlab, "frac_remainder_sum", _off_by_one,
     ["sweep", "--x", "1000", "--z", "10", "--frac", "--no-moebius-check"]),
    (densities, "_telescope", _partial_sums_one_too_large, ["density-table", "--z", "100"]),
]


@pytest.mark.parametrize(
    "module, route, breaker, argv", _REPORT_ROUTES, ids=[r[1] for r in _REPORT_ROUTES]
)
def test_a_disagreeing_route_exits_1_with_no_report(capsys, monkeypatch, module, route,
                                                    breaker, argv):
    monkeypatch.setattr(module, route, breaker(getattr(module, route)))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("exact check failed: ")


def test_a_wrong_reduced_product_exits_1_before_any_row(capsys, monkeypatch, tmp_path):
    # caught once, after the last prime, and still before the first byte
    monkeypatch.setattr(densities, "_telescope",
                        _reduced_denominators_one_too_large(densities._telescope))
    out_path = tmp_path / "table.csv"
    code, out, err = run_cli(capsys, "density-table", "--z", "100", "--out", str(out_path))
    assert (code, out, out_path.read_text()) == (1, "", "")
    assert err == "exact check failed: reduced and unreduced Mertens products differ at z = 100\n"


# (family, the module that defines the broken route, the route, how to break it)
_FAMILY_ROUTES = [
    ("partition", sieve, "lpf_census", _one_survivor_too_many),
    ("class recursion", sieve, "count_lpf", _off_by_one),
    ("Legendre sum", moebius, "legendre_sum", _off_by_one),
    ("per-prime Möbius", moebius, "lpf_count_via_moebius", _off_by_one),
    ("density telescoping", densities, "iter_density_identity", _unequal),
    ("exact remainder", moebius, "frac_remainder_sum", _off_by_one),
    ("harmonic chain", densities, "iter_harmonic_chain", _unordered),
]


@pytest.mark.parametrize("index", range(len(_FAMILY_ROUTES)), ids=[f[2] for f in _FAMILY_ROUTES])
def test_verify_stops_at_the_first_failing_family(capsys, monkeypatch, index):
    family, module, route, breaker = _FAMILY_ROUTES[index]
    broken = breaker(getattr(module, route))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return broken(*args, **kwargs)

    monkeypatch.setattr(module, route, counted)
    code, out, err = run_cli(capsys, "verify-identities", "--limit", "600", "--seed", "5")
    assert code == 1
    assert err.splitlines()[0].startswith(f"FAIL {family} at ")
    assert out == "".join(GOLDEN_VERIFY.splitlines(keepends=True)[:index])
    if route == "count_lpf":
        assert len(calls) == 1  # no draws past the first failing check


@pytest.mark.parametrize(
    "command, flag",
    [
        ("verify-identities", "--format=json"),
        ("verify-identities", "--out=report.txt"),
        ("verify-identities", "--segment-size=1"),
        ("density-table", "--seed=1"),
        ("density-table", "--segment-size=1"),
        ("density-table", "--max-pi-z=1"),
        ("chebyshev", "--segment-size=1"),
        ("chebyshev", "--max-pi-z=1"),
        ("blowup-probe", "--seed=1"),
        ("blowup-probe", "--segment-size=1"),
        ("sweep", "--seed=1"),
        ("sweep", "--segment-size=1"),
    ],
)
def test_flags_a_subcommand_does_not_read_are_rejected(
    tmp_path, monkeypatch, capsys, command, flag
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()


def test_sweep_config_rejects_the_seed_key(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("x = 16\nseed = 5\n")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "unknown config key 'seed'" in err
