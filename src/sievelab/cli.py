"""Command-line front end.

Subcommands: verify-identities, sweep, chebyshev, blowup-probe, density-table.
Exit statuses, chosen by `main` alone: 0 success, 1 exact-check failure,
2 configuration error, 3 resource cap.  Handlers return nothing.  A failed exact
check raises: one `exact check failed:` line on stderr, after the report written
so far, and exit 1, as when chebyshev's pass and counting route differ either way.
"""

import argparse
import ctypes
import os
import random
import sys
from contextlib import nullcontext
from functools import cache
from math import isqrt
from pathlib import Path
from typing import Callable, Iterator

from . import identities, report
from .densities import build_density_table
from .errorlab import chebyshev_check, check_point, legendre_blowup_probe, run_sweep
from .errors import CapExceededError, ResourceLimitError
from .highprec import ln_decimal
from .sieve import MAX_SIEVE_X, build_prime_table, check_sieve_pass, check_survivor_count
from .sieve import prime_counts, sifting_primes

DEFAULT_SEED = 1729
# mallopt's parameter number for the mmap threshold, from glibc's malloc.h
_M_MMAP_THRESHOLD = -3


def parse_x_spec(spec: str) -> list[int]:
    """Parse an x grid: comma list, 'pow2:a..b', or 'pow10:a..b' with 0 <= a <= b."""
    spec = spec.strip()
    if not spec:
        return []
    for prefix, base in (("pow2:", 2), ("pow10:", 10)):
        if spec.startswith(prefix):
            lo, sep, hi = spec[len(prefix):].partition("..")
            if not sep:
                raise ValueError(f"bad range in x spec {spec!r}, expected a..b")
            lo, hi = int(lo), _capped(int, "the exponent of x")(hi)
            if lo < 0:
                raise ValueError(f"negative exponent in x spec {spec!r}")
            if hi < lo:
                raise ValueError(f"empty range in x spec {spec!r}, {hi} < {lo}")
            # a range past the cap is refused whole, before any power is built
            if hi >= MAX_SIEVE_X.bit_length() or base**hi > MAX_SIEVE_X:
                raise ResourceLimitError(f"x = {base}^{hi} exceeds the 2^48 sieve cap")
            return [base**k for k in range(lo, hi + 1)]
    return [_capped(int, "x")(tok) for tok in spec.split(",") if tok.strip()]


def parse_z_spec(spec: str) -> Callable[[int], int]:
    """Parse a z rule into z as a function of x >= 2: 'sqrt' (floor(sqrt(x))),
    'logx' (floor(ln x)), each at least 2, or 'fixed:N' or a bare integer N."""
    spec = spec.strip()
    if spec == "sqrt":
        return lambda x: max(2, isqrt(x))
    if spec == "logx":
        return lambda x: max(2, int(ln_decimal(x)))
    z = int(spec.removeprefix("fixed:"))
    return lambda x: z


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer >= low, else exit 2 naming the flag."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    parse.__name__ = "int"  # argparse then says "invalid int value" for a non-integer
    return parse


def _capped(parse: Callable[[str], int], what: str) -> Callable[[str], int]:
    """`parse` for a value capped at 2^48.  A decimal too long for int() has more
    digits than 2^48: it is refused as past the cap, exit 3, not by int(), exit 2."""
    def capped(text: str) -> int:
        try:
            return parse(text)
        except ValueError:
            digits = text.strip().removeprefix("+").lstrip("0")
            if len(digits) <= len(str(MAX_SIEVE_X)) or not digits.isdecimal():
                raise
        raise ResourceLimitError(f"{what} has {len(digits)} digits, past the 2^48 sieve cap")
    capped.__name__ = "int"
    return capped


# The sweep flags a config file may set, by dest.  A switch's value true or
# false (1/0, yes/no, on/off) sets --key or --no-key.
_CONFIG_SWITCHES = ("frac", "moebius_check")
_CONFIG_KEYS = (*_CONFIG_SWITCHES, "x", "z", "format", "out")
_SWITCH_PREFIX = {
    **dict.fromkeys(("1", "true", "yes", "on"), "--"),
    **dict.fromkeys(("0", "false", "no", "off"), "--no-"),
}


def load_config_file(path: str) -> list[str]:
    """Flat key=value config as sweep flags, in file order; '#' starts a
    comment, keys match the flag names.  Values are left to the flags' own
    parser: any value other than a switch's true or false becomes
    --key=value."""
    flags = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = key.strip().lower().replace("-", "_"), value.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        name = key.replace("_", "-")
        prefix = _SWITCH_PREFIX.get(value.lower()) if key in _CONFIG_SWITCHES else None
        flags.append(f"--{name}={value}" if prefix is None else prefix + name)
    return flags


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once; each subcommand sets its `run`."""
    parser = argparse.ArgumentParser(
        prog="sievelab",
        description="Least-prime-factor sieve census, exact identity checks, "
        "and error-term measurement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags of more than one subcommand
    report_flags = argparse.ArgumentParser(add_help=False)
    report_flags.add_argument("--format", choices=report.FORMATS, default="csv")
    report_flags.add_argument("--out", metavar="PATH",
                              help="write the report here instead of stdout")

    p = sub.add_parser("verify-identities", help="run the exact-identity suite")
    p.add_argument("--limit", type=_capped(_int_at_least(0), "--limit"), default=10_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("sweep", parents=[report_flags],
                       help="evaluate an (x, z) grid and emit a report")
    p.add_argument("--config", metavar="PATH",
                   help="key = value file of these flags; the command line overrides it")
    p.add_argument("--x", default="", help="comma list, pow2:a..b, or pow10:a..b")
    p.add_argument("--z", default="sqrt",
                   help="sqrt, logx, fixed:N, or a bare integer (default sqrt)")
    p.add_argument("--frac", action=argparse.BooleanOptionalAction, default=False,
                   help="compute the exact fractional-part remainder per point")
    p.add_argument("--moebius-check", action=argparse.BooleanOptionalAction,
                   default=True, help="cross-check survivors via the full Möbius sum")
    p.set_defaults(run=_cmd_sweep)

    p = sub.add_parser("chebyshev", parents=[report_flags],
                       help="prime-counting inclusion checks")
    p.add_argument("--x-max", type=_capped(_int_at_least(2), "--x-max"), default=1_000_000)
    p.add_argument("--grid", choices=("default", "decade"), default="default")
    p.add_argument("--random", type=_int_at_least(0), default=0, metavar="N",
                   help="additional seeded random sample points")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(run=_cmd_chebyshev)

    p = sub.add_parser("blowup-probe", parents=[report_flags],
                       help="term-count growth of the full Möbius sum")
    p.add_argument("--z-max", type=_capped(_int_at_least(2), "--z-max"), default=31)
    p.add_argument("--x", type=_int_at_least(1), default=1_000_000)
    p.set_defaults(run=_cmd_blowup)

    p = sub.add_parser("density-table", parents=[report_flags],
                       help="per-prime density and partial sums")
    p.add_argument("--z", type=_capped(_int_at_least(2), "--z"), default=100)
    p.set_defaults(run=_cmd_density)

    return parser


def _identity_families(limit: int, args) -> list[tuple[str, Iterator[tuple[str, bool]]]]:
    """The families verify-identities checks, in order, each a stream of
    (where, holds) pairs over seeded samples.  The samples are drawn from one
    rng as the checks consume them, so the draws depend only on the checks
    run before them."""
    rng = random.Random(args.seed)
    table = build_prime_table(max(limit, 31))
    z_cap = min(31, limit + 1)

    def draw_x() -> int:
        return rng.randrange(1, limit + 1)

    def mixed_z():
        for _ in range(40):
            x = draw_x()
            yield x, max(2, rng.choice([2, min(x + 1, limit), rng.randrange(2, limit + 2)]))

    return [
        ("partition", identities.partition(mixed_z(), table)),
        # censuses at min(z_cap, 6): the classes of 2, 3 and 5 below z_cap
        ("class recursion", identities.class_recursion(
            ((draw_x(), min(z_cap, 6)) for _ in range(5)), table)),
        ("Legendre sum", identities.legendre(
            ((draw_x(), z) for z in range(2, z_cap + 1) for _ in range(3)), table)),
        ("per-prime Möbius", identities.per_prime(
            ((draw_x(), p) for p in sifting_primes(table, z_cap) for _ in range(3)), table)),
        ("density telescoping", identities.telescoping(min(limit, 10_000), table)),
        ("exact remainder", identities.remainder(
            ((draw_x(), rng.randrange(2, z_cap + 1)) for _ in range(20)), table)),
        ("harmonic chain", identities.harmonic(min(limit, 10_000), table)),
    ]


def _cmd_verify(args, out) -> None:
    if args.limit == 0:
        print("ok: nothing to check (limit 0)", file=out)
        return
    for name, checks in _identity_families(args.limit, args):
        count = 0
        for where, holds in checks:
            if not holds:
                raise ArithmeticError(f"{name} at {where}")
            count += 1
        print(f"ok {name}: {count} checks", file=out)
    print("all identity families hold exactly", file=out)


def _cmd_sweep(args, out) -> None:
    z_of = parse_z_spec(args.z)
    points = []
    for x in sorted(parse_x_spec(args.x)):
        if x < 2:
            raise ValueError(f"sweep point x={x} is below 2")
        z = z_of(x)
        check_point(x, z)
        check_survivor_count(x, z)
        points.append((x, z))
    rows = []
    if points:
        table = build_prime_table(max(z for _, z in points))
        records = run_sweep(points, table, moebius_cross_check=args.moebius_check,
                            frac_remainder=args.frac)
        rows = [report.error_row(rec) for rec in records]
    out.write(report.format_rows(rows, report.ERROR_COLUMNS, args.format))


def _chebyshev_grid(x_max: int, mode: str, extra: int, seed: int) -> list[int]:
    decades = [10**k for k in range(2, 30) if 10**k <= x_max]
    if mode == "decade":
        grid = set(decades)
    else:
        grid = {v for v in (4, 16, x_max) if 2 <= v <= x_max}
        grid.update(decades)
    rng = random.Random(seed)
    for _ in range(extra):
        if len(grid) == x_max - 1:
            break  # every x in [2, x_max] is drawn: no later draw changes the grid
        grid.add(rng.randrange(2, x_max + 1))
    return sorted(grid)


def _cmd_chebyshev(args, out) -> None:
    grid = _chebyshev_grid(args.x_max, args.grid, args.random, args.seed)
    # refuse x-max before any work: its survivor count, then the pass to it
    check_survivor_count(args.x_max, isqrt(args.x_max) + 1)
    check_sieve_pass(args.x_max)
    table = build_prime_table(isqrt(args.x_max) + 1)
    pi_xs = prime_counts(grid, table)
    records = [chebyshev_check(x, table, pi_x) for x, pi_x in zip(grid, pi_xs)]
    out.write(report.format_rows(
        [report.chebyshev_row(r) for r in records], report.CHEBYSHEV_COLUMNS, args.format
    ))
    # Legendre's cut, an equality: the pass's pi(x) against the counting route's
    bad = next((r for r in records if not r.holds_54 or r.pi_x != r.s_plus_pi_z - 1), None)
    if bad is not None:
        raise ArithmeticError(f"Legendre's cut fails at x = {bad.x}: pi(x) = {bad.pi_x}, "
                              f"S(x, isqrt(x) + 1) + pi(isqrt(x)) - 1 = {bad.s_plus_pi_z - 1}")


def _cmd_blowup(args, out) -> None:
    table = build_prime_table(args.z_max)
    rows = legendre_blowup_probe(args.z_max, args.x, table)
    report.write_rows(map(report.probe_row, rows), report.PROBE_COLUMNS, args.format, out)


@cache
def _pin_mmap_threshold() -> None:
    """Hold glibc's mmap threshold at its initial 128 KiB for the process.

    glibc raises the threshold to the size of each mmapped block it frees, up
    to 32 MiB.  A density table's report runs to tens of MB, and a caller
    that holds the output in memory (an io.BytesIO under redirect_stdout, as
    the tests and the benchmark do) grows that buffer by realloc.  Once one
    such report has been freed, the next one grows on the brk heap up to the
    raised threshold, where a step may copy the whole buffer: the process then
    holds up to twice the report for a moment, by an amount that depends on
    the heap's history.  Pinned, every block from 128 KiB up is mmapped and
    grows by mremap, without a copy.  40 s `exact_chain` benchmark runs
    peaked at 57.6 MB unpinned and at 41.0 MB pinned (CPython 3.11.7,
    2 vCPUs).  Only density-table pins it: pinned for every command, at
    128 KiB or at 2 MiB, chebyshev_table's job_tail_s rose by a tenth to a
    fifth.  Setting the threshold turns glibc's dynamic adjustment off;
    where the C library has no mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 128 * 1024)


def _cmd_density(args, out) -> None:
    _pin_mmap_threshold()
    table = build_prime_table(args.z)
    # checked to the last prime, making no rows, before the first byte; then
    # made from the reduced products the check pass checked, row by row
    entries = build_density_table(args.z, table)
    report.write_rows(report.density_rows(entries), report.DENSITY_COLUMNS, args.format, out)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        # in the try: a capped flag's type refuses a value past the cap here
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # once more with the file's flags ahead of the command line's
            # own, so that the command line's win as the last ones given
            at = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:at], *load_config_file(args.config), *argv[at:]])
        path = getattr(args, "out", None)
        # opened and truncated before any work, like a shell redirection
        with open(path, "w") if path else nullcontext(sys.stdout) as out:
            try:
                args.run(args, out)
            finally:
                out.flush()  # a reader gone from stdout shows here, not at exit
        return 0
    except BrokenPipeError:
        # not a configuration error: quiet, with the status of a SIGPIPE death,
        # and stdout pointed at devnull for the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ResourceLimitError, CapExceededError) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"exact check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
