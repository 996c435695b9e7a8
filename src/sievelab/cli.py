"""Command-line front end.

Subcommands: verify-identities, sweep, chebyshev, blowup-probe, density-table.
Exit statuses: 0 success, 1 exact-check failure, 2 configuration error,
3 resource cap.
"""

import argparse
import random
import sys
from pathlib import Path
from typing import Iterator

from . import identities, report
from .densities import build_density_table
from .errorlab import SweepConfig, chebyshev_check, legendre_blowup_probe, run_sweep
from .errors import CapExceededError, ResourceLimitError
from .moebius import DEFAULT_MAX_PI_Z, _check_enumeration
from .sieve import build_prime_table, sifting_primes

DEFAULT_SEED = 1729


def parse_x_spec(spec: str) -> list[int]:
    """Parse an x grid: comma list, 'pow2:a..b', or 'pow10:a..b'."""
    spec = spec.strip()
    if not spec:
        return []
    for prefix, base in (("pow2:", 2), ("pow10:", 10)):
        if spec.startswith(prefix):
            lo, sep, hi = spec[len(prefix):].partition("..")
            if not sep:
                raise ValueError(f"bad range in x spec {spec!r}, expected a..b")
            if int(lo) < 0:
                raise ValueError(f"negative exponent in x spec {spec!r}")
            return [base**k for k in range(int(lo), int(hi) + 1)]
    return [int(tok) for tok in spec.split(",") if tok.strip()]


def parse_z_spec(spec: str) -> tuple[str, int | None]:
    """Parse a z rule: 'sqrt', 'logx', 'fixed:N', or a bare integer."""
    spec = spec.strip()
    if spec in ("sqrt", "logx"):
        return spec, None
    if spec.startswith("fixed:"):
        return "fixed", int(spec[len("fixed:"):])
    return "fixed", int(spec)


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


_FORMATS = ("csv", "json")


def _parse_format(text: str) -> str:
    if text not in _FORMATS:
        raise ValueError(f"format must be one of {', '.join(_FORMATS)}, got {text!r}")
    return text


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"expected an integer >= 0, got {text!r}")
    return value


# Settings a sweep config file may hold -> (default, parser of the file's
# text).  Their flags default to None, so pick can tell an unset flag.
_SETTINGS = {
    "x": ("", str),
    "z": ("sqrt", str),
    "frac": (False, _parse_bool),
    "moebius_check": (True, _parse_bool),
    "format": ("csv", _parse_format),
    "out": (None, str),
    "max_pi_z": (DEFAULT_MAX_PI_Z, non_negative_int),
}

# Settings that are flags of more than one subcommand.
_SHARED_FLAGS = {
    "format": dict(choices=_FORMATS),
    "out": dict(metavar="PATH"),
    "max_pi_z": dict(
        type=non_negative_int,
        help=f"most sifting primes a Möbius sum may enumerate (default {DEFAULT_MAX_PI_Z})",
    ),
}


def load_config_file(path: str) -> dict[str, str]:
    """Flat key=value config; '#' starts a comment, keys match the flag names."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key = key.strip().lower().replace("-", "_")
        if key not in _SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def pick(args: argparse.Namespace, config: dict[str, str], key: str):
    """The flag's value, else the config file's value for it, else its default."""
    value = getattr(args, key)
    if value is not None:
        return value
    default, convert = _SETTINGS[key]
    return convert(config[key]) if key in config else default


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _add_flags(parser: argparse.ArgumentParser, *keys: str) -> None:
    for key in keys:
        parser.add_argument("--" + key.replace("_", "-"), default=None, **_SHARED_FLAGS[key])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sievelab",
        description="Least-prime-factor sieve census, exact identity checks, "
        "and error-term measurement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-identities", help="run the exact-identity suite")
    p.add_argument("--limit", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_flags(p, "max_pi_z")

    p = sub.add_parser("sweep", help="evaluate an (x, z) grid and emit a report")
    p.add_argument("--config", metavar="PATH", default=None)
    p.add_argument("--x", default=None, help="comma list, pow2:a..b, or pow10:a..b")
    p.add_argument("--z", default=None,
                   help="sqrt, logx, fixed:N, or a bare integer (default sqrt)")
    p.add_argument("--frac", action=argparse.BooleanOptionalAction, default=None,
                   help="compute the exact fractional-part remainder per point")
    p.add_argument("--moebius-check", action=argparse.BooleanOptionalAction,
                   default=None, help="cross-check survivors via the full Möbius sum")
    _add_flags(p, "format", "out", "max_pi_z")

    p = sub.add_parser("chebyshev", help="prime-counting inclusion checks")
    p.add_argument("--x-max", type=int, default=1_000_000)
    p.add_argument("--grid", choices=("default", "decade"), default="default")
    p.add_argument("--random", type=int, default=0, metavar="N",
                   help="additional seeded random sample points")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_flags(p, "format", "out")

    p = sub.add_parser("blowup-probe", help="term-count growth of the full Möbius sum")
    p.add_argument("--z-max", type=int, default=31)
    p.add_argument("--x", type=int, default=1_000_000)
    _add_flags(p, "format", "out", "max_pi_z")

    p = sub.add_parser("density-table", help="per-prime density and partial sums")
    p.add_argument("--z", type=int, default=100)
    _add_flags(p, "format", "out")

    return parser


def _identity_families(limit: int, args) -> list[tuple[str, Iterator[tuple[str, bool]]]]:
    """The families verify-identities checks, in order, each a stream of
    (where, holds) pairs over seeded samples.  The samples are drawn from one
    rng as the checks consume them, so the draws depend only on the checks
    run before them."""
    rng = random.Random(args.seed)
    table = build_prime_table(max(limit, 31))
    z_cap = min(31, limit + 1)
    # the largest enumeration of any family: the Legendre sum at z = z_cap
    _check_enumeration(sifting_primes(table, z_cap), args.max_pi_z)

    def draw_x() -> int:
        return rng.randrange(1, limit + 1)

    def mixed_z():
        for _ in range(40):
            x = draw_x()
            yield x, max(2, rng.choice([2, min(x + 1, limit), rng.randrange(2, limit + 2)]))

    cap = args.max_pi_z
    return [
        ("partition", identities.partition(mixed_z(), table)),
        # censuses at min(z_cap, 6): the classes of 2, 3 and 5 below z_cap
        ("class recursion", identities.class_recursion(
            ((draw_x(), min(z_cap, 6)) for _ in range(5)), table)),
        ("Legendre sum", identities.legendre(
            ((draw_x(), z) for z in range(2, z_cap + 1) for _ in range(3)), table, cap)),
        ("per-prime Möbius", identities.per_prime(
            ((draw_x(), p) for p in sifting_primes(table, z_cap) for _ in range(3)), table, cap)),
        ("density telescoping", identities.telescoping(min(limit, 10_000), table)),
        ("exact remainder", identities.remainder(
            ((draw_x(), rng.randrange(2, z_cap + 1)) for _ in range(20)), table, cap)),
        ("harmonic chain", identities.harmonic(min(limit, 10_000), table)),
    ]


def _cmd_verify(args) -> int:
    limit = args.limit
    if limit < 0:
        raise ValueError(f"--limit must be >= 0, got {limit}")
    if limit == 0:
        print("ok: nothing to check (limit 0)")
        return 0
    for name, checks in _identity_families(limit, args):
        count = 0
        for where, holds in checks:
            if not holds:
                print(f"FAIL {name} at {where}", file=sys.stderr)
                return 1
            count += 1
        print(f"ok {name}: {count} checks")
    print("all identity families hold exactly")
    return 0


def _cmd_sweep(args) -> int:
    z_rule, z_fixed = parse_z_spec(args.z)
    sweep = SweepConfig(
        x_values=tuple(parse_x_spec(args.x)),
        z_rule=z_rule,
        z_fixed=z_fixed,
        moebius_cross_check=args.moebius_check,
        frac_remainder=args.frac,
        max_pi_z=args.max_pi_z,
    )
    points = sweep.points()
    rows = []
    if points:
        table = build_prime_table(max(z for _, z in points))
        rows = [report.error_row(rec) for rec in run_sweep(sweep, table)]
    _emit(report.format_rows(rows, report.ERROR_COLUMNS, args.format), args.out)
    return 0


def _chebyshev_grid(x_max: int, mode: str, extra: int, seed: int) -> list[int]:
    decades = [10**k for k in range(2, 30) if 10**k <= x_max]
    if mode == "decade":
        grid = set(decades)
    else:
        grid = {v for v in (4, 16, x_max) if 2 <= v <= x_max}
        grid.update(decades)
    rng = random.Random(seed)
    for _ in range(extra):
        grid.add(rng.randrange(2, x_max + 1))
    return sorted(grid)


def _cmd_chebyshev(args) -> int:
    if args.x_max < 2:
        raise ValueError(f"--x-max must be >= 2, got {args.x_max}")
    table = build_prime_table(args.x_max)
    records = [
        chebyshev_check(x, table)
        for x in _chebyshev_grid(args.x_max, args.grid, args.random, args.seed)
    ]
    _emit(
        report.format_rows(
            [report.chebyshev_row(r) for r in records], report.CHEBYSHEV_COLUMNS, args.format
        ),
        args.out,
    )
    bad = [r for r in records if not r.holds_54]
    if bad:
        print(f"FAIL inclusion at x={bad[0].x}", file=sys.stderr)
        return 1
    return 0


def _cmd_blowup(args) -> int:
    table = build_prime_table(max(args.z_max, 2))
    rows = legendre_blowup_probe(args.z_max, args.x, table, max_pi_z=args.max_pi_z)
    _emit(
        report.format_rows([report.probe_row(r) for r in rows], report.PROBE_COLUMNS, args.format),
        args.out,
    )
    return 0


def _cmd_density(args) -> int:
    table = build_prime_table(max(args.z, 2))
    dt = build_density_table(args.z, table)
    _emit(report.format_rows(report.density_rows(dt), report.DENSITY_COLUMNS, args.format), args.out)
    return 0


_COMMANDS = {
    "verify-identities": _cmd_verify,
    "sweep": _cmd_sweep,
    "chebyshev": _cmd_chebyshev,
    "blowup-probe": _cmd_blowup,
    "density-table": _cmd_density,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config_file(args.config) if getattr(args, "config", None) else {}
        for key in _SETTINGS:
            if hasattr(args, key):
                setattr(args, key, pick(args, config, key))
        return _COMMANDS[args.command](args)
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
