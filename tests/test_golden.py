"""Byte-identity of fixed reports.

Each run's stdout must hash to the pinned sha256.  The digests were recorded
from reports checked by hand; a change that moves one changes a report, and
must update the digest here and say why in CHANGES.md.
"""

import hashlib
import shlex

import pytest

from sievelab.cli import main

GOLDEN = [
    ("sweep --x pow10:2..8 --z sqrt",
     "0e13682e1027a2826c513d19dfe6d075ff4105cdc306e98f5a5a02f0dd7e3499"),
    ("sweep --x pow10:2..5 --z sqrt --frac --format json",
     "0c8d8e6ecf3c78b11b71e23c405cccaa918c13d38597559383808f360e12f11b"),
    # 16 sifting primes at z = 54 (15 generating the remainder), 17 at z = 60
    ("sweep --x 1000,5000 --z 54 --frac",
     "ec5edbdbbe8ea53d12214bbe1629829111b0b86ff01b03ff7cebbb0d6400671f"),
    ("sweep --x 1000,5000 --z 60 --frac",
     "697d06bc4063fd4402dd8e362061170eb45ad1bee847375b05eb878cdeb9a6fa"),
    ("density-table --z 5000",
     "cc1d511f30a83726e5848351c8289838eaa1ddf0a2d2a28e5a3ef45e606b7058"),
    ("chebyshev --x-max 10000000",
     "61555f026dce84f31d1e0bf5686a7ab78fe005489e6884e9f3919494a493af18"),
    ("blowup-probe --z-max 64 --x 1000",
     "be82932fb1f15018e6d1a91cf81c2f774f7f6a95fecbd9c6b00dd221e2d0855a"),
    ("density-table --z 300 --format json",
     "1642e1bfbddc059133628b8c6791824490c63e62f139e8d4550b2c8189d41d18"),
    ("chebyshev --x-max 100000 --grid decade --format json",
     "88bae625c95dc122e7904684fc54504db5f130d7b592779e3c45217a10f44c35"),
    # an empty grid: the header line alone
    ("sweep --x '' --z sqrt",
     "89d5a2da55f0780c10fb4e5e6ba8241015c6adc6938eae0d530c22cab1360a60"),
]


def _without_wall_time(csv_text: str) -> str:
    """blowup-probe's CSV without its third column, wall_time_s, the one
    field that differs between runs."""
    lines = []
    for line in csv_text.splitlines(keepends=True):
        fields = line.split(",")
        del fields[2]
        lines.append(",".join(fields))
    return "".join(lines)


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[command for command, _ in GOLDEN])
def test_report_bytes_are_pinned(capsys, command, digest):
    argv = shlex.split(command)
    assert main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "blowup-probe":
        out = _without_wall_time(out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
