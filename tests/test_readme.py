"""README's code runs as written: its Library example and its command-line
Examples, so their import paths and flags cannot drift from the package."""

import re
import shlex
from pathlib import Path

import pytest

from sievelab.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _examples() -> list[str]:
    block = re.search(r"^Examples:\n\n```sh\n(.*?)^```", README, re.M | re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("sievelab ")]


def test_library_example_runs():
    (code,) = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    exec(compile(code, "README.md", "exec"), {})


def test_readme_has_examples():
    assert _examples()


@pytest.mark.parametrize("line", _examples())
def test_example_exits_0(capsys, line):
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out
