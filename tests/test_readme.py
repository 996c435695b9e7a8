"""README's code runs as written: its Library example and its command-line
Examples, so their import paths and flags cannot drift from the package.  Its
module table names every public name of each module."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from sievelab.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
MODULES = sorted((ROOT / "src" / "sievelab").glob("*.py"))


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


def _public_names(path: Path) -> list[str]:
    """The names a module defines at its top level, by def, class or
    assignment, that do not start with an underscore."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not n.startswith("_")]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_table_names_every_public_name(path):
    # a name is listed as `name` or as a call, `name(x, z)`
    row = re.search(rf"^\| `sievelab\.{path.stem}` *\|(.*)$", README, re.M)
    names = _public_names(path)
    if row is None:
        assert not names, path.stem
        return
    assert [n for n in names if not re.search(rf"`{n}[`(]", row.group(1))] == [], path.stem
