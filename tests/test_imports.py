"""No module of the package imports another module's private name: each
rule has one owner, and a rule another module needs is public there."""

import ast
from pathlib import Path

import sievelab

SOURCES = sorted(Path(sievelab.__file__).parent.glob("*.py"))


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").partition(".")[0] != "sievelab":
            continue
        found += [f"{path.name}:{node.lineno} imports {alias.name}"
                  for alias in node.names if alias.name.startswith("_")]
    return found


def test_the_package_has_its_modules():
    assert {p.name for p in SOURCES} >= {"cli.py", "errorlab.py", "moebius.py", "sieve.py"}


def test_no_module_imports_a_private_name():
    assert [line for path in SOURCES for line in _private_imports(path)] == []
