"""The library never prints: only the CLI writes to stdout or stderr."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "gamma_lab"
STREAMS = {"stdout", "stderr", "__stdout__", "__stderr__"}


def _writes(tree):
    """(line, what) of each print or sys stream use in a module's tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "print":
            yield node.lineno, "print"
        elif (isinstance(node, ast.Attribute) and node.attr in STREAMS
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            yield node.lineno, f"sys.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            for alias in node.names:
                if alias.name in STREAMS:
                    yield node.lineno, f"from sys import {alias.name}"


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "cli.py"))
def test_library_module_never_prints(path):
    tree = ast.parse((PACKAGE / path).read_text(), filename=path)
    assert list(_writes(tree)) == []


def test_the_check_sees_prints_and_streams():
    source = "import sys\nprint(1)\nsys.stderr.write('x')\nfrom sys import stdout\n"
    assert [what for _, what in sorted(_writes(ast.parse(source)))] == [
        "print", "sys.stderr", "from sys import stdout"]
