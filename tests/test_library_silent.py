"""The library never prints: only the CLI writes to stdout or stderr.

Nor does it open files: only ``cli``, ``config`` and ``experiments`` do.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "gamma_lab"
STREAMS = {"stdout", "stderr", "__stdout__", "__stderr__"}
FILE_MODULES = {"cli.py", "config.py", "experiments.py"}


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


def _opens(tree):
    """Lines of each call of ``open`` or ``<anything>.open`` in a module's tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "open") or (
                    isinstance(func, ast.Attribute) and func.attr == "open"):
                yield node.lineno


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name not in FILE_MODULES))
def test_library_module_never_opens_files(path):
    tree = ast.parse((PACKAGE / path).read_text(), filename=path)
    assert list(_opens(tree)) == []


def test_the_check_sees_opens():
    source = "open('a')\nwith io.open('b') as fh:\n    pass\nfh.opener()\n"
    assert list(_opens(ast.parse(source))) == [1, 2]
