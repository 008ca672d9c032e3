"""Count code, docstring, comment and blank lines per Python module.

Usage, from the repository root::

    python tools/src_lines.py [PATH ...]      # default: src

Each PATH is a ``.py`` file or a directory searched for them.  Every line
of a module falls in exactly one class, in this order of precedence:

* docstring -- a line of a module, class or function docstring, found
  with ``ast`` (the blank lines inside a docstring count here);
* blank -- nothing but whitespace;
* comment -- a line whose first token is a comment (``tokenize``);
* code -- every other line, including the lines of a string that is not
  a docstring.

The script prints one row per module and a total row, so a change can
state its net code lines from one count.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

CLASSES = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _comment_lines(source: str) -> set[int]:
    lines: set[int] = set()
    seen: set[int] = set()  # lines whose first token has been read
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                        tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        row = tok.start[0]
        if row not in seen:
            seen.add(row)
            if tok.type == tokenize.COMMENT:
                lines.add(row)
    return lines


def count(source: str) -> dict[str, int]:
    """The line count of each class in one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    comments = _comment_lines(source)
    counts = dict.fromkeys(CLASSES, 0)
    for row, line in enumerate(source.splitlines(), 1):
        if row in docstrings:
            counts["docstring"] += 1
        elif not line.strip():
            counts["blank"] += 1
        elif row in comments:
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def modules(paths: list[str]) -> list[Path]:
    found = []
    for path in map(Path, paths):
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv: list[str]) -> int:
    total = dict.fromkeys(CLASSES, 0)
    print(f"{'module':<44}" + "".join(f"{c:>10}" for c in CLASSES) + f"{'lines':>8}")
    for path in modules(argv or ["src"]):
        counts = count(path.read_text(encoding="utf-8"))
        for c in CLASSES:
            total[c] += counts[c]
        print(f"{str(path):<44}" + "".join(f"{counts[c]:>10}" for c in CLASSES)
              + f"{sum(counts.values()):>8}")
    print(f"{'total':<44}" + "".join(f"{total[c]:>10}" for c in CLASSES)
          + f"{sum(total.values()):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
