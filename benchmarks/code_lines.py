"""Code-line counter for the library: the size figure quoted in CHANGES.md
and ROADMAP.md.

    python3 benchmarks/code_lines.py

Prints one ``<lines> <module>`` row per module of ``src/colorspan`` of
this checkout, then the total.  A code line is a line that is not blank,
is not a comment, and does not lie inside a module, class or function
docstring.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "colorspan"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers every docstring in ``tree`` spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), 1)
        if number not in skip and line.strip() and not line.lstrip().startswith("#")
    )


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")


if __name__ == "__main__":
    main()
