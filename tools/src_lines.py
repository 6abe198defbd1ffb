"""Line counts of the cubeshadows package, by file and in total.

For each src/cubeshadows/*.py, prints its total lines, its code lines
(non-blank, not only a comment, and outside the docstrings of the module,
its classes and its functions, found by ast) and its docstring lines.

    python tools/src_lines.py
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubeshadows"
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers, from 1, spanned by every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int, int]:
    """(total, code, docstring) lines of one module's source."""
    text = source.splitlines()
    docs = docstring_lines(ast.parse(source))
    code = sum(
        1
        for number, line in enumerate(text, 1)
        if number not in docs and line.strip() and not line.lstrip().startswith("#")
    )
    return len(text), code, len(docs)


def main() -> None:
    totals = [0, 0, 0]
    print(f"{'file':<16}{'total':>7}{'code':>7}{'doc':>7}")
    for path in sorted(PACKAGE.glob("*.py")):
        counts = count(path.read_text())
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"{path.name:<16}" + "".join(f"{c:>7}" for c in counts))
    print(f"{'total':<16}" + "".join(f"{c:>7}" for c in totals))


if __name__ == "__main__":
    main()
