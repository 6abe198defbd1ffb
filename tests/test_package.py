"""The public names resolve, read from the source without running demos."""

import ast
from pathlib import Path

import cubeshadows

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_every_exported_name_resolves():
    missing = [n for n in cubeshadows.__all__ if not hasattr(cubeshadows, n)]
    assert missing == []


def test_every_name_the_demos_import_resolves():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "cubeshadows":
                for alias in node.names:
                    assert hasattr(cubeshadows, alias.name), (path.name, alias.name)
