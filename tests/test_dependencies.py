"""The package runs on the standard library alone: every import in
src/quivertilt/*.py is relative or names a standard-library module."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "quivertilt").glob("*.py"))


def outside_imports(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.partition(".")[0] not in sys.stdlib_module_names]


def test_sources_import_only_the_standard_library():
    assert SOURCES
    found = {path.name: outside_imports(ast.parse(path.read_text())) for path in SOURCES}
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_a_third_party_import_is_caught():
    tree = ast.parse("import os\nimport numpy.linalg\nfrom . import reps\nfrom sympy import Matrix\n")
    assert outside_imports(tree) == ["numpy.linalg", "sympy"]
