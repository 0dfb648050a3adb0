"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "multicoh"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's import statements that its code never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


# __init__.py imports in order to re-export.
@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(name):
    assert unused_imports((SRC / name).read_text()) == []


def test_unused_import_scan():
    source = "import os.path\nimport json as j\nfrom math import comb, gcd\nprint(comb, os.sep)\n"
    assert unused_imports(source) == ["gcd", "j"]
