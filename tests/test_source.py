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


def trusted_sites(source: str) -> list[str]:
    """The innermost function around each object.__new__(LineBundleSum, ...) call."""
    tree = ast.parse(source)
    owner = {}
    for fn in ast.walk(tree):  # breadth first, so an inner function is seen after its outer one
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(fn):
                owner[node] = getattr(fn, "name", "<lambda>")
    return [
        owner.get(node, "<module>")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__new__"
        and node.args and ast.unparse(node.args[0]) == "LineBundleSum"
    ]


def test_trusted_constructor_has_one_home():
    # LineBundleSum skips its checks only in core._canonical, whose callers meet its contract
    sites = {p.name: trusted_sites(p.read_text()) for p in SRC.glob("*.py")}
    assert {name: found for name, found in sites.items() if found} == {"core.py": ["_canonical"]}


def test_trusted_site_scan():
    source = (
        "object.__new__(LineBundleSum)\n"
        "def f():\n    def g():\n        return object.__new__( LineBundleSum )\n"
        "    return object.__new__(Shape), lambda: object.__new__(LineBundleSum)\n"
    )
    assert sorted(trusted_sites(source)) == ["<lambda>", "<module>", "g"]


CACHES = {"cache", "lru_cache"}


def cache_sites(source: str) -> list[str]:
    """The function each functools cache or lru_cache reference decorates, or the
    name its call is assigned to; "<bare>" for any other reference."""
    tree = ast.parse(source)
    modules, names = {"functools"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.name == "functools" and a.asname)
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update(alias.asname or alias.name for alias in node.names if alias.name in CACHES)
    owner = {}
    for site in ast.walk(tree):  # breadth first, so an inner binding is seen after its outer one
        if isinstance(site, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in (n for dec in site.decorator_list for n in ast.walk(dec)):
                owner[node] = site.name
        elif isinstance(site, (ast.Assign, ast.AnnAssign)) and site.value is not None:
            targets = site.targets if isinstance(site, ast.Assign) else [site.target]
            for node in ast.walk(site.value):
                owner[node] = ", ".join(ast.unparse(target) for target in targets)
    return [
        owner.get(node, "<bare>")
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and node.attr in CACHES
        and ast.unparse(node.value) in modules
    ]


def test_no_caches_but_the_parser():
    # a process-wide cache grows with every distinct input; the CLI parser is built once per process
    sites = {p.name: cache_sites(p.read_text()) for p in SRC.glob("*.py")}
    assert {name: found for name, found in sites.items() if found} == {"cli.py": ["_parser"]}


def test_cache_site_scan():
    source = (
        "import functools\nimport functools as ft\n"
        "from functools import lru_cache as lc, cached_property\n"
        "_parser = functools.cache(build)\n"
        "@ft.lru_cache(maxsize=None)\ndef f():\n    table: dict = lc()(g)\n"
        "class A:\n    @lc\n    def g(self):\n        return functools.reduce\n"
        "    @cached_property\n    def h(self):\n        return print(functools.cache)\n"
    )
    assert sorted(cache_sites(source)) == ["<bare>", "_parser", "f", "g", "table"]
