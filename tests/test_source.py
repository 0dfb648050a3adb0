"""Static checks on the package source."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "multicoh"
README = SRC.parents[1] / "README.md"


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


def dead_private_functions(sources: dict[str, str]) -> list[str]:
    """'module.name' of each module-level private function that no module's code reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        f"{name}.{node.name}" for name, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.endswith("__") and node.name not in read
    )


def test_no_dead_private_functions():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert dead_private_functions(sources) == []


def test_dead_private_function_scan():
    sources = {
        "a": "def _used(): pass\ndef _stranded(): pass\ndef _by_attr(): pass\n"
             "def __getattr__(name): pass\ndef public(): pass\n",
        "b": "from a import _used\nimport a\n_used()\na._by_attr()\n"
             "def _nested_caller():\n    def _inner(): pass\n    return _inner\n_stranded = 1\n",
    }
    assert dead_private_functions(sources) == ["a._stranded", "b._nested_caller"]


def call_sites(source: str, matches) -> list[str]:
    """The innermost function around each call for which matches(call) holds."""
    tree = ast.parse(source)
    owner = {}
    for fn in ast.walk(tree):  # breadth first, so an inner function is seen after its outer one
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(fn):
                owner[node] = getattr(fn, "name", "<lambda>")
    return [owner.get(node, "<module>") for node in ast.walk(tree)
            if isinstance(node, ast.Call) and matches(node)]


def trusted_sites(source: str) -> list[str]:
    """The innermost function around each object.__new__(LineBundleSum, ...) call."""
    return call_sites(source, lambda node: ast.unparse(node.func) == "object.__new__"
                      and node.args and ast.unparse(node.args[0]) == "LineBundleSum")


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


def guard_sites(source: str) -> list[str]:
    """The innermost function around each InputError(..., "E_GUARD", ...) or AuditGuardError
    call, by either name alone or as a module attribute."""
    def refuses(node):
        name = ast.unparse(node.func).rpartition(".")[2]
        args = [*node.args, *(keyword.value for keyword in node.keywords)]
        return name == "AuditGuardError" or name == "InputError" and any(
            isinstance(arg, ast.Constant) and arg.value == "E_GUARD" for arg in args)
    return call_sites(source, refuses)


def test_guards_have_one_home():
    # every E_GUARD refusal goes through core._refuse_past, which words them all alike
    sites = {p.name: guard_sites(p.read_text()) for p in SRC.glob("*.py")}
    assert {name: found for name, found in sites.items() if found} == {"core.py": ["_refuse_past"]}


def test_guard_site_scan():
    source = (
        'InputError("E_GUARD", "m")\nInputError("E_RANGE", "m")\n'
        'def f():\n    raise AuditGuardError(f"{n} rows")\n'
        'class A:\n    def g(self):\n'
        '        return lambda: core.InputError(code="E_GUARD", message="m")\n'
    )
    assert sorted(guard_sites(source)) == ["<lambda>", "<module>", "f"]


def guard_limits(source: str) -> set[str]:
    """The name of the limit, by position or keyword, in each call of _refuse_past."""
    limits = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_refuse_past":
            args = node.args[1:2] + [k.value for k in node.keywords if k.arg == "limit"]
            limits.update(ast.unparse(arg).rpartition(".")[2] for arg in args)
    return limits


def guard_table(readme: str) -> set[str]:
    """The constants in the first column of the table under the README's Guards heading."""
    section = readme.partition("\n### Guards\n")[2].partition("\n#")[0]
    return set(re.findall(r"^\| `(\w+)` = ", section, re.M))


def test_readme_guard_table_lists_every_limit():
    limits = set().union(*(guard_limits(p.read_text()) for p in SRC.glob("*.py")))
    assert limits == guard_table(README.read_text())


def test_guard_limit_scan():
    source = (
        '_refuse_past(n, BOX_GUARD, "twists", "box guard")\n'
        'def f():\n    return core._refuse_past(n, what="w", limit=core.LIMIT, guard="g")\n'
        "refuse(n, OTHER)\n_refuse_past_all(n, NOT_A_GUARD)\n"
    )
    assert guard_limits(source) == {"BOX_GUARD", "LIMIT"}
    readme = (
        "## A\n| `EARLIER` = 1 |\n### Guards\n\nText `IN_TEXT` = 2.\n\n| constant |\n|---|\n"
        "| `FIRST` = 10^6 | core |\n| `SECOND` = 3000 | koszul |\n\n## Later\n| `LATER` = 1 |\n"
    )
    assert guard_table(readme) == {"FIRST", "SECOND"}


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
