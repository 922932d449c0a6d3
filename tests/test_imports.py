"""No module of the package imports a name it never uses, no definition
of the package goes unused, and the names the benchmark's tracer looks up
stay as it expects.

No linter is a dependency, so these are the one check of each.  A name
bound by an import must be read somewhere in its module; names listed in
the module's `__all__` and imports on a line marked `# noqa: F401` are
exempt.  A function, method or class defined in the package must be named
somewhere in the package, the tests or the benchmarks besides its own
definition; dunder names are exempt.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import anglelab
from anglelab import cli

MODULES = sorted(Path(anglelab.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
SOURCES = [p for part in ("src", "tests", "benchmarks") for p in sorted((ROOT / part).rglob("*.py"))]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[node.lineno - 1] + lines[alias.lineno - 1]:
                    imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(n for n in imported if n not in used and n not in exported)


def test_the_check_finds_an_unused_import():
    source = (
        "import os\nfrom math import pi, tau  # noqa: F401\n"
        "from .errors import (\n    A,\n    B,\n    C,  # noqa: F401\n)\n"
    )
    assert unused_imports(source + "print(A)\n") == ["B", "os"]
    assert unused_imports(source + "__all__ = ['B', 'os']\nprint(A)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree: ast.AST) -> set[str]:
    """The names a source reads, imports or writes as a string constant,
    as `getattr` and the benchmark's hooks name them."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unused_definitions(package: list[str], others: list[str]) -> list[str]:
    """Names defined in the `package` sources that no source refers to."""
    trees = [ast.parse(source) for source in package]
    defined = {node.name for tree in trees for node in ast.walk(tree) if isinstance(node, DEFINITIONS)}
    used = set().union(*(_references(tree) for tree in trees + [ast.parse(s) for s in others]))
    return sorted(n for n in defined - used if not (n.startswith("__") and n.endswith("__")))


def test_the_check_finds_an_unused_definition():
    package = (
        "class A:\n    def __init__(self): pass\n    def m(self): pass\n    def n(self): pass\n"
        "def f(): return A().m()\ndef g(): pass\ndef h(): pass\n"
    )
    assert unused_definitions([package], []) == ["f", "g", "h", "n"]
    others = "from pkg import f as run\nrun(); getattr(object, 'g')\nclass Z:\n    def h(self): pass\n"
    assert unused_definitions([package], [others]) == ["h", "n"]


def test_every_definition_is_used():
    package = [p.read_text() for p in MODULES]
    package_paths = {p.resolve() for p in MODULES}
    others = [p.read_text() for p in SOURCES if p not in package_paths]
    assert unused_definitions(package, others) == []


def _tracer_hooks() -> tuple[tuple[str, str], ...]:
    """`HOOKS` of benchmarks/tracing.py, read without running the benchmark."""
    tree = ast.parse((ROOT / "benchmarks" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("benchmarks/tracing.py defines no HOOKS")


def test_every_tracer_hook_is_a_function_of_the_package():
    # the tracer skips a hook it cannot find and only counts it as missing
    missing = [
        f"{module}.{name}"
        for module, name in _tracer_hooks()
        if not inspect.isfunction(getattr(importlib.import_module(f"anglelab.{module}"), name, None))
    ]
    assert missing == []


def test_cli_imports_only_the_known_private_library_names():
    # the tracer wraps every library function cli imports, so a new private
    # import adds a span to every traced call of it
    private = {
        name
        for name, value in vars(cli).items()
        if inspect.isfunction(value)
        and value.__module__.startswith("anglelab.")
        and value.__module__ != cli.__name__
        and name.startswith("_")
    }
    assert private == {
        "_normalize_unit",
        "_block_hit",
        "_format_rows",
        "_total_triples",
        "_triple_angle_blocks",
        "_witness_json",
    }
