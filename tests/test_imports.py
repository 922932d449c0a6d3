"""No module of the package imports a name it never uses.

No linter is a dependency, so this is the one check of it: a name bound by
an import must be read somewhere in its module.  Names listed in the
module's `__all__` and imports on a line marked `# noqa: F401` are exempt.
"""

import ast
from pathlib import Path

import pytest

import anglelab

MODULES = sorted(Path(anglelab.__file__).parent.glob("*.py"))


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
