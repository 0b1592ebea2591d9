"""Every module under src/ uses every name it imports."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def unused_imports(source: str) -> list[str]:
    """The names a module imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a name listed in __all__ is exported, which is a use
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in getattr(node.value, "elts", []) if isinstance(elt, ast.Constant)}
    return [name for name in imported if name not in used]


def test_the_guard_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "import xml.dom\n"
        "from fractions import Fraction\n"
        "from dataclasses import dataclass, field\n"
        "from .traces import orbit_count\n"
        "__all__ = ['orbit_count']\n"
        "@dataclass\n"
        "class A:\n"
        "    x: Fraction\n"
        "print(np.pi, xml.dom)\n"
    )
    assert unused_imports(source) == ["os", "field"]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted((SRC / "sl2rep").glob("*.py"))
    assert modules
    unused = {path.name: names for path in modules if (names := unused_imports(path.read_text()))}
    assert unused == {}
