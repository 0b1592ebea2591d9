"""Structure guards over src/, read with ast: every module uses every
name it imports, only the numeric layer imports numpy, no module imports
dataclasses, the CLI loads the oracle only when a command needs it,
every public function, class or method has a caller in src/ or a named
outside user, every private one has a caller in src/, and one function
words the integer rule."""

import ast
import collections
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def package_sources() -> dict[str, str]:
    """File name -> source of every module of the package."""
    return {path.name: path.read_text() for path in sorted((SRC / "sl2rep").glob("*.py"))}


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
    sources = package_sources()
    assert sources
    unused = {name: names for name, source in sources.items() if (names := unused_imports(source))}
    assert unused == {}


def imported_modules(source: str, top_level_only: bool = False) -> set[str]:
    """The modules a source imports, relative ones with their leading
    dots; with top_level_only, not counting imports inside functions."""
    found = set()
    stack = [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add("." * node.level + (node.module or ""))
        if not (top_level_only and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))):
            stack.extend(ast.iter_child_nodes(node))
    return found


def numpy_importers(sources: dict[str, str]) -> set[str]:
    return {name for name, source in sources.items()
            if any(m.split(".")[0] == "numpy" for m in imported_modules(source))}


# the numeric layer; the exact commands run without numpy installed
NUMPY_MODULES = {"matrices.py", "traces.py", "oracle.py"}


def test_only_the_numeric_layer_imports_numpy():
    sources = package_sources()
    assert numpy_importers(sources) == NUMPY_MODULES
    planted = {**sources, "census.py": sources["census.py"] + "\nimport numpy.linalg\n"}
    assert numpy_importers(planted) == NUMPY_MODULES | {"census.py"}


def dataclasses_importers(sources: dict[str, str]) -> set[str]:
    return {name for name, source in sources.items() if "dataclasses" in imported_modules(source)}


def test_no_module_imports_dataclasses():
    # records.py stands in for it: dataclasses, with inspect, costs a
    # fresh interpreter ~12 ms
    sources = package_sources()
    assert dataclasses_importers(sources) == set()
    planted = {**sources, "oracle.py": "from dataclasses import dataclass\n" + sources["oracle.py"]}
    assert dataclasses_importers(planted) == {"oracle.py"}


def test_cli_loads_the_oracle_only_inside_functions():
    source = package_sources()["cli.py"]
    assert ".oracle" in imported_modules(source)
    assert ".oracle" not in imported_modules(source, top_level_only=True)
    planted = "from .oracle import MAX_SAMPLES\n" + source
    assert ".oracle" in imported_modules(planted, top_level_only=True)


def _referenced(node) -> collections.Counter:
    """How often each name is read under node, as a name or an attribute."""
    return collections.Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                               if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(tree):
    """(qualified name, node) of each top-level function and class, and
    of each method of a top-level class but the dunder ones."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"))


def unreferenced_definitions(sources: dict[str, str]) -> set[str]:
    """The top-level functions and classes and the methods, public or
    private, that no code of the sources names outside their own def;
    a method counts as named wherever its bare name is read."""
    trees = [ast.parse(source) for source in sources.values()]
    names = sum(map(_referenced, trees), collections.Counter())
    return {qualified for tree in trees for qualified, node in _definitions(tree)
            if names[node.name] == _referenced(node)[node.name]}


# public names with no caller in src/, each with the files outside it that
# use it (a method as ".name("); a name that gains a caller in src/ leaves
# this list.  A private name has no such entry: one that only tests read goes.
ACCEPTANCE, README, BENCH_TARGETS = "tests/test_acceptance.py", "README.md", "bench/worker.py"
OUTSIDE_USERS = {
    "ConstraintSystem.jacobian": (ACCEPTANCE, BENCH_TARGETS),
    "ConstraintSystem.residual_norm": (ACCEPTANCE,),
    "build_plan": (README, BENCH_TARGETS),
    "central_root_classes": (ACCEPTANCE,),
    "complete_point": (ACCEPTANCE,),
    "jacobian_fd": (ACCEPTANCE, BENCH_TARGETS),
    "random_sl2": (ACCEPTANCE, BENCH_TARGETS),
    "local_dimension": (README, BENCH_TARGETS),
    "sample_from_plan": (README, BENCH_TARGETS),
    "classify_trace": (BENCH_TARGETS,),
    "jacobian_rank": (BENCH_TARGETS,),
    "matrix_roots": (BENCH_TARGETS,),
}


def test_every_public_definition_has_a_caller_or_a_named_outside_user():
    sources = package_sources()
    assert unreferenced_definitions(sources) == set(OUTSIDE_USERS)
    for name, users in OUTSIDE_USERS.items():
        used = f".{name.rpartition('.')[2]}(" if "." in name else name
        assert all(used in (SRC.parent / user).read_text() for user in users), name
    helper = ("\n\ndef helper_for_tests(x):\n    return helper_for_tests(x - 1) if x else 0\n"
              "\n\ndef _private_helper(x):\n    return _private_helper(x - 1) if x else 0\n"
              "\n\nclass Helper:\n    def method_for_tests(self, x):\n"
              "        return self.method_for_tests(x - 1) if x else 0\n")
    planted = {**sources, "census.py": sources["census.py"] + helper}
    assert unreferenced_definitions(planted) == set(OUTSIDE_USERS) | {
        "helper_for_tests", "_private_helper", "Helper", "Helper.method_for_tests"}


# presentations.check_int is the package's one integer rule: no other
# code may word it, so the rule cannot fork again
INTEGER_RULE = "must be an integer"


def integer_rule_sites(sources: dict[str, str]) -> set[str]:
    """file:definition of every string literal (f-string parts among them)
    in the sources that words the integer rule."""
    sites = set()

    def visit(node, file, where):
        for child in ast.iter_child_nodes(node):
            inner = f"{file}:{child.name}" if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
            if isinstance(child, ast.Constant) and isinstance(child.value, str) and INTEGER_RULE in child.value:
                sites.add(inner)
            visit(child, file, inner)

    for name, source in sources.items():
        visit(ast.parse(source), name, name)
    return sites


def test_only_check_int_words_the_integer_rule():
    sources = package_sources()
    assert integer_rule_sites(sources) == {"presentations.py:check_int"}
    planted = {**sources, "census.py": sources["census.py"] + (
        "\n\ndef helper(x):\n    if x < 0:\n        raise ValueError(f'x must be an integer >= 0, got {x}')\n")}
    assert integer_rule_sites(planted) == {"presentations.py:check_int", "census.py:helper"}
