"""Indented JSON has one implementation: cli.indented_json."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def indented_dumps(source: str) -> list[int]:
    """The lines of json.dump/json.dumps calls (or bare dump/dumps) that
    pass indent=."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("dump", "dumps") and any(k.arg == "indent" for k in node.keywords):
                lines.append(node.lineno)
    return lines


def test_the_guard_sees_a_planted_indented_call():
    source = (
        "import json\n"
        "from json import dumps\n"
        "a = json.dumps({}, indent=2)\n"
        "b = json.dumps({})\n"
        "c = dumps([], sort_keys=True, indent=4)\n"
        "json.dump({}, open('f', 'w'), indent=None)\n"
        "d = json.loads('{}')\n"
    )
    assert indented_dumps(source) == [3, 5, 6]


def test_no_module_passes_indent_to_json():
    modules = sorted((SRC / "sl2rep").glob("*.py"))
    assert modules
    found = {path.name: lines for path in modules if (lines := indented_dumps(path.read_text()))}
    assert found == {}
