"""Every function and method an engine module defines is referenced by name.

A reference is a name, an attribute or a string constant anywhere in
`src/`, `tests/` or `perfbench/` (the benchmark's tracer hooks methods by
their names as strings).  Dunder methods are called by the language and
are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "thickloci"
MODULES = sorted(SRC.glob("*.py"))
SEARCHED = ("src", "tests", "perfbench")


def definitions(path):
    """Qualified names of the functions and methods defined in `path`."""
    out = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    out.append(f"{prefix}{node.name}")
                visit(node.body, f"{prefix}{node.name}.")

    visit(ast.parse(path.read_text(), filename=str(path)).body, "")
    return out


def _references():
    names = set()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


REFERENCES = _references()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_referenced(path):
    unreferenced = [q for q in definitions(path) if q.rpartition(".")[2] not in REFERENCES]
    assert unreferenced == []
