"""Every defaulted parameter of an engine function is passed by some call.

A parameter with a default that no call in `src/`, `tests/` or
`perfbench/` passes, by keyword or by position, is a knob nobody turns.
Calls are matched by name, as `test_definitions.py` matches references:
`f(...)` and `x.f(...)` both count as calls of every function named `f`,
and a call of a class's name counts as a call of its `__init__`.  A call
that unpacks `*args` passes every positional parameter, and one that
unpacks `**kwargs` passes every parameter.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "thickloci"
MODULES = sorted(SRC.glob("*.py"))
SEARCHED = ("src", "tests", "perfbench")


def defaulted_parameters(path):
    """(qualified name, call name, positional index or None, parameter)
    for each parameter with a default in `path`."""
    out = []

    def visit(body, prefix, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
                bound = cls is not None and not static
                init = bound and node.name == "__init__"
                call_name = cls if init else node.name
                label = prefix[:-1] if init else prefix + node.name
                positional = node.args.posonlyargs + node.args.args
                first = len(positional) - len(node.args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    out.append((f"{label}.{arg.arg}", call_name, i - bound, arg.arg))
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                    if default is not None:
                        out.append((f"{label}.{arg.arg}", call_name, None, arg.arg))
                visit(node.body, f"{prefix}{node.name}.", None)

    visit(ast.parse(path.read_text(), filename=str(path)).body, "", None)
    return out


def _calls():
    """Call name -> [(number of positional arguments, keyword names)]."""
    calls = defaultdict(list)
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                npos = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
                calls[name].append((npos, {k.arg for k in node.keywords}))
    return calls


CALLS = _calls()


def _is_passed(call_name, index, param):
    return any(
        (index is not None and npos > index) or param in keywords or None in keywords
        for npos, keywords in CALLS[call_name]
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_default_is_overridden_somewhere(path):
    unpassed = [q for q, name, index, param in defaulted_parameters(path) if not _is_passed(name, index, param)]
    assert unpassed == []
