"""Static rules over the package source."""

import ast
import importlib
from pathlib import Path

import mindist

SOURCES = sorted(Path(mindist.__file__).resolve().parent.glob("*.py"))


def _raises_assertion_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_in_package():
    # checks in src/ must hold under python -O, which strips assert
    # statements; an AssertionError would also escape the CLI's exit codes
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert) or _raises_assertion_error(node):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_export_lists_resolve():
    # a name left in __all__ after its definition is gone breaks
    # ``from mindist import *`` and misleads readers of the public surface
    modules = [mindist] + [importlib.import_module(f"mindist.{p.stem}")
                           for p in SOURCES if p.stem != "__init__"]
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []


def test_only_codes_calls_identify():
    # a code's identity is proven once, by LinearCode, and read from
    # ``code.identity``: a second call elsewhere could see a hint that
    # changed since construction
    callers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "identify":
                    callers.append(f"{path.name}:{node.lineno}")
    assert callers and all(c.startswith("codes.py:") for c in callers), callers


def test_no_rank_call_in_package():
    # a code's generator is reduced once, when it is built, into
    # ``code.basis``, which also proves its rank; a ``.rank()`` call would
    # reduce a generator again
    calls = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "rank"):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []
