"""The package's public surface: ``polyinj.__all__`` names exactly the
public functions and classes that ``polyinj/__init__.py`` imports from its
submodules, each once, and every name it lists resolves.  And its layering:
the verification suites do not reach up into the command line."""

import ast
import inspect
from pathlib import Path

import polyinj


def _imported_public():
    """Public callables bound in the package namespace and defined in one
    of its submodules (memoized functions included: their wrappers carry
    the wrapped function's module)."""
    return {
        name for name, obj in vars(polyinj).items()
        if not name.startswith("_") and not inspect.ismodule(obj) and callable(obj)
        and getattr(obj, "__module__", "").startswith("polyinj.")
    }


def test_all_names_resolve_once():
    assert len(polyinj.__all__) == len(set(polyinj.__all__))
    for name in polyinj.__all__:
        assert hasattr(polyinj, name), name
    namespace = {}
    exec("from polyinj import *", namespace)
    assert set(polyinj.__all__) <= set(namespace)


def test_all_lists_every_imported_function_and_class():
    assert set(polyinj.__all__) == _imported_public()


def test_checks_does_not_import_cli():
    """No import in ``polyinj/checks.py``, function-local ones included,
    names the ``cli`` module."""
    tree = ast.parse(Path(polyinj.__file__).with_name("checks.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names = [base] + [base.rstrip(".") + "." + alias.name for alias in node.names]
        else:
            continue
        for name in names:
            assert name not in ("polyinj.cli", ".cli"), (node.lineno, name)
