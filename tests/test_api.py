"""Package hygiene: every exported name resolves, and no module imports
a name it never uses.  Only the standard library inspects the package.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bergman_lab

PACKAGE = Path(bergman_lab.__file__).resolve().parent
MODULES = ["bergman_lab"] + sorted(
    m.name for m in pkgutil.walk_packages(bergman_lab.__path__,
                                          "bergman_lab."))
SOURCES = sorted(PACKAGE.rglob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"


def _unused_imports(tree):
    """Names bound by an import statement that nothing in the module
    reads; a name listed in ``__all__`` counts as read (a re-export)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(PACKAGE)) for p in SOURCES])
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(), str(path)))
    assert not unused, f"{path.name} imports names it never uses: {unused}"
