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


# ---------------------------------------------------------------------------
# Importers outside the suite: the scripts under benchmarks/ and
# perfbench/ never run in it, so a deleted library name would break
# them silently


ROOT = PACKAGE.parents[1]
SCRIPTS = sorted(p for d in ("benchmarks", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))

#: what perfbench/spans.py wraps, as (module, dotted attribute)
PATCHED = [
    ("bergman_lab.quadrature", "integrate_halfspace"),
    ("bergman_lab.quadrature", "halfspace_rule"),
    ("bergman_lab.spaces", "ainf_norm"),
    ("bergman_lab.distance", "_make_engine"),
    ("bergman_lab.distance", "_weighted_sup_on"),
    ("bergman_lab.distance", "_repro_defect"),
    ("bergman_lab.distance", "_BallZonalEngine.profile"),
    ("bergman_lab.distance", "_BallGridEngine.profile"),
    ("bergman_lab.distance", "_HalfGridEngine.profile"),
]


def _resolve(module, dotted):
    """The object ``module.dotted`` names, a submodule included."""
    obj = importlib.import_module(module)
    for i, part in enumerate(filter(None, dotted.split("."))):
        if not hasattr(obj, part):
            sub = ".".join([module] + dotted.split(".")[:i + 1])
            obj = importlib.import_module(sub)
        else:
            obj = getattr(obj, part)
    return obj


def _library_references(tree):
    """``(module, dotted name)`` of every name a script takes from
    ``bergman_lab``: its imports, and the attribute chains it reads off
    an imported library name."""
    refs, bound = [], {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "bergman_lab"):
            for alias in node.names:
                refs.append((node.module, alias.name))
                bound[alias.asname or alias.name] = (node.module,
                                                     [alias.name])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "bergman_lab":
                    refs.append((alias.name, ""))
                    if alias.asname:
                        bound[alias.asname] = (alias.name, [])
                    else:
                        bound["bergman_lab"] = ("bergman_lab", [])
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            module, prefix = bound[node.id]
            refs.append((module, ".".join(prefix + chain)))
    return refs


@pytest.mark.parametrize("path", SCRIPTS,
                         ids=[str(p.relative_to(ROOT)) for p in SCRIPTS])
def test_scripts_import_only_existing_names(path):
    missing = []
    for module, dotted in _library_references(
            ast.parse(path.read_text(), str(path))):
        try:
            _resolve(module, dotted)
        except (AttributeError, ImportError):
            missing.append(f"{module}.{dotted}")
    assert not missing, f"{path.name} uses missing library names {missing}"


@pytest.mark.parametrize("module,dotted", PATCHED,
                         ids=[f"{m}.{d}" for m, d in PATCHED])
def test_perfbench_patch_targets_resolve(module, dotted):
    assert callable(_resolve(module, dotted))
