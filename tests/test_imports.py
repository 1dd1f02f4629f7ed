"""Static hygiene: every module-level import in src/nctorus is used, every
module-level private name is referenced, and every public error class of the
library modules is exported from the package."""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nctorus"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    `from __future__` imports are exempt; a name listed in a module-level
    `__all__` counts as read.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def test_detector_flags_unused_and_spares_used():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom math import pi, tau\n"
              "from .x import kept\n__all__ = ['kept']\n"
              "def f():\n    return np.zeros(1) * pi\n")
    assert unused_imports(source) == ["os (line 2)", "tau (line 4)"]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports((SRC / path).read_text()) == []


def _private_names(node: ast.stmt) -> list[str]:
    """Names with one leading underscore that a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _reads(node: ast.stmt) -> set[str]:
    """Names a statement reads: as a name, as an attribute, or by import."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants that no
    top-level statement of any of the modules reads, other than the name's
    own definition."""
    tops = [(mod, node) for mod, src in sources.items() for node in ast.parse(src).body]
    reads = {id(node): _reads(node) for _, node in tops}
    count = Counter(name for names in reads.values() for name in names)
    return sorted(f"{mod}.{name} (line {node.lineno})" for mod, node in tops
                  for name in _private_names(node) if count[name] == (name in reads[id(node)]))


def test_private_detector_flags_dead_and_spares_referenced():
    a = ("import b\n_LIMIT = 3\n_imported = 1\n"
         "def _used(x):\n    return x < _LIMIT\n"
         "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
         "class _Dead:\n    pass\n"
         "def public():\n    return _used(1) + b._helper()\n")
    b = "from a import _imported\ndef _helper():\n    return 0\n_ORPHAN: int = 1\n"
    assert unreferenced_privates({"a": a, "b": b}) == [
        "a._Dead (line 8)", "a._recursive (line 6)", "b._ORPHAN (line 4)"]


def test_no_unreferenced_private_names():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def public_exceptions(module) -> list[str]:
    """Public Exception subclasses that module defines itself."""
    return sorted(name for name, obj in vars(module).items()
                  if inspect.isclass(obj) and issubclass(obj, Exception)
                  and obj.__module__ == module.__name__ and not name.startswith("_"))


@pytest.mark.parametrize("module", ["algebra", "heisenberg", "models", "symmetry"])
def test_public_exceptions_are_exported(module):
    import nctorus

    mod = importlib.import_module(f"nctorus.{module}")
    missing = [name for name in public_exceptions(mod)
               if getattr(nctorus, name, None) is not getattr(mod, name)]
    assert missing == []
