"""Every module-level private name and ALL_CAPS constant of the package is read in it.

A name that nothing in ``src/cvlbi`` reads states a fact no code relies on, so it
can drift from the code that does. Reads by tests do not count; an import does.
The package's ``__all__`` lists exactly the names its ``__init__`` imports, and
every function the benchmark traces by name still exists.
"""

import ast
import importlib
from pathlib import Path

REPO_DIR = Path(__file__).resolve().parent.parent
PACKAGE_DIR = REPO_DIR / "src" / "cvlbi"


def _checked(name: str) -> bool:
    """A private name (one leading underscore) or an ALL_CAPS constant."""
    return (name.startswith("_") and not name.startswith("__")) or name.isupper()


def _targets(node: ast.stmt) -> list:
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def _root(node: ast.expr) -> ast.expr:
    """The name that ``a.b[i] = ...`` writes into: ``a``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node


def _definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        for target in _targets(node):
            names.update(
                n.id for n in ast.walk(target)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            )
    return {name for name in names if _checked(name)}


def _reads(tree: ast.Module) -> set[str]:
    """Names loaded anywhere in the module, except where they are only written into."""
    written = {
        id(_root(n))
        for node in ast.walk(tree)
        for target in _targets(node)
        for n in ast.walk(target)
        if isinstance(n, (ast.Attribute, ast.Subscript)) and isinstance(n.ctx, ast.Store)
    }
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and id(node) not in written
    }


def _imports(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for each ``from .module import name``."""
    return {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }


def unread_names(package_dir: Path) -> list[str]:
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in package_dir.glob("*.py")
    }
    imported = set().union(*map(_imports, trees.values()))
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _definitions(tree) - _reads(tree)
        if (module, name) not in imported
    )


def test_every_private_name_and_constant_is_read():
    assert unread_names(PACKAGE_DIR) == []


def test_all_lists_exactly_the_names_the_package_imports():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    (exported,) = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]
    ]
    assert sorted(exported) == sorted({name for _, name in _imports(tree)})


def test_finds_an_unread_constant_and_accepts_a_read_one(tmp_path):
    (tmp_path / "a.py").write_text(
        "LIMIT = 1\nUNUSED = 2\n_TABLE = [0]\n_TABLE[0] = LIMIT\n_helper = None\n"
    )
    (tmp_path / "b.py").write_text("from .a import _helper\n")
    assert unread_names(tmp_path) == ["a.UNUSED", "a._TABLE"]


def test_every_name_the_benchmark_traces_exists():
    """``bench/worker.py``'s ``TRACED`` dict, read as a literal without importing the worker."""
    tree = ast.parse((REPO_DIR / "bench" / "worker.py").read_text(encoding="utf-8"))
    (traced,) = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    ]
    missing = [
        f"cvlbi.{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not hasattr(importlib.import_module(f"cvlbi.{module}"), name)
    ]
    assert traced and missing == []
