"""Every top-level name the package defines has a caller in the package or
the demos: code that only tests reach is a test reference, not package
code.  Dunder names such as ``__version__`` are read by tools, not
callers, and are left out."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "lrlab").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _defined(tree):
    """The top-level def, class and assigned names of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _referenced(tree):
    """Names read, attributes taken and names imported anywhere in a module;
    docstrings and other strings do not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_top_level_name_has_a_caller():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PACKAGE + DEMOS}
    used = {name for tree in trees.values() for name in _referenced(tree)}
    unused = [f"{path.name}: {name}" for path in PACKAGE
              for name in _defined(trees[path])
              if name not in used and not name.startswith("__")]
    assert not unused, unused
