"""Every top-level name the package defines has a caller in the package or
the demos: code that only tests reach is a test reference, not package
code.  Dunder names such as ``__version__`` are read by tools, not
callers, and are left out.  Every parameter with a default, of a
top-level function or class, is set by some call in the package, the
demos or the benchmark: a knob that nothing turns is not a feature.
Every ``__slots__`` entry of a class in the package is read as an
attribute somewhere in the package or the demos: a slot that is only
ever set is state that nothing uses.  Every top-level name of a test
reference module (``tests/*_reference.py``) is referenced by some test
file or reference: a reference that no test reaches checks nothing."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "lrlab").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCH = sorted((ROOT / "lrbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
REFERENCES = [path for path in TESTS if path.name.endswith("_reference.py")]


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


def test_every_reference_name_is_used_by_a_test():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in TESTS}
    used = {name for tree in trees.values() for name in _referenced(tree)}
    unused = [f"{path.name}: {name}" for path in REFERENCES
              for name in _defined(trees[path])
              if name not in used and not name.startswith("__")]
    assert len(REFERENCES) > 5 and not unused, unused


def _knobs(tree):
    """(name, index, parameter) for every parameter with a default of a
    top-level function, or of a top-level class's ``__init__``; index is
    the parameter's place among the positional arguments of a call, None
    for a keyword-only one."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            init = [f for f in node.body
                    if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
            if not init:
                continue
            args, skip = init[0].args, 1  # self
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args, skip = node.args, 0
        else:
            continue
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield node.name, i - skip, arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, None, arg.arg


def _aliases(tree):
    """new -> old for every top-level ``new = old`` of two names."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.value.id


def _set_by(call, index, param) -> bool:
    """Whether the call sets the parameter: by position, by keyword, or
    possibly through ``*args`` or ``**kwargs``."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    keywords = {k.arg for k in call.keywords}
    return (param in keywords or None in keywords
            or index is not None and index < len(call.args))


def test_every_parameter_with_a_default_is_set_by_some_call():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PACKAGE + DEMOS + BENCH}
    aliases = dict(pair for path in PACKAGE for pair in _aliases(trees[path]))
    knobs = {}
    for path in PACKAGE:
        for name, index, param in _knobs(trees[path]):
            knobs.setdefault(name, []).append((index, param, path.name))
    turned = set()
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            name = aliases.get(name, name)
            turned.update((name, param) for index, param, _ in knobs.get(name, ())
                          if _set_by(call, index, param))
    unset = [f"{module}: {name}({param}=...)" for name, params in knobs.items()
             for _, param, module in params if (name, param) not in turned]
    assert not unset, unset


def _slots(tree):
    """(class, name) for every string in the ``__slots__`` of a top-level
    class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (isinstance(stmt, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "__slots__"
                                for t in stmt.targets)):
                    for value in ast.walk(stmt.value):
                        if isinstance(value, ast.Constant) and isinstance(value.value, str):
                            yield node.name, value.value


def test_every_slot_is_read():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PACKAGE + DEMOS}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    slots = [(path.name, *slot) for path in PACKAGE for slot in _slots(trees[path])]
    unread = [f"{module}: {cls}.{name}" for module, cls, name in slots if name not in read]
    assert len(slots) > 40 and not unread, unread
