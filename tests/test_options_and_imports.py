"""Every library option has a caller, and every import is used.

A defaulted parameter of a public function or method in src/nlsdual
(``__init__`` and ``__new__`` included) must be passed, by keyword or by
position, by some call in src/ or perfbench/; a value that only the tests
vary is a constant of the function instead.  As in test_public_surface.py,
calls are matched by name: a call to ``f`` or ``obj.f`` counts for every
function and method named ``f``, and a call to a class counts for its
``__init__`` and ``__new__``.

Every name that a module of src/nlsdual or tests/ imports must be used in
that module; a name listed in ``__all__`` and a ``from __future__`` import
count as used.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_CONSTRUCTORS = ("__init__", "__new__")


def _parse(paths):
    return {path: ast.parse(path.read_text(), str(path)) for path in paths}


def _defaulted(fn, bound: bool):
    """(parameter, position among the call's positional arguments or None)
    for each defaulted parameter of fn."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if bound:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    for i, a in enumerate(positional[first:], start=first):
        yield a.arg, i
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield a.arg, None


def _options(stem, tree):
    """(label, call name, parameter, position) for the defaulted parameters
    of each public function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            for param, pos in _defaulted(node, bound=False):
                yield f"{stem}.{node.name}({param})", node.name, param, pos
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name in _CONSTRUCTORS:
                    name = node.name
                elif item.name.startswith("_"):
                    continue
                else:
                    name = item.name
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                for param, pos in _defaulted(item, bound=not static):
                    yield f"{stem}.{node.name}.{item.name}({param})", name, param, pos


def _passes(call: ast.Call, param: str, pos) -> bool:
    if any(kw.arg in (param, None) for kw in call.keywords):     # None: a **mapping
        return True
    if pos is None:
        return False
    return pos < len(call.args) or any(isinstance(a, ast.Starred) for a in call.args)


def _call_name(call: ast.Call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def test_every_option_is_passed_outside_the_tests():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = _parse(files)
    calls: dict[str, list] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_call_name(node), []).append(node)
    unset = []
    for path, tree in trees.items():
        if path.parent != ROOT / "src" / "nlsdual":
            continue
        for label, name, param, pos in _options(path.stem, tree):
            if not any(_passes(call, param, pos) for call in calls.get(name, [])):
                unset.append(label)
    assert unset == [], "options that only the tests set: " + ", ".join(unset)


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_every_import_is_used():
    files = sorted((ROOT / "src" / "nlsdual").glob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    unused = []
    for path, tree in _parse(files).items():
        used = _used_names(tree)
        unused += [f"{path.relative_to(ROOT)}: {name}"
                   for name in _imported_names(tree) if name not in used]
    assert unused == [], "imported and never used: " + ", ".join(unused)
