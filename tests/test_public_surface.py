"""The library exports only what it runs.

Every public function, class and method in src/nlsdual must be referenced
from src/ or perfbench/ outside its own definition; code that only the
tests call belongs in tests/helpers.py.  A reference is a name, an
attribute, an imported name or a string constant equal to the name (the
benchmark's tracer looks entry points up by string); comments and
docstrings do not count.  Names are matched without their class, so a
method counts as referenced when any attribute of that name is.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_DEFS = (ast.FunctionDef, ast.ClassDef)


def _public_definitions(tree):
    """(qualified name, node) for each public top-level function and class
    and each public method of those classes."""
    for node in tree.body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _docstrings(tree) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFS)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(first.value)
    return out


def _references(tree):
    """(name, enclosing definitions) for every reference in a module."""
    docstrings = _docstrings(tree)
    out = []

    def visit(node, scope):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node not in docstrings):
            name = node.value
        if name is not None:
            out.append((name, scope))
        if isinstance(node, _DEFS):
            scope = scope + (node,)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    refs: dict[str, list] = {}
    for tree in trees.values():
        for name, scope in _references(tree):
            refs.setdefault(name, []).append(scope)
    unused = []
    for path, tree in trees.items():
        if path.parent != ROOT / "src" / "nlsdual":
            continue
        for qualname, node in _public_definitions(tree):
            if not any(node not in scope for scope in refs.get(node.name, [])):
                unused.append(f"{path.stem}.{qualname}")
    assert unused == [], "public names that only the tests call: " + ", ".join(unused)
