"""Every private helper in `src/cjde` is used: no def is left behind by a refactor."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "cjde")


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_defs(tree):
    """The private module-level functions and classes of a module, and the
    private methods of its module-level classes, as (name, def node)."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _is_private(node.name):
                defs.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [(item.name, item) for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and _is_private(item.name)]
    return defs


def references(tree):
    """(name, line) of every Name and Attribute in a module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
    return out


def test_every_private_def_is_referenced_outside_itself():
    trees = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read(), filename=name)
    refs = {name: references(tree) for name, tree in trees.items()}
    orphans, count = [], 0
    for module, tree in trees.items():
        for name, node in private_defs(tree):
            count += 1
            # a use inside the def's own lines (recursion) does not count
            used = any(ref == name and (other != module
                                        or not node.lineno <= line <= node.end_lineno)
                       for other, found in refs.items() for ref, line in found)
            if not used:
                orphans.append(f"{module}:{node.lineno} {name}")
    assert count > 0
    assert orphans == []
