"""Source hygiene: every private helper in the package has a caller in the package.

A private (``_``-prefixed, not dunder) top-level function or method that
only tests call is code the library no longer needs.  A reference is any
name, attribute or import of the helper's name anywhere under
``src/causalcomb`` outside the helper's own definition.
"""

import ast
from pathlib import Path

import causalcomb

SRC = Path(causalcomb.__file__).resolve().parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _helpers(tree: ast.Module):
    """Private functions at module level and in module-level class bodies."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in members:
            if isinstance(fn, ast.FunctionDef) and _is_private(fn.name):
                yield fn


def _references(tree: ast.Module):
    """``(name, line)`` for every name, attribute and imported name in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_every_private_helper_is_used_in_the_package():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    unused = []
    for path, tree in trees.items():
        for fn in _helpers(tree):
            used = any(
                name == fn.name
                and not (other == path and fn.lineno <= line <= fn.end_lineno)
                for other, pairs in refs.items()
                for name, line in pairs
            )
            if not used:
                unused.append(f"{path.name}:{fn.lineno} {fn.name}")
    assert not unused, f"private helpers with no caller in the package: {unused}"
