"""Source hygiene: every exported name in the package has a user outside the tests.

A name in a module's ``__all__``, or a public method or property of a
public class, that nothing but tests calls is code the library no longer
needs.  Names are matched as names, whichever class or module they belong
to.  A user is one of:

- a name, attribute or imported name anywhere under ``src/causalcomb``
  outside the name's own definition; the package ``__init__`` only
  re-exports, so it is not searched, and ``__all__`` holds strings, which
  never count;
- a mention of the name in ``perfbench/``, which also looks names up as
  strings (its tracer patches attributes by name);
- :data:`PINNED`, the names the fixed acceptance tests import.
"""

import ast
import re

from test_private_helpers import SRC, _references

PERFBENCH = SRC.parents[1] / "perfbench"

#: Exported for ``tests/test_acceptance.py``, which is fixed, though ``src/``
#: no longer calls them.
PINNED = {"tensor", "sort_wires", "correlation_norm"}


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _definitions(tree: ast.Module) -> dict[str, tuple[int, int]]:
    """The line span of each top-level function, class and assignment."""
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            spans[node.name] = (node.lineno, node.end_lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    spans[t.id] = (node.lineno, node.end_lineno)
    return spans


def _exported(tree: ast.Module):
    """``(label, name, line span)`` of each name in the module's ``__all__``."""
    spans = _definitions(tree)
    for name in _exports(tree):
        yield name, name, spans.get(name, (0, -1))


def _members(tree: ast.Module):
    """``(label, name, line span)`` of each public method and property of a
    public top-level class, labelled ``Class.name``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    yield f"{node.name}.{fn.name}", fn.name, (fn.lineno, fn.end_lineno)


def _unused(names) -> list[str]:
    """``"module label"`` for each name that ``names(tree)`` yields with no user."""
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    trees = {path: ast.parse(path.read_text()) for path in modules}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    bench = "\n".join(p.read_text() for p in sorted(PERFBENCH.glob("*.py")))
    unused = []
    for path, tree in trees.items():
        for label, name, (first, last) in names(tree):
            used = name in PINNED or re.search(rf"\b{name}\b", bench) or any(
                ref == name and not (other == path and first <= line <= last)
                for other, pairs in refs.items()
                for ref, line in pairs
            )
            if not used:
                unused.append(f"{path.name} {label}")
    return unused


def test_every_exported_name_is_used_outside_the_tests():
    unused = _unused(_exported)
    assert not unused, f"exported names with no user outside the tests: {unused}"


def test_every_public_method_and_property_is_used_outside_the_tests():
    unused = _unused(_members)
    assert not unused, f"public methods and properties with no user outside the tests: {unused}"
