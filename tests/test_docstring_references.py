"""Source hygiene: every cross-reference in the package's docs names something that exists.

A ``:func:``, ``:meth:``, ``:class:``, ``:data:`` or ``:attr:`` role in a
docstring or doc comment under ``src/causalcomb`` must resolve to one of:

- a name qualified with ``causalcomb.``, imported and looked up attribute
  by attribute;
- an attribute of the module it is written in, followed by the same
  lookup for any dotted rest (``Factor.shut``);
- a member of a class defined in that module (``:meth:`shut``` in
  ``Factor``'s docstring).

Every backticked ``module.name`` in ``README.md`` whose module is one of
the package's (``discovery._pair_gaps``, ``combs.MAX_ENTRIES = 2**20``)
must name an attribute of that module, looked up the same way.

So a rename that leaves a stale reference behind fails here.
"""

import importlib
import inspect
import re

import pytest

from test_private_helpers import SRC

ROLE = re.compile(r":(?:func|meth|class|data|attr):`~?([\w.]+)`")
README = SRC.parents[1] / "README.md"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
README_REF = re.compile(rf"`((?:{'|'.join(MODULES)})\.\w+(?:\.\w+)*)")


def _lookup(obj, dotted: list[str]) -> bool:
    for name in dotted:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def _qualified(target: str) -> bool:
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        return _lookup(module, parts[cut:])
    return False


def _resolves(module, target: str) -> bool:
    if target.startswith("causalcomb."):
        return _qualified(target)
    first, *rest = target.split(".")
    if hasattr(module, first):
        return _lookup(getattr(module, first), rest)
    classes = [
        c for _, c in inspect.getmembers(module, inspect.isclass)
        if c.__module__ == module.__name__
    ]
    return not rest and any(hasattr(c, first) for c in classes)


def _references():
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"causalcomb.{path.stem}".removesuffix(".__init__"))
        for number, line in enumerate(path.read_text().splitlines(), 1):
            for target in ROLE.findall(line):
                yield module, f"{path.name}:{number}", target


def test_every_docstring_cross_reference_resolves():
    refs = list(_references())
    assert len(refs) > 50
    stale = [f"{where} {target}" for module, where, target in refs if not _resolves(module, target)]
    assert not stale, f"cross-references to nothing: {stale}"


@pytest.mark.parametrize(
    "module, target",
    [
        ("causalcomb.oracle", "_Factor.pair_state"),
        ("causalcomb.oracle", "pair_state"),
        ("causalcomb.combs", "causalcomb.tensors.marginal"),
        ("causalcomb.combs", "causalcomb.nowhere.fold"),
        ("causalcomb.oracle", "OracleSession.nothing"),
    ],
)
def test_a_stale_reference_does_not_resolve(module, target):
    assert not _resolves(importlib.import_module(module), target)


def _stale_readme_references(text: str) -> list[str]:
    refs = README_REF.findall(text)
    assert len(refs) >= 12
    return [ref for ref in refs if not _qualified(f"causalcomb.{ref}")]


def test_every_readme_module_reference_resolves():
    stale = _stale_readme_references(README.read_text())
    assert not stale, f"README names nothing at: {stale}"


def test_a_readme_naming_a_deleted_helper_fails():
    text = README.read_text() + "\nV is built by `combs._apply_two_site`.\n"
    assert _stale_readme_references(text) == ["combs._apply_two_site"]
