"""Every reference the documentation makes into the package resolves.

A backticked dotted name in ``README.md`` whose first part is a module of
the package (``dataset._count``) or a name the package exports
(``CategoricalDataset.take``) must name an attribute there; other dotted
names (``np.unique``, ``csv.reader``) and file names
(``expected_confusion.py``) are not the package's.
A ``:func:``, ``:class:``, ``:meth:``, ``:attr:`` or ``:data:`` reference
in a ``src/nomassoc`` module, in a docstring or a ``#:`` comment, must
resolve: a ``nomassoc.module.name`` path (with or without ``~``) from the
package, any other name against each class the reference sits in, from
the innermost out, and then against the module's own namespace, imports
included.  Each check is also run on a planted stale reference.
"""

import ast
import importlib
import re
from pathlib import Path

import nomassoc

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "nomassoc"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__",
                                                          "__main__"}
ROLE = re.compile(r":(?:func|class|meth|attr|data):`~?([\w.]+)`")
BACKTICKED = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)+)`")
FILE = re.compile(r"\.(?:py|json|md|csv|toml)$")


def resolves(scope, dotted):
    """Whether each part of ``dotted`` is an attribute of the one before,
    starting from ``scope``."""
    for part in dotted.split("."):
        if not hasattr(scope, part):
            return False
        scope = getattr(scope, part)
    return True


def readme_unresolved(text):
    """The package references of ``text`` that name nothing."""
    missing = []
    for dotted in BACKTICKED.findall(text):
        if FILE.search(dotted):
            continue
        first, rest = dotted.split(".", 1)
        if first in MODULES:
            scope = importlib.import_module(f"nomassoc.{first}")
        elif first in nomassoc.__all__:
            scope = getattr(nomassoc, first)
        else:
            continue
        if not resolves(scope, rest):
            missing.append(dotted)
    return missing


def source_unresolved(source, module):
    """``line: name`` of each role reference in ``source``, the text of
    ``module``, that names nothing."""
    classes = [node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef)]
    missing = []
    for match in ROLE.finditer(source):
        line = source.count("\n", 0, match.start()) + 1
        name = match.group(1)
        if name.startswith("nomassoc."):
            found = resolves(nomassoc, name.removeprefix("nomassoc."))
        else:
            inside = sorted((c for c in classes
                             if c.lineno <= line <= c.end_lineno),
                            key=lambda c: -c.lineno)
            scopes = [getattr(module, c.name) for c in inside
                      if hasattr(module, c.name)] + [module]
            found = any(resolves(scope, name) for scope in scopes)
        if not found:
            missing.append(f"{line}: {name}")
    return missing


def test_every_readme_reference_resolves():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert readme_unresolved(text) == []


def test_every_source_reference_resolves():
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        if not ROLE.search(source):
            continue  # __main__ runs the CLI when imported
        name = "nomassoc" if path.stem == "__init__" else f"nomassoc.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{path.name}:{entry}"
                    for entry in source_unresolved(source, module)]
    assert missing == []


def test_the_checks_find_a_stale_reference():
    text = ("`dataset._candidate_table`, `CategoricalDataset.take`, "
            "`dataset.take`, `np.unique`, `expected_confusion.py` and "
            "`selection._greedy`")
    assert readme_unresolved(text) == ["dataset._candidate_table",
                                       "dataset.take"]
    planted = '''
class CategoricalDataset:
    """:meth:`take` and :func:`_count`."""


def helper():
    """:meth:`take`, :func:`~nomassoc.dataset._candidate_table` and
    :class:`CompositeVariable`."""
'''
    assert source_unresolved(planted, nomassoc.dataset) == [
        "7: take", "7: nomassoc.dataset._candidate_table"]
    assert source_unresolved(planted, nomassoc.equivalence) == [
        "3: _count", "7: take", "7: nomassoc.dataset._candidate_table",
        "8: CompositeVariable"]
