"""Every name a library module imports is used in that module, and the
package's ``__all__`` lists exactly the names its ``__init__.py`` imports.

Each ``src/nomassoc/*.py`` module but the package's ``__init__.py``, whose
imports are its public names, is parsed with :mod:`ast`.  A name bound by
an import must appear elsewhere in the module as a name, the base of an
attribute, or inside a string annotation.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "nomassoc"
SOURCES = sorted(path for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")


def imported_names(tree):
    """``{name: line}`` of the names the module's imports bind."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree):
    """The names the module reads, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(
                    annotation.value, str):
                used |= used_names(ast.parse(annotation.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used_names(tree)}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_the_check_finds_an_unused_import():
    tree = ast.parse("import math\nimport numpy as np\n"
                     "from typing import Sequence\n"
                     "def f(x: 'Sequence[int]'):\n    return np.sum(x)\n")
    assert set(imported_names(tree)) - used_names(tree) == {"math"}


def test_all_lists_the_package_imports_in_order():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) == "__all__"
    )
    assert set(exported) == set(imported_names(tree))
    assert exported == sorted(exported)
