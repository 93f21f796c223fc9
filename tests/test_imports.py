"""Every name a library module imports is used in that module, every
private helper a module defines is read in the package, and the package's
``__all__`` lists exactly the names its ``__init__.py`` imports.

Each ``src/nomassoc/*.py`` module but the package's ``__init__.py``, whose
imports are its public names, is parsed with :mod:`ast`.  A name bound by
an import must appear elsewhere in the module as a name, the base of an
attribute, or inside a string annotation.  A module-level private name (a
function, class or constant whose name starts with one ``_``) must be read
by some other statement of some package module: as a name, an attribute,
or an import from a module.  The code-line counter, ``code_lines.py``,
is checked on a planted snippet.
"""

import ast
from pathlib import Path

import pytest
from code_lines import code_lines

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


def private_definitions(tree):
    """``{name: statement}`` of the module-level private names ``tree``
    defines with a ``def``, a ``class`` or an assignment."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [name.id for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        defined.update((name, node) for name in names
                       if name.startswith("_") and not name.startswith("__"))
    return defined


def read_names(node):
    """The names ``node`` reads as a name, an attribute or an import from
    a module."""
    read = used_names(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            read.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            read.update(alias.name for alias in sub.names)
    return read


def orphaned(trees):
    """The private names the module ``trees`` define that no other
    top-level statement of theirs reads."""
    statements = [node for tree in trees for node in tree.body]
    reads = [read_names(node) for node in statements]
    return {name for tree in trees
            for name, definition in private_definitions(tree).items()
            if not any(name in read for node, read in zip(statements, reads)
                       if node is not definition)}


def test_every_private_helper_is_read():
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))]
    unread = orphaned(trees)
    assert not unread, f"defined but never read in the package: {unread}"


def test_the_check_finds_an_orphaned_helper():
    trees = [ast.parse("_LIMIT, _SPARE = 3, 4\n"
                       "def _used():\n    return _LIMIT\n"
                       "def _orphan(n):\n    return _orphan(n - 1)\n"
                       "class _Unread:\n    pass\n"),
             ast.parse("from .a import _used\nprint(_used())\n")]
    assert orphaned(trees) == {"_SPARE", "_orphan", "_Unread"}


def test_all_lists_the_package_imports_in_order():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) == "__all__"
    )
    assert set(exported) == set(imported_names(tree))
    assert exported == sorted(exported)


def test_the_counter_counts_only_code_lines():
    source = ('"""A module\ndocstring."""\n'
              "\n"
              "# a comment\n"
              "import math  # a trailing comment\n"
              "\n\n"
              "class Box:\n"
              '    """A class docstring."""\n'
              "    size = math.prod([2,\n"
              "                      3])\n"
              "\n"
              "    def area(self):\n"
              "        'A function docstring.'\n"
              '        text = """a string\n'
              '        of two lines"""\n'
              "        return text\n")
    # import, class, size (2 lines), def, text (2 lines), return
    assert code_lines(source) == 8
