"""Every function, class and method in `src/hilbdiag` is reached by the
package or by perfbench; the one exception is a documented test oracle.

A name counts as reached when it occurs as a `Name` or an `Attribute` in
a module of `src/hilbdiag` other than `__init__`, or in `perfbench/*.py`,
where string constants also count (the tracer names the functions it
wraps).  The definition itself is not an occurrence.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hilbdiag"

# test oracles kept in src/ on purpose
ORACLES = {"is_groebner"}


def _defined(tree):
    """Top-level functions and classes, and their non-dunder methods."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(item.name for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and not item.name.startswith("__"))
    return names


def _used(tree, strings):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def unreached():
    defined, used = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined |= _defined(tree)
        if path.name != "__init__.py":
            used |= _used(tree, strings=False)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _used(ast.parse(path.read_text(), str(path)), strings=True)
    return defined - used


def test_only_the_oracles_are_unreached():
    assert unreached() == ORACLES
