"""Every name a flatlab module binds with ``from ... import`` is used there.

A deletion that leaves an import behind fails here.  The package's
``__init__.py`` re-exports names without using them, so it is not checked.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).parent.parent / "src" / "flatlab").glob("*.py")
                 if p.name != "__init__.py")


def unused_from_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_checker_flags_an_unused_name():
    src = "from .a import used, unused\nfrom . import mod\nprint(used, mod.x)\n"
    assert unused_from_imports(src) == [(1, "unused")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_from_imports(path):
    assert unused_from_imports(path.read_text()) == []
