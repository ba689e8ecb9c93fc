"""Every name a flatlab module binds with ``from ... import`` is used there,
every module-level private function or class is referenced somewhere, and
no module but ``dynamics`` turns an orbit-graph vertex into points.

A deletion that leaves an import or a helper behind fails here.  The
package's ``__init__.py`` re-exports names without using them, so its
imports are not checked for use.  Elsewhere a Frobenius class is named by
its minimal polynomial over F_p (``dynamics.class_min_poly``, the first
F_p-linear relation among the powers of its point), so no report depends
on the modulus of F_{p^k}.  The points of a class are listed only by the
tests' oracle, ``conftest.frobenius_class``.
"""

import ast
import textwrap
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).parent.parent / "src" / "flatlab").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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


def orphaned_private_defs(defining, referencing=()):
    """(file, line, name) for each module-level function or class named
    _name in defining (file -> source) that no Name, Attribute or import
    alias in defining or referencing refers to; a recursive call counts."""
    trees = {file: ast.parse(source) for file, source in defining.items()}
    used = set()
    for tree in [*trees.values(), *map(ast.parse, referencing)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted((file, node.lineno, node.name) for file, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name.startswith("_") and not node.name.startswith("__")
                  and node.name not in used)


def test_checker_flags_an_orphaned_helper():
    src = textwrap.dedent("""\
        def _called():
            pass

        def _recursive(n):
            return _recursive(n - 1)

        class _Orphan:
            pass

        def _imported():
            pass

        def _attr():
            pass

        def public():
            _called()
        """)
    other = "from m import _imported\nimport m\nm._attr()\n"
    assert orphaned_private_defs({"m": src}, [other]) == [("m", 7, "_Orphan")]
    assert orphaned_private_defs({"m": src}) == [("m", 7, "_Orphan"), ("m", 10, "_imported"),
                                                 ("m", 13, "_attr")]


def test_no_orphaned_private_helpers():
    package = {p.name: p.read_text() for p in PACKAGE}
    assert orphaned_private_defs(package, [p.read_text() for p in TESTS]) == []


VERTEX_DECODERS = {"vertex_key", "vertex_point", "point_key"}


def vertex_decoder_uses(source):
    """(line, name) for each vertex decoder that source imports by name or
    reads as a module attribute."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            out += [(node.lineno, alias.name) for alias in node.names if alias.name in VERTEX_DECODERS]
        elif isinstance(node, ast.Attribute) and node.attr in VERTEX_DECODERS:
            out.append((node.lineno, node.attr))
    return sorted(out)


def test_checker_flags_a_vertex_decoder():
    src = textwrap.dedent("""\
        from .dynamics import critical_locus, point_key
        from . import dynamics
        from .dynamics import (
            class_min_poly,
            vertex_key,
        )
        dynamics.vertex_point(field, v)
        graph.point(v)
        """)
    assert vertex_decoder_uses(src) == [(1, "point_key"), (3, "vertex_key"), (7, "vertex_point")]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "dynamics.py"], ids=lambda p: p.name)
def test_only_dynamics_decodes_vertices(path):
    assert vertex_decoder_uses(path.read_text()) == []
