"""Every scalar the program builds comes from its RepContext, and only
field.py reads a scalar's fraction or its factorization.

RepContext.scalar is the one constructor outside field.py, so the
coefficient field is decided in one place.  This file parses
src/dahamac with ast and fails on a call of a Scalar constructor
(Scalar(...), Scalar.zero, .one, .integer, .t, .q, .param_monomial)
anywhere else, apart from the entries of ALLOWED, and on any read of
an attribute num, den or fac outside field.py.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dahamac"
CONSTRUCTORS = {"zero", "one", "integer", "t", "q", "param_monomial"}
THE_CONSTRUCTOR = "rep.RepContext.scalar"

# call sites kept outside the context, each with its reason
ALLOWED = {}
FRACTION = {"num", "den", "fac"}


def _is_scalar(node):
    return (isinstance(node, ast.Name) and node.id == "Scalar") or \
        (isinstance(node, ast.Attribute) and node.attr == "Scalar")


def _is_constructor_call(node):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return _is_scalar(func) or (isinstance(func, ast.Attribute)
                                and func.attr in CONSTRUCTORS
                                and _is_scalar(func.value))


def _call_sites(node, prefix):
    """Qualified names of the definitions under node that call a
    Scalar constructor, one entry per call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield from _call_sites(child, f"{prefix}.{child.name}")
            continue
        if _is_constructor_call(child):
            yield prefix
        yield from _call_sites(child, prefix)


def _modules():
    """(name, tree) of every module of the package but field.py."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "field.py":
            yield path.stem, ast.parse(path.read_text())


def _sites():
    sites = []
    for name, tree in _modules():
        sites.extend(_call_sites(tree, name))
    return sites


def test_scalars_are_built_by_the_context():
    stray = sorted({site for site in _sites()
                    if site != THE_CONSTRUCTOR and site not in ALLOWED})
    assert stray == []


def test_the_constructor_and_allowed_sites_still_call_one():
    assert set(_sites()) >= {THE_CONSTRUCTOR, *ALLOWED}


def test_only_field_reads_the_fraction():
    reads = [f"{name}:{node.lineno}" for name, tree in _modules()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in FRACTION]
    assert reads == []
