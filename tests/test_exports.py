"""Every public module-level function and class in dahamac has a user,
and so does every public method of a public class (dunder methods are
the language's, not the program's, and are not checked).  By the same
rule, every private module-level function and every private method of
any class has a caller.

A name counts as used when the program, the scripts, the benchmark or
the acceptance file refers to it outside its own definition: as a
Name, an Attribute, an imported name, or a string constant (the
benchmark's tracer names its targets by string).  The unit tests do
not count, so a function only they call is a dead export.

T_j, pi and Y_i have one definition each, in rep: the exact check of
E runs them on packed integers through a context of its ring, so a
second definition would be a second operator route.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dahamac"
USERS = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
         *(ROOT / "perfbench").glob("*.py"),
         ROOT / "tests" / "test_acceptance.py"]

# names kept without a user in the program, each for a test
ALLOWED = {
    "nonsym.clear_cache": "empties the memo caches between tests",
    "field.Scalar.evaluate": "the numeric specialisations of the "
                             "external anchors",
}


def _referenced(node):
    """The names node refers to."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _public(nodes, kinds):
    return [node for node in nodes
            if isinstance(node, kinds) and not node.name.startswith("_")]


def _public_definitions(tree):
    """(qualified name, node) of each public function and class at
    module level and each public method of a public class."""
    for node in _public(tree.body, (ast.FunctionDef, ast.ClassDef)):
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in _public(node.body, ast.FunctionDef):
                yield f"{node.name}.{method.name}", method


def _private_definitions(tree):
    """(qualified name, node) of each private function at module level
    and each private, non-dunder method of a class at module level."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and private(node.name):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if (isinstance(method, ast.FunctionDef)
                        and private(method.name)):
                    yield f"{node.name}.{method.name}", method


def _unused(definitions):
    """The qualified names, as module.name, that definitions(tree) gives
    for a module of the package and that nothing among USERS refers to
    outside the definition itself (recursion does not count)."""
    trees = {path: ast.parse(path.read_text()) for path in USERS}
    counts = Counter(name for tree in trees.values()
                     for name in _referenced(tree))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, node in definitions(trees[path]):
            own = sum(name == node.name for name in _referenced(node))
            key = f"{path.stem}.{qualified}"
            if counts[node.name] == own and key not in ALLOWED:
                unused.append(key)
    return unused


def test_every_public_definition_has_a_user():
    assert _unused(_public_definitions) == []


def test_every_private_definition_has_a_caller():
    assert _unused(_private_definitions) == []


def test_allowed_names_still_exist():
    for key in ALLOWED:
        module, name = key.split(".", 1)
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert name in dict(_public_definitions(tree))


OPERATORS = ("apply_T", "apply_pi", "apply_Y")


def test_each_operator_has_one_definition():
    defs = Counter(f"{path.stem}.{node.name}"
                   for path in PACKAGE.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef))
                   and node.name in OPERATORS)
    assert defs == {f"rep.{name}": 1 for name in OPERATORS}
