"""Line counts of the `dahamac` package, module by module.

    python3 scripts/line_counts.py [CHECKOUT]

For each module of CHECKOUT/src/dahamac (CHECKOUT defaults to the tree
this script is in), and in total, prints three counts: its lines; its
lines outside docstrings (those of the module, its classes and its
functions, found with `ast`); and its code lines, those of the second
count that are neither blank nor comment-only.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def counts(text):
    """(lines, lines outside docstrings, code lines) of a source text."""
    lines = text.splitlines()
    docs = _docstring_lines(ast.parse(text))
    outside = [line for i, line in enumerate(lines, start=1)
               if i not in docs]
    code = [line for line in outside
            if line.strip() and not line.lstrip().startswith("#")]
    return len(lines), len(outside), len(code)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=ROOT)
    package = parser.parse_args(argv).checkout / "src" / "dahamac"
    rows = [(path.name, counts(path.read_text()))
            for path in sorted(package.glob("*.py"))]
    rows.append(("total", tuple(map(sum, zip(*(c for _, c in rows))))))
    print(f"{'module':<14}{'lines':>8}{'no-doc':>8}{'code':>8}")
    for name, row in rows:
        print(f"{name:<14}" + "".join(f"{c:>8,}" for c in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
