"""scripts/line_counts.py on a fixed source text and on a tree."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import line_counts  # noqa: E402

SOURCE = '''"""A module docstring
over two lines."""

# a comment-only line
x = 1  # code with an inline comment


def f():
    """A function docstring."""
    return x
'''


def test_counts_of_a_fixed_text():
    # 10 lines; 3 of them docstrings; of the other 7, two blank lines
    # after x, one after the module docstring, and the comment line
    # are not code
    assert line_counts.counts(SOURCE) == (10, 7, 3)


def test_a_tree_is_counted_module_by_module(tmp_path, capsys):
    package = tmp_path / "src" / "dahamac"
    package.mkdir(parents=True)
    (package / "a.py").write_text(SOURCE)
    (package / "b.py").write_text("y = 2\n\n")
    assert line_counts.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "no-doc", "code"],
                    ["a.py", "10", "7", "3"],
                    ["b.py", "2", "2", "1"],
                    ["total", "12", "9", "4"]]
