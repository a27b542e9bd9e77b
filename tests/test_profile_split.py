"""scripts/profile_split.py: one profiled oracle pass, read back."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import profile_split  # noqa: E402


def test_profile_split_prints_the_named_shares(capsys):
    names = ["linalg.joint_left_kernel", "rep.matrix_of", "nonsym.nothing"]
    assert profile_split.main(["--workload", "oracle", *names]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["pass", *names]
    rows = {line.split()[0]: (float(line.split()[1]),
                              float(line.split()[3].rstrip("%")))
            for line in lines}
    total = rows["pass"][0]
    assert total > 0 and rows["pass"][1] == 100.0
    assert 0 < rows["linalg.joint_left_kernel"][0] <= total
    assert 0 < rows["rep.matrix_of"][1] < 100
    assert rows["nonsym.nothing"] == (0.0, 0.0)


def test_profile_split_lists_the_largest_without_names(capsys):
    profile_split.main(["--workload", "oracle"])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 1 + profile_split.TOP
    seconds = [float(row[1]) for row in rows[1:]]
    assert seconds == sorted(seconds, reverse=True)
    assert rows[1][0] == "nonsym.eigen_oracle_Y"
