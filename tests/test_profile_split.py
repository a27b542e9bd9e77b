"""scripts/profile_split.py: one profiled oracle pass, read back."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import profile_split  # noqa: E402
import workloads  # noqa: E402


def test_profile_split_prints_the_named_shares(capsys):
    names = ["linalg.joint_left_kernel", "rep.matrix_of", "nonsym.nothing",
             "nonsym.eigen_oracle_Y"]
    assert profile_split.main(["--workload", "oracle", *names]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["pass", *names]
    rows = {line.split()[0]: (float(line.split()[1]),
                              float(line.split()[3].rstrip("%")),
                              int(line.split()[4]))
            for line in lines}
    total = rows["pass"][0]
    assert total > 0 and rows["pass"][1:] == (100.0, 1)
    assert 0 < rows["linalg.joint_left_kernel"][0] <= total
    assert 0 < rows["rep.matrix_of"][1] < 100
    assert rows["nonsym.nothing"] == (0.0, 0.0, 0)
    # the last column counts calls: one oracle per operation of the pass
    ops, _ = workloads.make_ops("oracle", "1/0")
    assert rows["nonsym.eigen_oracle_Y"][2] == len(ops)
    assert 0 < rows["rep.matrix_of"][2] < len(ops)


def test_profile_split_lists_the_largest_without_names(capsys):
    profile_split.main(["--workload", "oracle"])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 1 + profile_split.TOP
    seconds = [float(row[1]) for row in rows[1:]]
    assert seconds == sorted(seconds, reverse=True)
    assert all(len(row) == 5 and int(row[4]) > 0 for row in rows[1:])
    assert rows[1][0] == "nonsym.eigen_oracle_Y"
