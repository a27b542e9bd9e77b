"""Smoke test of scripts/output_digest.py on a trimmed operation list."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / \
    "output_digest.py"


def _digest_line(workload, limit):
    out = subprocess.run(
        [sys.executable, "-B", str(SCRIPT), "--workload", workload,
         "--order", "1/0", "--limit", str(limit)],
        capture_output=True, text=True, check=True, timeout=60)
    return out.stdout


def test_output_digest_is_one_stable_line():
    first = _digest_line("eigen", 12)
    assert re.fullmatch(r"eigen order=1/0 ops=12 sha256=[0-9a-f]{64}\n",
                        first)
    assert _digest_line("eigen", 12) == first
    assert _digest_line("eigen", 11) != first


def test_e_box_digest_is_one_stable_line():
    first = _digest_line("e-box", 12)
    assert re.fullmatch(r"e-box order=1/0 ops=12 sha256=[0-9a-f]{64}\n",
                        first)
    assert _digest_line("e-box", 12) == first
