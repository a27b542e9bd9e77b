"""scripts/output_digest.py: one stable line on a trimmed operation
list, and the full digest of every workload pinned, so that a change
which claims byte-identical outputs is checked here."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / \
    "output_digest.py"

# workload -> (operations, SHA-256 of their outputs) at --order 1/0
DIGESTS = {
    "eigen": (368, "3425378f321665546b4882701725f5ea"
                   "990f340e84fd463712fc81b72f3fe7f3"),
    "stability": (114, "2eac0b67c69a14453840b890ef747ca5"
                       "1939f4644574d092bdf61ef7afea721a"),
    "oracle": (218, "15200eb3ed1290a9eb29dbc8255103eb"
                    "33219ed7abe2e130e401eb026a2d5908"),
    "e-box": (929, "b17411c3f0c6b58243e088aeca3e6611"
                   "82645af8cc497d25436e4590436a4e23"),
    "verify-box": (5, "c8db71237c46d5622e25a633a09a4d4a"
                      "3bc190d405e46b98d2b9e928acf1799b"),
}


def _command(workload, *extra):
    return [sys.executable, "-B", str(SCRIPT), "--workload", workload,
            "--order", "1/0", *extra]


def _digest_line(workload, limit):
    out = subprocess.run(_command(workload, "--limit", str(limit)),
                         capture_output=True, text=True, check=True,
                         timeout=60)
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


def test_full_digests_are_pinned():
    # one process per workload, run side by side
    procs = {w: subprocess.Popen(_command(w), stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
             for w in DIGESTS}
    try:
        lines = {w: proc.communicate(timeout=300)
                 for w, proc in procs.items()}
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()
    for w, (ops, digest) in DIGESTS.items():
        out, err = lines[w]
        assert procs[w].returncode == 0, err
        assert out == f"{w} order=1/0 ops={ops} sha256={digest}\n"
