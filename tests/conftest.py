from __future__ import annotations

import os
from pathlib import Path

from hypothesis import HealthCheck, settings

# pyproject's pythonpath puts src/ on this process's path; the tests that
# run `python -m dahamac.cli` need it on their children's path as well
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

# exact arithmetic makes individual examples slow; wall-clock deadlines
# only produce flaky failures here
settings.register_profile(
    "exact",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")
