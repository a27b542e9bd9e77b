from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from dahamac.rep import RepContext, compositions

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


@pytest.fixture(scope="session")
def oracle_cases():
    """(ctx, mu) pairs for the Y eigen oracle: every index of the 20-dim
    (4,1) component of degree 3, every index of the 18-dim (3,2)
    component of degree (2,1), one index of the 36-dim (3,2) component
    of degree (2,2), and three indices in RepContext(2, 2, 2)."""
    c22, c32 = RepContext(2, 2, 2), RepContext(3, 2, 2)
    return [
        *((c22, mu) for mu in [((1, 0), (0, 1)), ((0, 1), (1, 0)),
                               ((1, 1), (1, 0))]),
        *((RepContext(4, 1, 1), (mu,)) for mu in compositions(3, 4)),
        *((c32, (a, b)) for a in compositions(2, 3)
          for b in compositions(1, 3)),
        (c32, ((0, 1, 1), (0, 2, 0))),
    ]
