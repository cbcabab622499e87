"""Trajectory pins: the benchmark workloads' seed-0 trajectory digests.

The digest (``reconbench/scenarios.py``, ``_digest``) hashes the per-epoch
records, every final forwarding table, the events dispatched, the final
simulated time and the traffic document.  A change meant only to make the
simulator faster must leave all of it unchanged, so the two workloads
that exercise the data plane and the dispatch loop are pinned here to
their recorded digests.  The benchmark module is imported, never changed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

RECONBENCH = Path(__file__).resolve().parents[1] / "reconbench"

#: seed-0 digests, recorded before the hot-path rewrite of the FIFO fluid
#: model, the crossbar scan and the dispatch loop
PINNED = {
    "lan30-cut-restore": "9bb609f0b63f13dc86b02522b7da61f8256734ce0170fd2e606fa63ba909c91c",
    "torus-packet-observed": "5c587603d9d758d0b254d7e31b832ef2e9d23a4224b793e9c2cc92ff5cf64412",
}


@pytest.fixture(scope="module")
def scenarios():
    # scenarios.py imports its sibling tracing.py by plain name
    sys.path.insert(0, str(RECONBENCH))
    try:
        import scenarios as module
    finally:
        sys.path.remove(str(RECONBENCH))
    return module


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_seed0_trajectory_digest_is_pinned(scenarios, workload):
    rep = scenarios.execute(scenarios.WORKLOADS[workload], 0)
    assert rep.violations == []
    assert rep.digest == PINNED[workload]
