"""Reproducer artifacts: serialized failing schedules and their replay.

When a campaign finds a failing schedule the CLI shrinks it and writes a
``repro.chaos/1`` artifact -- a self-contained JSON file holding the
minimal schedule (topology name, network seed, event list) plus the
violations it provoked.  CI uploads these artifacts; anyone can pull one
and re-run it:

.. code-block:: console

    python -m repro.chaos --replay artifact.json

Replay rebuilds the identical installation (the seed pins clock skews
and every other randomized choice) and re-executes the schedule through
the same campaign machinery, so the recorded violations reproduce
bit-identically or the artifact is stale -- both useful answers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.artifact import Schema, array, fail, integer, nullable, obj, one_of, string
from repro.chaos.schedule import SCHEDULE_SCHEMA, Schedule


def reproducer_dict(
    schedule: Schedule,
    violations: List[str],
    original_events: Optional[int] = None,
    shrink_runs: Optional[int] = None,
) -> Dict[str, Any]:
    """The artifact document for a (usually shrunk) failing schedule."""
    doc: Dict[str, Any] = {
        "schema": SCHEDULE_SCHEMA,
        "kind": "reproducer",
        "schedule": schedule.to_dict(),
        "violations": list(violations),
    }
    if original_events is not None:
        doc["shrunk_from_events"] = original_events
    if shrink_runs is not None:
        doc["shrink_runs"] = shrink_runs
    return doc


def _schedule_parses(doc: Dict[str, Any]) -> None:
    try:
        Schedule.from_dict(doc["schedule"])
    except (KeyError, TypeError, ValueError) as error:
        fail("$.schedule", f"not a {SCHEDULE_SCHEMA} schedule: {error!r}")


REPRODUCER = Schema(SCHEDULE_SCHEMA, {
    "kind": one_of("reproducer"),
    "schedule": obj(),
    "violations": array(string()),
    "shrunk_from_events": nullable(integer()),
    "shrink_runs": nullable(integer()),
}, checks=[_schedule_parses], sort_keys=True)

write_artifact = REPRODUCER.write
load_artifact = REPRODUCER.read


def replay_artifact(
    path: str,
    config=None,
    trace_path: Optional[str] = None,
    inband_path: Optional[str] = None,
    traffic_path: Optional[str] = None,
):
    """Re-run an artifact's schedule; returns its ScheduleResult.

    ``config`` (a :class:`~repro.chaos.campaign.CampaignConfig`)
    overrides everything except the topology, which always comes from
    the artifact.  ``trace_path`` records a flight trace of the replay
    and writes the Perfetto document there -- the causal timeline of the
    very run the reproducer provokes.  ``inband_path`` records in-band
    path telemetry (per-flow paths, SLO damage) and writes the
    ``repro.obs.inband/1`` artifact there.  ``traffic_path`` drives the
    fluid workload through the replay and writes the ``repro.traffic/1``
    SLO artifact (blackout cost, latency quantiles) there.
    """
    from repro.chaos.campaign import CampaignConfig, CampaignRunner

    doc = load_artifact(path)
    schedule = Schedule.from_dict(doc["schedule"])
    config = config or CampaignConfig()
    config.topology = schedule.topology
    runner = CampaignRunner(config)
    return runner.run_schedule(
        schedule,
        name=schedule.name or "replay",
        trace_path=trace_path,
        inband_path=inband_path,
        traffic_path=traffic_path,
    )
