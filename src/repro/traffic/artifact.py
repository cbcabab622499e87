"""The versioned ``repro.traffic/1`` artifact schema.

One JSON document per workload run, mirroring the other obs artifacts
(``repro.bench/1``, ``repro.obs.inband/1``): a ``schema`` tag, the
generating config, cumulative SLO aggregates (offered/delivered bytes,
blackout cost, delivery-latency quantiles, drops by cause), and the
per-epoch ``windows`` that price each reconfiguration span's
undelivered offered load.  The :data:`TRAFFIC` schema is structural --
types, ranges, required fields -- so CI can gate any produced artifact
without re-running the workload.
"""

from __future__ import annotations

from repro.artifact import (
    ArtifactSchemaError, Schema, array, boolean, integer, mapping, nullable, number, obj,
    one_of, string,
)
from repro.traffic.workload import ARRIVAL_PATTERNS, TRAFFIC_MODES

TRAFFIC_SCHEMA = "repro.traffic/1"

_NUMBER_OR_NULL = nullable(number())

TRAFFIC = Schema(TRAFFIC_SCHEMA, {
    "name": string(),
    "config": obj({
        "pattern": one_of(*ARRIVAL_PATTERNS),
        "mode": one_of(*TRAFFIC_MODES),
        **dict.fromkeys(("flows", "hosts", "mean_flow_bytes", "duration_ns"), integer()),
    }),
    "launched": boolean(),
    **dict.fromkeys(("time_ns", "generated_flows", "flows_completed", "flows_active",
                     "flows_pending", "flows_unrouted"), integer()),
    **dict.fromkeys(("offered_bytes", "delivered_bytes", "blackout_cost_bytes"),
                    number(non_negative=True)),
    "goodput_bytes_per_sec": _NUMBER_OR_NULL,
    "latency": obj({
        "count": integer(),
        **dict.fromkeys(("p50_ns", "p99_ns", "mean_ns", "max_ns"), _NUMBER_OR_NULL),
    }),
    "drops": mapping(string(non_empty=True), integer()),
    "segments": obj(dict.fromkeys(("recorded", "dropped"), integer())),
    "windows": array(obj({
        "epoch": integer(-(10 ** 9)),
        "start_ns": integer(),
        "end_ns": nullable(integer()),
        **dict.fromkeys(("offered_bytes", "delivered_bytes", "blackout_cost_bytes"), number()),
        **dict.fromkeys(("max_blackout_ns", "goodput_bytes_per_sec"), _NUMBER_OR_NULL),
    })),
    "flows_sample": array(obj({
        **dict.fromkeys(("flow_id", "arrival_ns", "src_host", "dst_host", "size_bytes"),
                        integer()),
        "state": one_of("pending", "active", "unrouted", "completed"),
        "latency_ns": _NUMBER_OR_NULL,
    })),
})

TrafficSchemaError = ArtifactSchemaError
validate_traffic = TRAFFIC.validate
write_traffic = TRAFFIC.write
read_traffic = TRAFFIC.read
