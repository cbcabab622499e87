"""The declarative artifact schemas: one error class, byte-stable files.

Every artifact kind writes a fixed document as exactly
``json.dumps(doc, indent=..., sort_keys=...) + "\\n"`` (the format each
kind has always had), creates missing parent directories, and reads the
file back to an equal document.
"""

import json

import pytest

from repro.artifact import ArtifactSchemaError
from repro.chaos.events import CutLink
from repro.chaos.replay import load_artifact, reproducer_dict, write_artifact
from repro.chaos.schedule import Schedule
from repro.obs.export import (
    SchemaError,
    bench_document,
    bench_result,
    read_document,
    write_document,
)
from repro.obs.inband import INBAND_SCHEMA, InbandSchemaError, read_inband, write_inband
from repro.obs.perfetto import FLIGHT_SCHEMA, read_trace, write_trace
from repro.obs.regress import REGRESS_SCHEMA, RegressSchemaError, read_regress, write_regress
from repro.obs.sweep import (
    REQUIRED_METRICS,
    SWEEP_SCHEMA,
    SweepSchemaError,
    read_sweep,
    write_sweep,
)
from repro.obs.timeseries import (
    TIMESERIES_SCHEMA,
    TimeSeriesSchemaError,
    read_timeseries,
    write_timeseries,
)
from repro.staticcheck.baseline import BASELINE, BaselineError
from repro.staticcheck.report import SchemaError as ReportSchemaError
from repro.staticcheck.report import read_report, write_report
from repro.traffic.artifact import (
    TRAFFIC_SCHEMA,
    TrafficSchemaError,
    read_traffic,
    write_traffic,
)


def _bench():
    return bench_document("reconfiguration", title="E1", seed=7, results=[
        bench_result("E1_src_lan", "E1: single-link failure",
                     ["implementation", "blackout_ms", "ok"],
                     [["tuned", 119.3, True], ["naive", None, False]],
                     telemetry={"sim_ns": 3_000_000_000}),
    ])


def _trace():
    track = {"pid": 1, "tid": 1}
    return {
        "schema": FLIGHT_SCHEMA,
        "displayTimeUnit": "ms",
        "otherData": {"recorded": 4, "dropped": 0, "components": ["sw0"]},
        "traceEvents": [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1000,
             "args": {"name": "merged-log (§6.7)"}},
            {"ph": "B", "name": "epoch 2", "cat": "epoch", "ts": 0.5, **track,
             "args": {"eid": 1}},
            {"ph": "X", "name": "hello", "cat": "msg", "ts": 1.0, "dur": 1, **track},
            {"ph": "s", "name": "hello", "cat": "msg", "id": 3, "ts": 1.0, **track},
            {"ph": "f", "bp": "e", "name": "hello", "cat": "msg", "id": 3, "ts": 2.0,
             "pid": 1, "tid": 2},
            {"ph": "E", "name": "epoch 2", "cat": "epoch", "ts": 3.0, **track},
        ],
    }


def _timeseries():
    return {
        "schema": TIMESERIES_SCHEMA, "name": "tiny", "interval_ns": 10, "capacity": 4,
        "samples_taken": 2, "dropped_ticks": 0, "dropped_series": 0, "ticks": [10, 20],
        "series": [{"name": "epoch", "labels": {"switch": "sw0"}, "kind": "gauge",
                    "dropped": 0, "values": [None, 2.0]}],
        "marks": [{"t_ns": 15, "component": "sw0", "event": "epoch-started"}],
    }


def _inband():
    path = [["sw0", 1, [2, 3]]]
    return {
        "schema": INBAND_SCHEMA, "name": "n", "max_hops": 8, "hops_recorded": 1,
        "hops_truncated": 0, "unkeyed_deliveries": 0, "dropped_flows": 0,
        "flows": [{"src_uid": 1, "dest_uid": 2, "deliveries": 1, "bytes": 64,
                   "paths_seen": 1, "path": path,
                   "changes": [{"t_ns": 5, "epoch": None, "from": [], "to": path}],
                   "changes_dropped": 0, "latency_samples": 1, "latency_p50_ns": 100,
                   "latency_p99_ns": 100.5}],
        "links": [{"link": "sw0:2", "samples": 1, "mean_depth": 0.0, "max_depth": 0,
                   "drops": 0}],
        "slo": {"deliveries": 1, "delivered_bytes": 64, "p50_ns": 100, "p99_ns": None,
                "samples_retained": 1, "samples_dropped": 0, "drops": {"queue": 0},
                "windows": [{"epoch": 2, "start_ns": 0, "end_ns": None, "deliveries": 1,
                             "drops": 0, "goodput_bytes": 64, "max_blackout_ns": None,
                             "p50_ns": None, "p99_ns": None}]},
        "recent": [{"packet_id": 1, "src_uid": 1, "dest_uid": None, "host": "h0",
                    "created_ns": 0, "delivered_ns": 100,
                    "hops": [[5, "sw0", 1, [2, 3], 0.0]]}],
    }


def _sweep():
    return {
        "schema": SWEEP_SCHEMA, "ladder": "smoke", "seed": 0, "scenario": "cut",
        "metrics": list(REQUIRED_METRICS),
        "points": [
            {"name": "torus-3x4", "switches": 12, "links": 24, "status": "ok",
             "metrics": {m: 1.5 for m in REQUIRED_METRICS}},
            {"name": "torus-32x32", "switches": 1024, "links": 2048,
             "status": "skipped", "metrics": {}, "skip_reason": "address ceiling"},
        ],
        "slopes": {"blackout_ns": {"slope": 1.2, "r2": 0.9, "points": 2}},
    }


def _regress():
    return {
        "schema": REGRESS_SCHEMA, "bench": "reconfiguration", "seed": 0,
        "baseline_runs": 1, "strict": False,
        "comparisons": [{"metric": "E1/tuned/blackout_ms", "status": "out-of-band",
                         "direction": "both", "current": 240.0, "baseline_mean": 120.0,
                         "baseline_stdev": 0.0, "band_lo": 100.0, "band_hi": 140.0}],
        "out_of_band": 1, "verdict": "regression",
    }


def _report():
    finding = {"rule": "RS101", "path": "src/a.py", "line": 3, "col": 4,
               "message": "wall clock", "hint": "use sim.now"}
    return {
        "schema": "repro.staticcheck/1", "tool": "repro.staticcheck", "roots": ["src"],
        "files_scanned": 2, "rules": [{"id": "RS101", "title": "no wall clock"}],
        "findings": [finding], "suppressed": [dict(finding, justification="profiler")],
        "stale_suppressions": [],
        "summary": {"findings": 1, "suppressed": 1, "stale_suppressions": 0,
                    "by_rule": {"RS101": 1}, "ok": False},
    }


def _traffic():
    return {
        "schema": TRAFFIC_SCHEMA, "name": "fixed",
        "config": {"pattern": "hotspot", "mode": "fluid", "flows": 2, "hosts": 4,
                   "mean_flow_bytes": 1024, "duration_ns": 1000},
        "launched": True, "time_ns": 5000, "generated_flows": 2, "flows_completed": 1,
        "flows_active": 0, "flows_pending": 0, "flows_unrouted": 1,
        "offered_bytes": 2048, "delivered_bytes": 1024.5, "blackout_cost_bytes": 0,
        "goodput_bytes_per_sec": None,
        "latency": {"count": 1, "p50_ns": 10, "p99_ns": 10, "mean_ns": 10.0, "max_ns": 10},
        "drops": {"unrouted": 1}, "segments": {"recorded": 1, "dropped": 0},
        "windows": [{"epoch": 1, "start_ns": 0, "end_ns": None, "max_blackout_ns": None,
                     "offered_bytes": 2048, "delivered_bytes": 1024.5,
                     "blackout_cost_bytes": 0, "goodput_bytes_per_sec": None}],
        "flows_sample": [{"flow_id": 0, "arrival_ns": 0, "src_host": 0, "dst_host": 3,
                          "size_bytes": 1024, "state": "completed", "latency_ns": 10}],
    }


def _baseline():
    return {
        "schema": "repro.staticcheck-baseline/1",
        "suppressions": [{"rule": "RS101", "path": "src/repro/sim/engine.py",
                          "justification": "feeds only the profiler"}],
    }


def _reproducer():
    schedule = Schedule(topology="torus-3x4", seed=1, name="fixed",
                        events=[CutLink(at_ns=0, a=2, b=3)])
    return reproducer_dict(schedule, ["sw0 is down"], original_events=5, shrink_runs=14)


#: kind -> (fixed document, writer(path, doc), reader(path), indent, sort_keys)
KINDS = {
    "bench": (_bench, write_document, read_document, 2, False),
    "trace": (_trace, write_trace, read_trace, 1, False),
    "timeseries": (_timeseries, write_timeseries, read_timeseries, 2, False),
    "inband": (_inband, write_inband, read_inband, 2, False),
    "sweep": (_sweep, write_sweep, read_sweep, 2, False),
    "regress": (_regress, write_regress, read_regress, 2, False),
    "staticcheck": (_report, lambda path, doc: write_report(doc, path), read_report, 2, True),
    "traffic": (_traffic, write_traffic, read_traffic, 2, False),
    "reproducer": (_reproducer, write_artifact, load_artifact, 2, True),
    "baseline": (_baseline, BASELINE.write, BASELINE.read, 2, False),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_kind_writes_its_format_into_a_new_directory_and_round_trips(kind, tmp_path):
    make, write, read, indent, sort_keys = KINDS[kind]
    doc = make()
    path = tmp_path / "new" / "nested" / f"{kind}.json"
    write(str(path), doc)
    assert path.read_bytes() == (
        json.dumps(doc, indent=indent, sort_keys=sort_keys) + "\n"
    ).encode()
    assert read(str(path)) == doc


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_writer_refuses_an_invalid_document(kind, tmp_path):
    make, write, _read, _indent, _sort_keys = KINDS[kind]
    doc = dict(make(), schema="bogus/0")
    path = tmp_path / "new" / f"{kind}.json"
    with pytest.raises(ArtifactSchemaError):
        write(str(path), doc)
    assert not path.exists()


def test_old_error_names_are_one_class():
    for alias in (SchemaError, InbandSchemaError, RegressSchemaError, SweepSchemaError,
                  TimeSeriesSchemaError, ReportSchemaError, TrafficSchemaError,
                  BaselineError):
        assert alias is ArtifactSchemaError
    assert issubclass(ArtifactSchemaError, ValueError)
