"""The benchmark's three reconfiguration workloads and their checks.

Each workload is one deterministic scenario on the public
:class:`~repro.network.Network` API: build the installation (timed as
set-up), boot and converge, inject ``cut_link(0, 1)`` (and, on the
control-plane workload, ``restore_link(0, 1)``), reconverge, and -- on
the traffic workloads -- drain the open-loop flow workload.  The seed
goes to ``Network(seed=...)`` only, so it picks the clock skews and the
traffic matrix; the program never sees anything else of the benchmark.

A :class:`Rep` is one execution of a workload.  It records the host
wall time of the scenario steps (correctness checks excluded), the
simulated outcome, the count metrics, a digest of the simulated
trajectory, and every correctness violation found on the way.
"""

from __future__ import annotations

import gc
import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.chaos.checks import quiescent_checks
from repro.constants import MS, SEC
from repro.network import Network
from repro.obs.registry import Histogram
from repro.topology.generators import resolve_topology
from repro.traffic.artifact import TrafficSchemaError, validate_traffic

from tracing import LayerTracer

#: sim-time budgets: a wedged protocol fails the rep instead of hanging
CONVERGE_TIMEOUT_NS = 60 * SEC
#: a restored cable needs skeptic hold-down plus a probe streak before it
#: rejoins the topology and starts the restore epoch
RESTORE_TIMEOUT_NS = 30 * SEC
POLL_NS = 50 * MS
#: traffic: load on the running network before the cut
LOAD_BEFORE_CUT_NS = 500 * MS
#: the traffic runs end this long after the arrival window closes, a
#: fixed simulated horizon so the control plane's background work (port
#: sampling, probing) is the same for every traffic matrix.  Every fluid
#: flow must have completed by then; packet flows that lost a chunk never
#: complete and count in flows_failed.
DRAIN_NS = SEC

MIB = 1 << 20


@dataclass(frozen=True)
class Workload:
    name: str
    topology: str
    #: Network keyword arguments (observers and traffic)
    options: Dict[str, Any]
    restore: bool = False

    def build(self, seed: int) -> Network:
        options = dict(self.options)
        if "traffic" in options:
            options["traffic"] = dict(options["traffic"])
        return Network(resolve_topology(self.topology), seed=seed, **options)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # the paper's 30-switch LAN, control plane only: no hosts, default
        # telemetry, every optional observer off
        Workload("lan30-cut-restore", "src-lan-30", {}, restore=True),
        # data plane: real hosts sending chunked datagrams through the
        # switches, with the flight, timeseries, inband and control
        # observers on (their enabled hook paths)
        Workload(
            "torus-packet-observed",
            "torus-3x4",
            {
                "flight": True,
                "timeseries": True,
                "inband": True,
                "control": True,
                "traffic": {
                    "pattern": "uniform",
                    "mode": "packet",
                    "flows": 2000,
                    "hosts": 48,
                    "mean_flow_bytes": 65_536,
                    "duration_ns": 2 * SEC,
                },
            },
        ),
        # the traffic layer: many short fluid flows over a skewed matrix,
        # each walked through the live tables and rate-solved max-min.
        # Short flows keep the fabric below saturation, so the work
        # scales with the flow count, not with where a seed's hot set
        # happens to congest (64 KiB flows spread ~16% seed to seed).
        Workload(
            "lan30-fluid-hotspot",
            "src-lan-30",
            {
                "traffic": {
                    "pattern": "hotspot",
                    "flows": 20_000,
                    "hosts": 500,
                    "mean_flow_bytes": 2048,
                    "duration_ns": 2 * SEC,
                },
            },
        ),
    )
}


@dataclass
class Rep:
    """Outcome of one execution of a workload."""

    setup_s: float = 0.0
    run_s: float = 0.0
    #: simulated outcome (identical for every rep of one seed)
    sim: Dict[str, float] = field(default_factory=dict)
    #: exact work counters (identical for every rep of one seed)
    counts: Dict[str, int] = field(default_factory=dict)
    digest: str = ""
    violations: List[str] = field(default_factory=list)
    tracer: Optional[LayerTracer] = None


class _Clock:
    """Sums the wall time of the scenario steps, not of the checks.

    A check's garbage is collected before the next step, so the gated rep
    times the same work as the others."""

    def __init__(self, tracer: Optional[LayerTracer]) -> None:
        self.total = 0.0
        self._tracer = tracer

    def step(self, fn, *args):
        started = perf_counter()
        try:
            return fn(*args)
        finally:
            self.total += perf_counter() - started

    def check(self, fn, *args):
        if self._tracer is not None:
            self._tracer.paused = True
        try:
            return fn(*args)
        finally:
            if self._tracer is not None:
                self._tracer.paused = False
            gc.collect()


def _quiescent(net: Network, label: str, rep: Rep) -> None:
    report = quiescent_checks(net)
    rep.violations.extend(f"{label}: {v}" for v in report.violations)
    if net.traffic is not None:
        rep.violations.extend(f"{label}: {v}" for v in net.traffic.slo_violations())


def _converge(net: Network, label: str, rep: Rep) -> bool:
    ok = net.run_until_converged(timeout_ns=CONVERGE_TIMEOUT_NS)
    if not ok:
        rep.violations.append(f"{label}: no convergence within the timeout")
    return ok


def _await_new_epoch(net: Network, epoch: int) -> bool:
    deadline = net.sim.now + RESTORE_TIMEOUT_NS
    while net.current_epoch() <= epoch and net.sim.now < deadline:
        net.run_for(POLL_NS)
    return net.current_epoch() > epoch


def _drain(net: Network, launch_ns: int) -> None:
    net.run_until(max(net.sim.now, launch_ns + net.traffic.config.duration_ns + DRAIN_NS))


def execute(workload: Workload, seed: int, trace: bool = False, check: bool = False) -> Rep:
    """Build and drive one rep of ``workload``.

    ``check`` runs the quiescent-point invariant sweep after every
    reconvergence (seconds per sweep on src-lan-30, so a run checks one
    rep and holds the others to its digest).  The traffic document is
    validated on every rep.
    """
    rep = Rep()
    tracer = LayerTracer() if trace else None
    gc.collect()
    if tracer is None:
        _drive(workload, seed, rep, None, check)
    else:
        with tracer.installed():
            _drive(workload, seed, rep, tracer, check)
    rep.tracer = tracer
    return rep


def _drive(
    workload: Workload, seed: int, rep: Rep, tracer: Optional[LayerTracer], check: bool
) -> None:
    started = perf_counter()
    net = workload.build(seed)
    rep.setup_s = perf_counter() - started
    if tracer is not None:
        net.sim.profiler = tracer
    clock = _Clock(tracer)
    events0 = net.sim.events_dispatched

    if clock.step(_converge, net, "boot", rep):
        if check:
            clock.check(_quiescent, net, "boot", rep)
    boot_epoch = net.current_epoch()
    launch_ns = net.sim.now
    if net.traffic is not None:
        clock.step(net.traffic.launch)
        clock.step(net.run_for, LOAD_BEFORE_CUT_NS)
    clock.step(net.cut_link, 0, 1)
    if clock.step(_converge, net, "cut 0-1", rep):
        if check:
            clock.check(_quiescent, net, "cut 0-1", rep)
    if workload.restore:
        cut_epoch = net.current_epoch()
        clock.step(net.restore_link, 0, 1)
        if not clock.step(_await_new_epoch, net, cut_epoch):
            rep.violations.append("restore 0-1: no reconfiguration started")
        if clock.step(_converge, net, "restore 0-1", rep):
            if check:
                clock.check(_quiescent, net, "restore 0-1", rep)
    doc = None
    if net.traffic is not None:
        clock.step(_drain, net, launch_ns)
        doc = clock.check(_traffic_doc, net, rep)
    rep.run_s = clock.total

    rep.sim = _simulated(net, boot_epoch, doc)
    rep.counts = _counts(net, events0, tracer)
    rep.digest = _digest(net, doc)
    if doc is not None and net.traffic.config.mode == "fluid":
        if doc["flows_completed"] != doc["generated_flows"]:
            rep.violations.append(
                f"drain: {doc['generated_flows'] - doc['flows_completed']} "
                f"fluid flows did not complete by the horizon"
            )


def _traffic_doc(net: Network, rep: Rep) -> Optional[Dict[str, Any]]:
    try:
        return validate_traffic(net.traffic_doc("reconbench"))
    except TrafficSchemaError as error:
        rep.violations.append(f"traffic doc: {error}")
        return None


def _simulated(net: Network, boot_epoch: int, doc: Optional[Dict[str, Any]]) -> Dict[str, float]:
    """The simulated outcome: section 6.6.5 reconfiguration time, section
    6.7 blackout, and the traffic SLO, all in simulated time."""
    later = [e for e in sorted(net.epochs) if e > boot_epoch]
    durations = [net.epoch_duration(e) for e in later]
    blackouts = [
        entry["blackout_ns"]
        for e in later
        for entry in net.tracer.blackouts(e).values()
        if entry["blackout_ns"] is not None
    ]
    out = {
        "reconfig_ms": max((d for d in durations if d is not None), default=0) / MS,
        "blackout_ms": max(blackouts, default=0) / MS,
        "flow_p50_ms": 0.0,
        "flow_p99_ms": 0.0,
        "goodput_mibps": 0.0,
        "blackout_cost_mib": 0.0,
        "flows_failed": 0.0,
        "net.sched_wait_p99_ns": sched_wait_p99_ns(net),
    }
    if doc is not None:
        latency = doc["latency"]
        generated = doc["generated_flows"]
        out.update(
            flow_p50_ms=(latency["p50_ns"] or 0) / MS,
            flow_p99_ms=(latency["p99_ns"] or 0) / MS,
            goodput_mibps=(doc["goodput_bytes_per_sec"] or 0) / MIB,
            blackout_cost_mib=doc["blackout_cost_bytes"] / MIB,
            flows_failed=(generated - doc["flows_completed"]) / generated if generated else 0.0,
        )
    return out


def _counts(net: Network, events0: int, tracer: Optional[LayerTracer]) -> Dict[str, int]:
    """Exact work counters read from the program after the run."""
    switches = net.switches
    fifos = [unit.fifo for s in switches for unit in s.ports.values() if unit.connected]
    out = {
        "sim.events": net.sim.events_dispatched - events0,
        "net.packets_forwarded": sum(s.packets_forwarded for s in switches),
        "net.packets_discarded": sum(s.packets_discarded for s in switches),
        "net.cut_through": sum(f.cut_through_packets for f in fifos),
        "net.buffered": sum(f.buffered_packets for f in fifos),
        "core.cp_packets": sum(ap.packets_handled for ap in net.autopilots),
        "core.epochs": sum(
            ap.engine.epochs_initiated + ap.engine.epochs_joined for ap in net.autopilots
        ),
        "host.rx_packets": sum(h.packets_received for h in net.hosts.values()),
    }
    if tracer is not None:
        out.update(tracer.calls)
    return out


def sched_wait_p99_ns(net: Network) -> float:
    """p99 crossbar grant wait (simulated ns), every switch's
    ``scheduler_wait_ns`` histogram merged."""
    hists = [s.engine.wait_hist for s in net.switches if s.engine.wait_hist is not None]
    if not hists:
        return 0.0
    merged = Histogram("scheduler_wait_ns", {}, buckets=hists[0].bounds)
    for h in hists:
        merged.bucket_counts = [a + b for a, b in zip(merged.bucket_counts, h.bucket_counts)]
        merged.count += h.count
        merged.total += h.total
        for v in (h.min, h.max):
            if v is not None:
                merged.min = v if merged.min is None else min(merged.min, v)
                merged.max = v if merged.max is None else max(merged.max, v)
    return merged.quantile(0.99) or 0.0


def _digest(net: Network, doc: Optional[Dict[str, Any]]) -> str:
    """SHA-256 of the simulated trajectory: per-epoch records, the final
    forwarding tables, and the validated traffic document."""
    epochs = [
        [e, r.started_at, sorted((uid.value, t) for uid, t in r.configured.items())]
        for e, r in sorted(net.epochs.items())
    ]
    tables = [
        sorted(
            [in_port, address, list(entry.ports), entry.broadcast]
            for (in_port, address), entry in s.table.non_constant_entries().items()
        )
        for s in net.switches
    ]
    payload = {
        "events": net.sim.events_dispatched,
        "now_ns": net.sim.now,
        "epochs": epochs,
        "tables": tables,
        "traffic": doc,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
