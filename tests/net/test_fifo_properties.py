"""Property-based tests on the fluid FIFO model: byte conservation and
monotonicity under arbitrary arrival/drain/flow-control interleavings,
and exact agreement of the FIFO dynamics and the crossbar scan with
their plain references."""

import json

from hypothesis import given, settings, strategies as st

from repro.constants import BYTE_TIME_NS, MS, PORTS_PER_SWITCH, SEC
from repro.net.fifo import DiscardSink, ReceiveFifo
from repro.net.forwarding import ForwardingEntry
from repro.net.packet import Packet, PacketType
from repro.net.scheduler import Request, SchedulingEngine
from repro.network import Network
from repro.sim.engine import Simulator
from repro.topology import torus
from tests.net.reference_dataplane import ReferenceEngine, ReferenceFifo


class GatedSink(DiscardSink):
    """A drain target whose permission can be toggled (models downstream
    flow control)."""

    def __init__(self):
        super().__init__()
        self.allowed = True

    def drain_allowed(self, broadcast):
        return self.allowed


@st.composite
def scripts(draw):
    """A random interleaving of packet arrivals, drain connects, and
    flow-control toggles, with durations."""
    steps = []
    n = draw(st.integers(min_value=1, max_value=6))
    for _ in range(n):
        kind = draw(st.sampled_from(["packet", "toggle", "wait"]))
        if kind == "packet":
            steps.append(("packet", draw(st.integers(min_value=1, max_value=3000))))
        elif kind == "toggle":
            steps.append(("toggle", None))
        else:
            steps.append(("wait", draw(st.integers(min_value=1, max_value=2000))))
    return steps


@settings(max_examples=60, deadline=None)
@given(scripts())
def test_conservation_and_completion(script):
    """Whatever the interleaving: bytes out <= bytes in per packet, the
    level is never negative, and once the gate stays open every packet
    fully drains."""
    sim = Simulator()
    fifo = ReceiveFifo(sim, "prop.fifo", capacity=1 << 20)
    sink = GatedSink()
    drained = []
    fifo.on_packet_drained = drained.append
    fifo.on_head_ready = lambda pkt: fifo.connect_drain([sink], broadcast=False)

    sent = []
    for kind, value in script:
        if kind == "packet":
            pkt = Packet(dest_short=0x20, src_short=0x30,
                         ptype=PacketType.DIAGNOSTIC, data_bytes=value)
            sent.append(pkt)
            # arrival at line rate, end marker at the exact arrival time
            fifo.begin_packet(pkt)
            fifo.set_in_rate(1.0)
            sim.run_for(pkt.wire_bytes * BYTE_TIME_NS)
            fifo.end_packet(pkt)
        elif kind == "toggle":
            sink.allowed = not sink.allowed
            fifo.recompute()
        else:
            sim.run_for(value * BYTE_TIME_NS)
        # invariants hold at every step
        level = fifo.level
        assert level >= -1e-6
        for entry in fifo.queue:
            assert entry.bytes_out <= entry.bytes_in + 1e-6
            assert entry.bytes_in <= entry.size + 1e-6

    # open the gate and let everything finish
    sink.allowed = True
    fifo.recompute()
    sim.run_for(10 * sum(p.wire_bytes for p in sent) * BYTE_TIME_NS + 1_000_000)
    assert [p.packet_id for p in drained] == [p.packet_id for p in sent]
    assert fifo.level == 0
    assert not fifo.overflowed


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=2000), min_size=1, max_size=5)
)
def test_fifo_order_preserved(sizes):
    """Packets drain in arrival order regardless of size mix."""
    sim = Simulator()
    fifo = ReceiveFifo(sim, "order.fifo", capacity=1 << 20)
    sink = DiscardSink()
    drained = []
    fifo.on_packet_drained = drained.append
    fifo.on_head_ready = lambda pkt: fifo.connect_drain([sink], broadcast=False)

    packets = []
    for size in sizes:
        pkt = Packet(dest_short=0x20, src_short=0x30,
                     ptype=PacketType.DIAGNOSTIC, data_bytes=size)
        packets.append(pkt)
        fifo.begin_packet(pkt)
        fifo.set_in_rate(1.0)
        sim.run_for(pkt.wire_bytes * BYTE_TIME_NS)
        fifo.end_packet(pkt)
    sim.run_for(10_000_000 + 10 * sum(p.wire_bytes for p in packets) * BYTE_TIME_NS)
    assert [p.packet_id for p in drained] == [p.packet_id for p in packets]


# -- differential: the optimized dynamics against the plain references ----------------
#
# tests/net/reference_dataplane.py keeps the plain versions of the FIFO
# fluid model and the crossbar scan.  Each test drives a production and
# a reference instance through the same public entry points and compares
# every observable exactly: float byte counts and levels with ==, the
# armed boundary's time, the flow-control directives and drain markers
# with their timestamps, and the grant order.


class RecordingSink(DiscardSink):
    """A gated drain target that logs every marker with its time."""

    def __init__(self, sim, log, tag):
        super().__init__()
        self.sim = sim
        self.log = log
        self.tag = tag
        self.allowed = True

    def drain_allowed(self, broadcast):
        return self.allowed

    def notify_begin(self, packet, broadcast):
        self.log.append(("begin", self.tag, self.sim.now, packet.data_bytes, broadcast))

    def notify_rate(self, rate):
        self.log.append(("rate", self.tag, self.sim.now, rate))

    def notify_end(self, packet):
        super().notify_end(packet)
        self.log.append(("end", self.tag, self.sim.now, packet.data_bytes))


class FifoWorld:
    """One FIFO (production or reference) with logging callbacks; the
    head-ready policy connects the drain at once (re-entering the FIFO,
    like a discard entry) or after a delay (like a crossbar grant)."""

    def __init__(self, fifo_cls, capacity, stop_fraction, cut_through, delay_ns, fanout):
        self.sim = sim = Simulator()
        self.log = log = []
        self.sinks = [RecordingSink(sim, log, i) for i in range(fanout)]
        self.delay_ns = delay_ns
        self.packets = []
        self.fifo = fifo_cls(
            sim,
            "diff.fifo",
            capacity=capacity,
            stop_fraction=stop_fraction,
            cut_through_bytes=cut_through,
            on_head_ready=self._head_ready,
            on_level_directive=lambda d: log.append(("directive", sim.now, d.value)),
            on_packet_drained=lambda p: log.append(("drained", sim.now, p.data_bytes)),
            on_overflow=lambda p: log.append(("overflow", sim.now, p is not None)),
            on_underflow=lambda p: log.append(("underflow", sim.now, p.data_bytes)),
        )

    def _head_ready(self, packet):
        self.log.append(("head", self.sim.now, packet.data_bytes))
        if self.delay_ns == 0:
            self._connect(packet)
        else:
            self.sim.after(self.delay_ns, self._connect, packet)

    def _connect(self, packet):
        head = self.fifo.head
        if head is not None and head.packet is packet and head.targets is None:
            self.fifo.connect_drain(self.sinks, broadcast=len(self.sinks) > 1)

    def apply(self, kind, value):
        fifo = self.fifo
        if kind == "begin":
            packet = Packet(dest_short=0x20, src_short=0x30,
                            ptype=PacketType.DIAGNOSTIC, data_bytes=value)
            self.packets.append(packet)
            fifo.begin_packet(packet)
        elif kind == "rate":
            fifo.set_in_rate(value)
        elif kind == "end":
            if self.packets:
                fifo.end_packet(self.packets[-1])
        elif kind == "gate":
            self.sinks[value % len(self.sinks)].allowed ^= True
            fifo.recompute()
        else:
            self.sim.run_for(value)

    def state(self):
        fifo = self.fifo
        boundary = fifo._boundary
        return (
            self.sim.now,
            self.sim.events_dispatched,
            [
                (e.bytes_in, e.bytes_out, e.arriving, e.requested, e.drain_started)
                for e in fifo.queue
            ],
            fifo.in_rate,
            fifo.drain_rate,
            fifo.bytes_forwarded,
            fifo.max_level,
            fifo.peek_level(),
            fifo.stopped,
            fifo.cut_through_packets,
            fifo.buffered_packets,
            None if boundary is None else boundary.time,
            [p.corrupted for p in self.packets],
            list(self.log),
        )


@st.composite
def fifo_setups(draw):
    return dict(
        capacity=draw(st.sampled_from([64, 300, 1024, 4096])),
        stop_fraction=draw(st.sampled_from([0.5, 0.25, 0.75])),
        cut_through=draw(st.sampled_from([2, 25, 100])),
        delay_ns=draw(st.sampled_from([0, 480, 3 * BYTE_TIME_NS + 7])),
        fanout=draw(st.sampled_from([1, 2])),
    )


fifo_steps = st.lists(
    st.one_of(
        st.tuples(st.just("begin"), st.integers(min_value=0, max_value=3000)),
        st.tuples(st.just("rate"), st.sampled_from([0.0, 1.0, 0.5])),
        st.tuples(st.just("end"), st.none()),
        st.tuples(st.just("gate"), st.integers(min_value=0, max_value=1)),
        st.tuples(st.just("wait"), st.integers(min_value=1, max_value=400_000)),
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=150, deadline=None)
@given(setup=fifo_setups(), steps=fifo_steps)
def test_fifo_dynamics_match_reference_exactly(setup, steps):
    fast = FifoWorld(ReceiveFifo, **setup)
    plain = FifoWorld(ReferenceFifo, **setup)
    for kind, value in steps:
        fast.apply(kind, value)
        plain.apply(kind, value)
        assert fast.state() == plain.state()
    # open every gate and run dry: the tails must match too
    for world in (fast, plain):
        for sink in world.sinks:
            sink.allowed = True
        world.fifo.recompute()
        world.sim.run_for(50_000_000)
    assert fast.state() == plain.state()


@settings(max_examples=60, deadline=None)
@given(scripts())
def test_conservation_script_matches_reference_exactly(script):
    """The original property scripts (line-rate arrivals, gate toggles),
    replayed on both implementations."""
    worlds = [
        FifoWorld(cls, capacity=1 << 20, stop_fraction=0.5, cut_through=25,
                  delay_ns=0, fanout=1)
        for cls in (ReceiveFifo, ReferenceFifo)
    ]
    for kind, value in script:
        for world in worlds:
            if kind == "packet":
                world.apply("begin", value)
                world.apply("rate", 1.0)
                world.apply("wait", world.packets[-1].wire_bytes * BYTE_TIME_NS)
                world.apply("end", None)
            elif kind == "toggle":
                world.apply("gate", 0)
            else:
                world.apply("wait", value * BYTE_TIME_NS)
        assert worlds[0].state() == worlds[1].state()


def _engine_run(engine_cls, n_ports, ops):
    sim = Simulator()
    grants = []
    engine = engine_cls(
        sim, n_ports, grant=lambda req, ports: grants.append((sim.now, req.in_port, ports))
    )
    trace = []
    for op in ops:
        kind = op[0]
        if kind == "request":
            _, in_port, ports, broadcast = op
            packet = Packet(dest_short=0x20, src_short=0x30)
            engine.add_request(Request(in_port, ForwardingEntry(ports, broadcast), packet))
        elif kind == "busy":
            engine.mark_port_busy(op[1])
        elif kind == "free":
            engine.port_freed(op[1])
        elif kind == "remove":
            engine.remove_requests_from(op[1])
        else:
            sim.run_for(op[1])
        trace.append((
            sim.now,
            list(grants),
            [(r.in_port, sorted(r.captured)) for r in engine.queue],
            sorted((p, r.in_port) for p, r in engine._reserved.items()),
            sorted(engine.port_busy.items()),
        ))
    sim.run()
    trace.append((sim.now, list(grants), engine.pending()))
    return trace


port_vectors = st.lists(
    st.integers(min_value=0, max_value=PORTS_PER_SWITCH), min_size=0, max_size=5
).map(tuple)

engine_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("request"),
            st.integers(min_value=0, max_value=PORTS_PER_SWITCH),
            port_vectors,
            st.booleans(),
        ),
        st.tuples(st.just("busy"), st.integers(min_value=0, max_value=PORTS_PER_SWITCH)),
        st.tuples(st.just("free"), st.integers(min_value=0, max_value=PORTS_PER_SWITCH)),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=PORTS_PER_SWITCH)),
        st.tuples(st.just("run"), st.integers(min_value=0, max_value=3000)),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(n_ports=st.integers(min_value=1, max_value=PORTS_PER_SWITCH), ops=engine_ops)
def test_scan_matches_reference_exactly(n_ports, ops):
    """Broadcast and alternative request mixes, duplicate and empty port
    vectors, and switches with fewer ports than ``PORTS_PER_SWITCH``
    (entries naming ports past ``n_ports`` are never granted them)."""
    assert _engine_run(SchedulingEngine, n_ports, ops) == _engine_run(
        ReferenceEngine, n_ports, ops
    )


def test_small_switch_never_grants_ports_past_its_range():
    sim = Simulator()
    grants = []
    engine = SchedulingEngine(sim, 4, grant=lambda req, ports: grants.append(ports))
    engine.port_freed(9)  # a stray free of a port the switch does not have
    engine.add_request(Request(1, ForwardingEntry((9,)), Packet(dest_short=1, src_short=2)))
    engine.add_request(Request(2, ForwardingEntry((3, 9), broadcast=True),
                               Packet(dest_short=1, src_short=2)))
    sim.run()
    assert grants == []
    assert engine.pending() == 2


def test_packet_network_matches_reference_dataplane(monkeypatch):
    """A whole installation -- hosts sending packet flows across a cut --
    runs event for event identically on the reference FIFO and scan."""
    def run():
        net = Network(
            torus(2, 3),
            seed=0,
            traffic={
                "pattern": "uniform",
                "mode": "packet",
                "flows": 60,
                "hosts": 12,
                "mean_flow_bytes": 16_384,
                "duration_ns": 200 * MS,
            },
        )
        assert net.run_until_converged(timeout_ns=60 * SEC)
        net.traffic.launch()
        net.run_for(50 * MS)
        net.cut_link(0, 1)
        assert net.run_until_converged(timeout_ns=60 * SEC)
        net.run_for(400 * MS)
        doc = net.traffic_doc("diff")
        assert doc["flows_completed"] > 0
        return json.dumps(
            {
                "events": net.sim.events_dispatched,
                "now": net.sim.now,
                "traffic": doc,
                "forwarded": [s.packets_forwarded for s in net.switches],
                "levels": [
                    [u.fifo.max_level, u.fifo.bytes_forwarded] for s in net.switches
                    for u in s.ports.values()
                ],
            },
            sort_keys=True,
        )

    fast = run()
    for module in ("repro.net.switch", "repro.net.linkunit", "repro.host.controller"):
        monkeypatch.setattr(f"{module}.ReceiveFifo", ReferenceFifo)
    monkeypatch.setattr("repro.net.switch.SchedulingEngine", ReferenceEngine)
    assert run() == fast
