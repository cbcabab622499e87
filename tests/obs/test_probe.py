"""The probe protocol (repro.obs.probe): one observer slot, one hook surface.

Drift guards: the hot-path observers implement only protocol hooks with
the protocol's signatures, a network with no hot-path observer leaves
``sim.probe`` None, and the fan-out delivers each hook to exactly its
implementers in attach order.
"""

import inspect

import pytest

from repro.network import Network
from repro.obs.control import ControlAccounting
from repro.obs.flight import FlightRecorder
from repro.obs.inband import InbandTelemetry
from repro.obs.probe import HOOKS, FanOut, Probe
from repro.sim.engine import Simulator
from repro.topology import line, ring
from repro.traffic.engine import TrafficEngine

#: who implements which hook (the tracing harness patches these by name)
OBSERVER_HOOKS = {
    FlightRecorder: {"record"},
    InbandTelemetry: {"record_hop", "record_drop", "record_queue_drop", "record_delivery"},
    ControlAccounting: {"record_send", "record_retx", "record_srp"},
    TrafficEngine: {"record_delivery", "record_drop", "note_fault"},
}


def test_hooks_are_the_public_probe_methods():
    public = {name for name, _ in inspect.getmembers(Probe, inspect.isfunction)
              if not name.startswith("_")}
    assert set(HOOKS) == public
    assert len(HOOKS) == len(public)


@pytest.mark.parametrize("cls", list(OBSERVER_HOOKS), ids=lambda c: c.__name__)
def test_observer_overrides_only_hooks_with_their_signatures(cls):
    assert issubclass(cls, Probe)
    overridden = {name for name in vars(cls) if hasattr(Probe, name)
                  and not name.startswith("_")}
    assert overridden == OBSERVER_HOOKS[cls]
    # a hook-shaped method the protocol lacks would be a silent no-op
    # behind a fan-out
    hook_shaped = {name for name in vars(cls) if name.startswith(("record", "note_"))}
    assert hook_shaped <= set(HOOKS)
    for name in overridden:
        ours = inspect.signature(getattr(cls, name)).parameters
        theirs = inspect.signature(getattr(Probe, name)).parameters
        assert list(ours) == list(theirs), name


@pytest.mark.parametrize("kwargs", [{}, {"timeseries": True, "profile": True}],
                         ids=["plain", "timeseries+profile"])
def test_no_hot_path_observer_leaves_the_slot_empty(kwargs):
    net = Network(ring(3), seed=0, **kwargs)
    assert net.sim.probe is None
    net.run_for(10**9)
    assert net.sim.probe is None


def test_one_observer_is_the_slot_itself():
    net = Network(ring(3), seed=0, control=True)
    assert net.sim.probe is net.control


def test_network_fans_out_in_attach_order():
    net = Network(ring(3), seed=0, flight=True, inband=True, control=True,
                  traffic={"flows": 4, "hosts": 3})
    probe = net.sim.probe
    assert isinstance(probe, FanOut)
    assert probe.probes == (net.flight, net.inband, net.control, net.traffic)


class Spy(Probe):
    def __init__(self, name, log):
        self.name = name
        self.log = log

    def record_drop(self, packet, component, cause):
        self.log.append((self.name, cause))


class Quiet(Probe):
    pass


def test_fan_out_binds_a_single_implementer_directly():
    control = ControlAccounting()
    recorder = FlightRecorder()
    fan = FanOut(recorder, Quiet(), control)
    for hook in ("record_send", "record_retx", "record_srp"):
        bound = getattr(fan, hook)
        assert bound.__self__ is control
        assert bound.__func__ is getattr(ControlAccounting, hook)
    assert fan.record.__self__ is recorder
    # a hook nobody implements stays the protocol's no-op
    assert fan.note_fault.__func__ is Probe.note_fault
    assert fan.record_hop(None, "sw0", 1, (2,), 0.0) is None


def test_fan_out_calls_every_implementer_in_attach_order():
    log = []
    first, second = Spy("first", log), Spy("second", log)
    fan = FanOut(first, Quiet(), second)
    fan.record_drop(None, "sw0", "crc")
    assert log == [("first", "crc"), ("second", "crc")]
    # nested fan-outs flatten, keeping the order
    third = Spy("third", log)
    assert FanOut(fan, third).probes == (first, fan.probes[1], second, third)


def test_recorder_context_flows_through_the_simulator_cell():
    sim = Simulator()
    rec = FlightRecorder(sim=sim)
    sim.probe = FanOut(rec, ControlAccounting())
    seen = []

    def later():
        seen.append(sim.probe.record(sim.now, "sw0", "epoch", "deferred"))

    def start():
        sim.probe.record(sim.now, "sw0", "port", "root")
        sim.after(50, later)

    sim.after(10, start)
    sim.run()
    assert [e.name for e in rec.why(seen[0])] == ["root", "deferred"]


@pytest.mark.parametrize("observer", [
    {"flight": True}, {"inband": True}, {"control": True}, {"traffic": {"flows": 4, "hosts": 2}},
], ids=["flight", "inband", "control", "traffic"])
def test_shared_simulator_refuses_to_retarget_another_networks_probe(observer):
    """A second network's observer used to replace the first one's in
    the shared slot, so the first network's counters silently stopped
    and the second's absorbed both networks' traffic."""
    sim = Simulator()
    first = Network(line(2), sim=sim, name="A", control=True)
    with pytest.raises(ValueError, match="another network"):
        Network(line(2), sim=sim, name="B", **observer)
    assert sim.probe is first.control
