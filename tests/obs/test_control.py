"""Control-plane cost accounting (repro.obs.control).

Two contracts: disabled accounting is the null fast path (sim.probe
stays None, runs are unchanged), and enabled accounting is purely
observational (it counts, it never perturbs) while slicing control
volume by epoch, message type, and reconfiguration phase.
"""

import json

from repro.constants import SEC
from repro.network import Network
from repro.obs.control import PHASES, ControlAccounting
from repro.topology import resolve_topology


def converged_network(topo="torus-3x4", seed=7, **kwargs):
    net = Network(resolve_topology(topo), seed=seed, **kwargs)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    return net


# -- disabled: the null fast path ------------------------------------------------------


def test_disabled_leaves_sim_control_none():
    net = Network(resolve_topology("ring-4"), seed=0)
    assert net.control is None
    assert net.sim.probe is None
    net.run_for(1 * SEC)
    assert net.sim.probe is None
    assert "control" not in net.telemetry()


def fingerprint(net):
    """Everything simulated state produced, minus wall-clock items."""
    return {
        "now": net.sim.now,
        "events": net.sim.events_dispatched,
        "epochs": [ap.engine.epoch for ap in net.autopilots],
        "tables": [ap.switch.table.generation for ap in net.autopilots],
        "forwarded": [sw.packets_forwarded for sw in net.switches],
    }


def test_enabled_accounting_is_observational():
    """control=True counts without changing a single simulated event."""
    runs = {}
    for flag in (False, True):
        net = Network(resolve_topology("torus-3x4"), seed=11, control=flag)
        net.run_for(2 * SEC)
        net.cut_link(0, 1)
        net.run_for(2 * SEC)
        runs[flag] = fingerprint(net)
    assert runs[False] == runs[True]


# -- enabled: what gets counted --------------------------------------------------------


def test_counts_boot_and_fault_epochs():
    net = converged_network(control=True)
    acct = net.control
    assert acct is net.sim.probe
    boot_packets = acct.packets
    boot_epochs = set(acct.epochs())
    assert boot_packets > 0 and acct.bytes > boot_packets  # > 1 byte/packet
    net.cut_link(0, 1)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    fault_epochs = set(acct.epochs()) - boot_epochs
    assert fault_epochs, "the cut must open at least one new epoch"
    assert acct.packets > boot_packets
    for epoch in fault_epochs:
        assert acct.epoch_packets(epoch) > 0
        assert acct.epoch_bytes(epoch) > 0


def test_by_type_and_phase_slices_sum_to_totals():
    net = converged_network(control=True)
    net.cut_link(0, 1)
    assert net.run_until_converged(timeout_ns=60 * SEC)
    acct = net.control
    by_type = acct.by_type()
    by_phase = acct.by_phase()
    assert "TreePositionMsg" in by_type and "ConfigMsg" in by_type
    assert set(by_phase) <= set(PHASES)
    assert "election" in by_phase  # tree formation dominates
    for slices in (by_type, by_phase):
        assert sum(cell["packets"] for cell in slices.values()) == acct.packets
        assert sum(cell["bytes"] for cell in slices.values()) == acct.bytes
    # per-epoch slices partition the totals too
    assert sum(acct.epoch_packets(e) for e in acct.epochs()) == acct.packets


def test_retransmissions_counted_separately():
    acct = ControlAccounting()
    acct.record_send(3, "AckMsg", "election", 24)
    acct.record_retx(3, "AckMsg")
    acct.record_retx(4, "StableMsg")
    assert acct.packets == 1  # retx is its own ledger, not a double count
    assert acct.retransmissions() == 2
    assert acct.retransmissions(3) == 1
    assert acct.retransmissions(99) == 0


def test_srp_ledger():
    acct = ControlAccounting()
    acct.record_srp("ping", "hop")
    acct.record_srp("ping", "hop")
    acct.record_srp("ping", "served")
    assert acct.summary()["srp"] == {"ping/hop": 2, "ping/served": 1}


def test_srp_traffic_is_accounted_end_to_end():
    from repro.core.messages import SrpMessage

    net = converged_network(control=True)
    replies = []
    route = None
    # find a connected port on switch 0 to hop through
    for p, unit in net.switches[0].ports.items():
        if unit.connected:
            route = (p,)
            break
    assert route is not None
    ap = net.autopilots[0]
    msg = SrpMessage(
        epoch=ap.epoch,
        sender_uid=ap.uid,
        command="ping",
        route=route,
        payload=replies.append,
    )
    ap.srp.handle(0, msg)
    net.run_for(1 * SEC)
    assert replies and replies[0].response == "pong"
    srp = net.control.summary()["srp"]
    assert srp.get("ping/hop", 0) >= 1
    assert srp.get("ping/served", 0) == 1


def test_phase_property_tracks_engine_state():
    net = Network(resolve_topology("ring-4"), seed=0)
    engine = net.autopilots[0].engine
    assert engine.phase == "steady"  # boots configured + loaded
    engine.configured = False
    assert engine.phase == "election"
    engine.configured = True
    engine.table_loaded = False
    assert engine.phase == "loading"


def test_summary_is_json_serializable_and_in_telemetry():
    net = converged_network(control=True)
    summary = net.control.summary()
    json.dumps(summary)
    assert net.telemetry()["control"] == summary
    assert summary["packets"] == net.control.packets
