"""RS3xx fixtures: observability discipline."""

import inspect

from repro.obs.probe import Probe
from repro.staticcheck import check_source
from repro.staticcheck.framework import all_rules
from repro.staticcheck.obsrules import PROBE_HOOKS


def rules_of(findings):
    return sorted({f.rule for f in findings})


def check(source, module="repro.net.fixture", path="src/repro/net/fixture.py"):
    return check_source(source, module=module, path=path)


# -- RS301: literal metric names ------------------------------------------------------


def test_rs301_computed_metric_name_flagged():
    findings = check(
        "def setup(self, name):\n"
        "    self.hits = self.metrics.counter('packets_' + name)\n"
    )
    assert "RS301" in rules_of(findings)


def test_rs301_fstring_metric_name_flagged():
    findings = check(
        "def setup(self, sw):\n"
        "    self.hits = self.sim.metrics.counter(f'packets_{sw}')\n"
    )
    assert "RS301" in rules_of(findings)


def test_rs301_clean_literal_name_with_label():
    findings = check(
        "def setup(self, sw):\n"
        "    self.hits = self.sim.metrics.counter('packets_forwarded', switch=sw)\n"
    )
    assert findings == []


def test_rs301_collector_name_must_be_literal():
    findings = check(
        "def setup(self, registry, name):\n"
        "    registry.collect(name, lambda: 0)\n"
    )
    assert "RS301" in rules_of(findings)


def test_rs301_unrelated_receivers_ignored():
    # .collect()/.counter() on things that are not a registry
    findings = check(
        "def f(gc, name):\n"
        "    gc.collect(name)\n"
    )
    assert findings == []


# -- RS302: bounded label cardinality -------------------------------------------------


def test_rs302_fstring_label_value_flagged():
    findings = check(
        "def setup(self, sw, port):\n"
        "    self.metrics.counter('drops', port=f'{sw}-{port}')\n"
    )
    assert rules_of(findings) == ["RS302"]


def test_rs302_too_many_labels_flagged():
    findings = check(
        "def setup(self, m):\n"
        "    self.metrics.counter('x', a=1, b=2, c=3, d=4, e=5)\n"
    )
    assert rules_of(findings) == ["RS302"]


def test_rs302_clean_raw_values_and_buckets_kwarg():
    findings = check(
        "def setup(self, sw, port):\n"
        "    self.metrics.histogram('wait_ns', buckets=(1, 10), switch=sw, port=port)\n"
    )
    assert findings == []


# -- RS303: the probe guard, one rule for every hot-path observer ---------------------
#
# The merged rule's table.  RS305 (in-band stamps), RS306 (control
# accounting) and RS308 (traffic-engine stamps) were copies of RS303 for
# their own ``sim.<layer>`` slots; each of their fixtures is a case here,
# now on the one ``sim.probe`` slot, under the id it had before.  A case
# is (source, the rule of every expected finding, module, path).

FIXTURE = ("repro.net.fixture", "src/repro/net/fixture.py")

PROBE_GUARD_CASES = {
    # -- from RS303 (flight recorder)
    "rs303_chained_recorder_call_flagged": (
        "def on_packet(self, pkt):\n"
        "    self.sim.probe.record(0, 'sw', 'msg', 'recv')\n",
        ["RS303"], *FIXTURE,
    ),
    "rs303_unguarded_local_flagged": (
        "def on_packet(self, pkt):\n"
        "    rec = self.sim.probe\n"
        "    rec.record(0, 'sw', 'msg', 'recv')\n",
        ["RS303"], *FIXTURE,
    ),
    "rs303_clean_guarded_local": (
        "def on_packet(self, pkt):\n"
        "    rec = self.sim.probe\n"
        "    if rec is not None:\n"
        "        rec.record(0, 'sw', 'msg', 'recv')\n",
        [], *FIXTURE,
    ),
    "rs303_clean_guard_with_and_chain_inside_loop": (
        "def flush(self, pkts):\n"
        "    for pkt in pkts:\n"
        "        rec = self.sim.probe\n"
        "        if rec is not None and self.name is not None:\n"
        "            rec.record(0, self.name, 'msg', 'send')\n",
        [], *FIXTURE,
    ),
    "rs303_clean_early_return_guard": (
        "def mark(self):\n"
        "    rec = self.sim.probe\n"
        "    if rec is None:\n"
        "        return\n"
        "    rec.record(0, 'sw', 'epoch', 'mark')\n",
        [], *FIXTURE,
    ),
    "rs303_implementation_module_exempt": (
        "def replay(self):\n"
        "    self.probe.record(0, 'x', 'y', 'z')\n",
        [], "repro.obs.flight", "src/repro/obs/flight.py",
    ),
    # -- from RS305 (in-band stamps)
    "rs305_chained_inband_call_flagged": (
        "def forward(self, pkt, port):\n"
        "    self.sim.probe.record_hop(pkt, self.name, port, (2,), 0.0)\n",
        ["RS303"], *FIXTURE,
    ),
    "rs305_unguarded_local_flagged": (
        "def forward(self, pkt, port):\n"
        "    ib = self.sim.probe\n"
        "    ib.record_hop(pkt, self.name, port, (2,), 0.0)\n",
        ["RS303"], *FIXTURE,
    ),
    "rs305_clean_guarded_local": (
        "def forward(self, pkt, port):\n"
        "    ib = self.sim.probe\n"
        "    if ib is not None:\n"
        "        ib.record_hop(pkt, self.name, port, (2,), 0.0)\n",
        [], *FIXTURE,
    ),
    "rs305_clean_early_return_guard": (
        "def deliver(self, pkt):\n"
        "    ib = self.sim.probe\n"
        "    if ib is None:\n"
        "        return\n"
        "    ib.record_delivery(pkt, self.name)\n",
        [], *FIXTURE,
    ),
    "rs305_all_stamp_methods_audited": (
        "".join(
            f"def site_{method}(self, pkt):\n    self.sim.probe.{method}(pkt)\n"
            for method in ("record_hop", "record_drop", "record_queue_drop",
                           "record_delivery")
        ),
        ["RS303"] * 4, *FIXTURE,
    ),
    # non-hook methods (document(), quantiles()) are tool-time, not hot path
    "rs305_unrelated_methods_ignored": (
        "def export(self):\n"
        "    return self.sim.probe.document()\n",
        [], *FIXTURE,
    ),
    "rs305_implementation_module_exempt": (
        "def record_hop(self, pkt):\n"
        "    self.sim.probe.record_hop(pkt)\n",
        [], "repro.obs.inband", "src/repro/obs/inband.py",
    ),
    # -- from RS306 (control accounting)
    "rs306_chained_control_call_flagged": (
        "def send(self, msg):\n"
        "    self.sim.probe.record_send(0, 'AckMsg', 'steady', 24)\n",
        ["RS303"], *FIXTURE,
    ),
    "rs306_unguarded_local_flagged": (
        "def send(self, msg):\n"
        "    acct = self.sim.probe\n"
        "    acct.record_send(0, 'AckMsg', 'steady', 24)\n",
        ["RS303"], *FIXTURE,
    ),
    "rs306_clean_guarded_local": (
        "def send(self, msg):\n"
        "    acct = self.sim.probe\n"
        "    if acct is not None:\n"
        "        acct.record_send(0, 'AckMsg', 'steady', 24)\n",
        [], *FIXTURE,
    ),
    "rs306_clean_early_return_guard": (
        "def retransmit(self, pending):\n"
        "    acct = self.sim.probe\n"
        "    if acct is None:\n"
        "        return\n"
        "    acct.record_retx(0, 'ConfigMsg')\n",
        [], *FIXTURE,
    ),
    "rs306_all_accounting_methods_audited": (
        "def site(self):\n"
        "    self.sim.probe.record_send(0, 'AckMsg', 'steady', 24)\n"
        "    self.sim.probe.record_retx(0, 'AckMsg')\n"
        "    self.sim.probe.record_srp('ping', 'hop')\n",
        ["RS303"] * 3, *FIXTURE,
    ),
    # summary()/by_type() are tool-time queries, not hot-path hooks
    "rs306_unrelated_methods_ignored": (
        "def report(self):\n"
        "    return self.sim.probe.summary()\n",
        [], *FIXTURE,
    ),
    "rs306_implementation_module_exempt": (
        "def record_send(self, epoch, msg, phase, size):\n"
        "    self.sim.probe.record_send(epoch, msg, phase, size)\n",
        [], "repro.obs.control", "src/repro/obs/control.py",
    ),
    # -- from RS308 (traffic-engine stamps)
    "rs308_chained_traffic_call_flagged": (
        "def rx(self, packet):\n"
        "    self.sim.probe.record_drop(packet, self.name, 'crc')\n",
        ["RS303"], *FIXTURE,
    ),
    "rs308_unguarded_local_flagged": (
        "def rx(self, packet):\n"
        "    tr = self.sim.probe\n"
        "    tr.record_delivery(packet, self.name)\n",
        ["RS303"], *FIXTURE,
    ),
    "rs308_clean_guarded_local": (
        "def rx(self, packet):\n"
        "    tr = self.sim.probe\n"
        "    if tr is not None:\n"
        "        tr.record_delivery(packet, self.name)\n",
        [], *FIXTURE,
    ),
    "rs308_clean_early_return_guard": (
        "def fault(self, kind):\n"
        "    tr = self.sim.probe\n"
        "    if tr is None:\n"
        "        return\n"
        "    tr.note_fault(kind)\n",
        [], *FIXTURE,
    ),
    "rs308_all_stamp_methods_audited": (
        "def site(self, packet):\n"
        "    self.sim.probe.record_delivery(packet, self.name)\n"
        "    self.sim.probe.record_drop(packet, self.name, 'crc')\n"
        "    self.sim.probe.note_fault('cut-link')\n",
        ["RS303"] * 3, *FIXTURE,
    ),
    # the engine implements the stamps; its internals are out of scope
    "rs308_engine_internals_exempt": (
        "def _resolve(self):\n"
        "    self.sim.probe.note_fault('internal')\n",
        [], "repro.traffic.engine", "src/repro/traffic/engine.py",
    ),
}


def _probe_guard_test(source, expected, module, path):
    def test():
        findings = check(source, module=module, path=path)
        assert sorted(f.rule for f in findings) == expected

    return test


# one test per case, named after it, so each case passes or fails on its own
for _name, _case in PROBE_GUARD_CASES.items():
    globals()[f"test_{_name}"] = _probe_guard_test(*_case)


def test_rs303_hooks_are_the_probe_protocol():
    hooks = {name for name, _ in inspect.getmembers(Probe, inspect.isfunction)
             if not name.startswith("_")}
    assert PROBE_HOOKS == hooks


def test_rs303_audits_every_hook():
    source = "".join(
        f"def site_{hook}(self):\n    self.sim.probe.{hook}()\n" for hook in sorted(PROBE_HOOKS)
    )
    findings = check(source)
    assert [f.rule for f in findings] == ["RS303"] * len(PROBE_HOOKS)


def test_rs303_audits_only_probe_receivers():
    # an observer reached through its Network attribute is tool-time code
    findings = check(
        "def site(self, packet):\n"
        "    self.net.inband.record_drop(packet, self.name, 'crc')\n"
        "    self.net.control.record_send(0, 'AckMsg', 'steady', 24)\n"
    )
    assert findings == []


def test_retired_guard_rules_are_gone():
    ids = {rule.id for rule in all_rules()}
    assert "RS303" in ids
    assert not ids & {"RS305", "RS306", "RS308"}


# -- RS304: sampler bounded-ring discipline -------------------------------------------


def test_rs304_computed_collector_name_flagged():
    findings = check(
        "def install(self, name):\n"
        "    self.sampler.add_collector('fifo_' + name, lambda: 0.0)\n"
    )
    assert "RS304" in rules_of(findings)


def test_rs304_fstring_collector_name_flagged():
    findings = check(
        "def install(self, sw):\n"
        "    self.sim.sampler.add_collector(f'epoch_{sw}', lambda: 0.0)\n"
    )
    assert "RS304" in rules_of(findings)


def test_rs304_appending_collector_callback_flagged():
    findings = check(
        "def install(self, log):\n"
        "    self.sampler.add_collector('epoch', lambda: log.append(1))\n"
    )
    assert "RS304" in rules_of(findings)


def test_rs304_computed_ring_capacity_flagged():
    findings = check(
        "from repro.obs.timeseries import TimeSeriesConfig\n"
        "def build(self, n):\n"
        "    return TimeSeriesConfig(capacity=n * 4)\n"
    )
    assert "RS304" in rules_of(findings)


def test_rs304_clean_literal_name_capacity_and_pure_callback():
    findings = check(
        "from repro.obs.timeseries import TimeSeriesConfig\n"
        "def install(self, sw):\n"
        "    config = TimeSeriesConfig(capacity=1024, mark_capacity=256)\n"
        "    self.sampler.add_collector(\n"
        "        'epoch', lambda: float(self.engines[sw].epoch), switch=sw)\n"
        "    return config\n"
    )
    assert findings == []


def test_rs304_unrelated_receivers_ignored():
    findings = check(
        "def f(gatherer, name):\n"
        "    gatherer.add_collector(name, lambda: 0)\n"
    )
    assert findings == []


def test_rs304_implementation_module_exempt():
    findings = check_source(
        "def _ring(self, name, labels):\n"
        "    self.sampler.add_collector(name, lambda: self.rows.append(1))\n",
        module="repro.obs.timeseries", path="src/repro/obs/timeseries.py",
    )
    assert findings == []


# -- RS307: literal sweep metric names ------------------------------------------------


def test_rs307_computed_metric_name_flagged():
    findings = check(
        "def record(self, point, name, value):\n"
        "    point.set_metric(name, value)\n"
    )
    assert rules_of(findings) == ["RS307"]


def test_rs307_fstring_metric_name_flagged():
    findings = check(
        "def record(self, sweep_point, kind):\n"
        "    sweep_point.set_metric(f'{kind}_ns', 1.0)\n"
    )
    assert rules_of(findings) == ["RS307"]


def test_rs307_concatenated_name_flagged():
    findings = check(
        "def record(self, point, suffix):\n"
        "    point.set_metric('control_' + suffix, 1.0)\n"
    )
    assert rules_of(findings) == ["RS307"]


def test_rs307_clean_literal_name():
    findings = check(
        "def record(self, point, value):\n"
        "    point.set_metric('blackout_ns', value)\n"
    )
    assert findings == []


def test_rs307_unrelated_receivers_ignored():
    # set_metric on something that is not a sweep point is out of scope
    findings = check(
        "def f(gauge, name):\n"
        "    gauge.set_metric(name, 1.0)\n"
    )
    assert findings == []
