"""Link units: the per-port hardware of an Autonet switch (section 5.1).

A link unit terminates one full-duplex link.  The receive path buffers
arriving bytes in the 4096-byte FIFO, captures the address bytes for the
router, and derives the start/stop flow control sent back on the reverse
channel.  The transmit path relays a draining FIFO onto the link.  The
unit exposes the status bits of section 6.5.2 that Autopilot's status
sampler polls, and the control-register operations (send idhy, reset).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Optional

from repro.constants import DEFAULT_FIFO_BYTES, DEFAULT_STOP_FRACTION
from repro.net.fifo import ReceiveFifo
from repro.net.flowcontrol import Directive, FlowControlReceiver, FlowControlSender
from repro.net.link import Endpoint, Transmitter
from repro.net.packet import Packet
from repro.sim.engine import Simulator


@dataclass(slots=True)
class StatusSample:
    """One read of a link unit's status bits (section 6.5.2).

    ``is_host``, ``xmit_ok`` and ``in_packet`` report current conditions;
    the rest report whether the condition occurred since the last read.
    """

    is_host: bool = False
    xmit_ok: bool = False
    in_packet: bool = False
    bad_code: bool = False
    bad_syntax: bool = False
    overflow: bool = False
    underflow: bool = False
    idhy_seen: bool = False
    panic_seen: bool = False
    progress_seen: bool = True
    start_seen: bool = False
    #: only stop directives are being received (distinct from silence:
    #: an alternate host port sends no directives at all)
    stop_seen: bool = False


class LinkUnit(Endpoint):
    """One external switch port: receive FIFO, flow control, transmitter."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        port_no: int,
        on_head_ready: Callable[[int, Packet], None],
        on_packet_drained: Callable[[int, Packet], None],
        fifo_bytes: int = DEFAULT_FIFO_BYTES,
        stop_fraction: float = DEFAULT_STOP_FRACTION,
        cut_through_bytes: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.port_no = port_no
        self._on_head_ready = on_head_ready
        self._on_packet_drained = on_packet_drained
        #: false while the owning switch is powered off
        self.enabled = True
        #: the section 7 proposal: tag up- and down-direction traffic with
        #: different start commands so a link unit can discard packets
        #: arriving in the wrong direction (its own reflected signal).
        #: Off by default -- the paper proposes but does not build it.
        self.discard_misdirected = False
        #: invoked when a panic directive arrives (wired by the switch)
        self.on_panic: Optional[Callable[[], None]] = None
        self.misdirected_discards = 0
        #: packets lost to receive-FIFO overflow on this port
        self.overflow_drops = 0
        # cumulative time the far end's stop directive gated this
        # transmitter (the paper's congestion signature, section 6.2)
        self._stop_time_ns = 0
        self._stopped_since: Optional[int] = None

        self._overflow_flag = False
        self._underflow_flag = False

        from repro.constants import CUT_THROUGH_BYTES

        self.fifo = ReceiveFifo(
            sim,
            name=f"{name}.fifo",
            capacity=fifo_bytes,
            stop_fraction=stop_fraction,
            cut_through_bytes=(
                CUT_THROUGH_BYTES if cut_through_bytes is None else cut_through_bytes
            ),
            on_head_ready=lambda pkt: self._on_head_ready(self.port_no, pkt),
            on_level_directive=self._level_directive,
            on_packet_drained=lambda pkt: self._on_packet_drained(self.port_no, pkt),
            on_overflow=self._note_overflow,
            on_underflow=self._note_underflow,
        )
        # The value latched at power-up is unpredictable (section 6.2); we
        # default to the permissive value so a port wired to an alternate
        # host port forwards packets (which the host then ignores), as the
        # design intended.  Tests preset STOP to exercise the oversight.
        self.fc_receiver = FlowControlReceiver(
            on_change=self._fc_changed, initial=Directive.START
        )
        self.tx = Transmitter(self, self.fc_receiver)
        #: created when a link is attached (needs the endpoint wired first)
        self.fc_sender: Optional[FlowControlSender] = None
        #: forced directive while the port is administratively dead
        self._forced_directive: Optional[Directive] = None
        # sampling bookkeeping
        self._last_bytes_forwarded = 0.0
        self._last_packets_seen = 0

    # -- wiring ----------------------------------------------------------------------

    def attach_link(self) -> None:
        """Called once the link reference is set; builds the fc sender."""
        if self.link is None:
            raise RuntimeError(f"{self.name}: no link attached")
        self.fc_sender = FlowControlSender(
            self.sim,
            deliver=lambda d: self.link.send_flow_control(self, d),
            propagation_ns=0,
            # per-port slot phase, stable across runs (str hash is salted)
            phase=(zlib.crc32(self.name.encode()) % 256) * 80,
        )
        if self._forced_directive is not None:
            self.fc_sender.force(self._forced_directive)
        if self.fifo.stopped:
            self.fc_sender.set_level_directive(Directive.STOP)

    @property
    def connected(self) -> bool:
        return self.link is not None

    # -- receive path (Endpoint interface) ----------------------------------------------

    def rx_begin_packet(self, packet: Packet) -> None:
        if not self.enabled:
            return
        if (
            self.discard_misdirected
            and self.link is not None
            and self.link.received_condition(self) == "own-signal"
        ):
            # direction-tagged start commands reveal the packet as our own
            # reflection: discard it in the link unit (section 7 proposal).
            # The stray rate/end markers that follow are harmless: with no
            # matching FIFO entry they are ignored.
            self.misdirected_discards += 1
            probe = self.sim.probe
            if probe is not None:
                probe.record_drop(packet, self.name, "misdirected")
            return
        self.fifo.begin_packet(packet)

    def rx_set_rate(self, rate: float) -> None:
        if self.enabled:
            self.fifo.set_in_rate(rate)

    def rx_end_packet(self, packet: Packet) -> None:
        if self.enabled:
            self.fifo.end_packet(packet)

    def rx_flow_control(self, directive: Directive) -> None:
        if not self.enabled:
            return
        self.fc_receiver.receive(directive, self.sim.now)
        if directive is Directive.PANIC and self.on_panic is not None:
            # panic forces this link unit to reset: clear the receive FIFO
            # and reinitialize the link control hardware so that
            # reconfiguration packets can get through (section 6.1)
            self.on_panic()

    def describe_transmission(self) -> str:
        return "normal" if self.enabled else "silence"

    def on_link_state_change(self) -> None:
        # Directives recur every flow-control slot on a real channel, but
        # our model only delivers changes.  When the physical state of the
        # link changes -- healed, or now reflecting our own signal back --
        # the periodic stream starts reaching a (possibly new) receiver,
        # which the model expresses by re-announcing the current value.
        # A CUT link's re-announcement is dropped by the link itself, so
        # the far latch keeps the last directive (the §6.2 oversight).
        if self.fc_sender is not None:
            self.fc_sender.reannounce()

    # -- flow-control coupling ---------------------------------------------------------

    def _level_directive(self, directive: Directive) -> None:
        if self.fc_sender is not None:
            self.fc_sender.set_level_directive(directive)

    def _fc_changed(self, directive: Directive) -> None:
        allowed = self.fc_receiver.transmission_allowed
        if not allowed and self._stopped_since is None:
            self._stopped_since = self.sim.now
        elif allowed and self._stopped_since is not None:
            self._stop_time_ns += self.sim.now - self._stopped_since
            self._stopped_since = None
        # re-gate any drain this port's transmitter is serving
        self.fifo_of_current_drain_recompute()

    def cumulative_stop_ns(self, now: Optional[int] = None) -> int:
        """Total time transmission on this port has been stop-gated."""
        total = self._stop_time_ns
        if self._stopped_since is not None:
            total += (self.sim.now if now is None else now) - self._stopped_since
        return total

    def fifo_of_current_drain_recompute(self) -> None:
        """Ask the FIFO currently draining through this transmitter to
        re-evaluate its rate.  The switch wires this up via the crossbar
        bookkeeping; overridden there."""
        if self._drain_source is not None:
            self._drain_source.recompute()

    _drain_source: Optional[ReceiveFifo] = None

    def set_drain_source(self, fifo: Optional[ReceiveFifo]) -> None:
        self._drain_source = fifo

    # -- control register ---------------------------------------------------------------

    def force_directive(self, directive: Optional[Directive]) -> None:
        """Force idhy (port dead) or release to level-driven flow control."""
        self._forced_directive = directive
        if self.fc_sender is not None:
            self.fc_sender.force(directive)

    def send_panic(self) -> None:
        """Send one panic directive to force the far link unit to reset
        (section 6.1; the paper had not yet implemented this facility)."""
        if self.fc_sender is not None:
            self.fc_sender.pulse(Directive.PANIC)

    def reset(self) -> None:
        """Clear the receive FIFO, destroying any packets it holds."""
        self.fifo.queue.clear()
        self.fifo.drain_rate = 0.0
        self.fifo.recompute()

    # -- status bits (section 6.5.2) ------------------------------------------------------

    def _note_overflow(self, packet: Optional[Packet]) -> None:
        self._overflow_flag = True
        self.overflow_drops += 1
        self.fifo.overflowed = False  # re-arm detection

    def _note_underflow(self, packet: Packet) -> None:
        self._underflow_flag = True

    def sample_status(self) -> StatusSample:
        """Read and clear the accumulated status bits."""
        fc = self.fc_receiver
        # the latched directive, read once (a port sample runs every
        # sampling period on every port)
        last = fc.last
        xmit_ok = fc.transmission_allowed
        condition = self.link.received_condition(self) if self.link else "silence"
        # the far end's directive stream is heard (possibly our own)
        heard = condition == "normal" or condition == "own-signal"
        fifo = self.fifo

        forwarded = fifo.bytes_forwarded - self._last_bytes_forwarded
        seen = fifo.packets_seen - self._last_packets_seen
        self._last_bytes_forwarded = fifo.bytes_forwarded
        self._last_packets_seen = fifo.packets_seen

        sample = StatusSample(
            is_host=last is Directive.HOST,
            xmit_ok=xmit_ok,
            in_packet=self.tx.current is not None,
            bad_code=condition == "silence" or condition == "noise",
            bad_syntax=condition == "sync-only",
            overflow=self._overflow_flag,
            underflow=self._underflow_flag,
            # directives recur every flow-control slot on real links, so
            # a latched idhy is a chronic condition, not a one-shot event
            idhy_seen=fc.idhy_seen > 0 or (condition == "normal" and last is Directive.IDHY),
            panic_seen=fc.panic_seen > 0,
            progress_seen=forwarded > 0 or (seen == 0 and not fifo.queue),
            # StartSeen: a directive permitting transmission is on the
            # wire.  Directives recur every flow-control slot, so while the
            # remote's latched transmission is start/host the condition is
            # chronic.
            start_seen=heard and xmit_ok,
            stop_seen=heard and last is Directive.STOP,
        )
        self._overflow_flag = False
        self._underflow_flag = False
        fc.idhy_seen = 0
        fc.panic_seen = 0
        return sample

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LinkUnit {self.name}>"
