"""First-come, first-considered output-port scheduling (section 6.4).

The engine keeps a queue of forwarding requests (at most one per input
port, because only the packet at the head of each FIFO is considered).  A
vector of free output ports is matched against the queue in arrival order:

* an *alternative* request (broadcast = 0) captures any one free matching
  port, preferring the lowest number;
* a *simultaneous* request (broadcast = 1) accumulates matching free ports
  -- reserving them against younger requests -- and is granted only when
  the whole set is captured.

Requests may be serviced out of order when the free ports don't suit older
requests, but a broadcast request's reservations guarantee it is
eventually scheduled: starvation freedom, which
``tests/net/test_scheduler.py`` checks directly.  One request is scheduled
every 480 ns, bounding the switch at ~2 M forwarding decisions per second.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.constants import ROUTER_DECISION_TIME_NS
from repro.net.forwarding import ForwardingEntry
from repro.net.packet import Packet
from repro.sim.engine import EventHandle, Simulator


class Request:
    """A forwarding request from one input port's head packet."""

    __slots__ = ("in_port", "entry", "packet", "captured", "queued_at")

    def __init__(self, in_port: int, entry: ForwardingEntry, packet: Packet) -> None:
        self.in_port = in_port
        self.entry = entry
        self.packet = packet
        #: ports already reserved for a simultaneous (broadcast) request
        self.captured: Set[int] = set()
        #: set when the request enters the engine's queue
        self.queued_at = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "bcast" if self.entry.broadcast else "alt"
        return f"<Request in={self.in_port} {kind} ports={self.entry.ports}>"


GrantCallback = Callable[[Request, Tuple[int, ...]], None]


class SchedulingEngine:
    """The Xilinx scheduling engine of Figure 7."""

    def __init__(
        self,
        sim: Simulator,
        n_ports: int,
        grant: GrantCallback,
        decision_ns: int = ROUTER_DECISION_TIME_NS,
    ) -> None:
        self.sim = sim
        self.n_ports = n_ports
        self.grant = grant
        self.decision_ns = decision_ns
        #: oldest request first (the right-most queue slot in Figure 7)
        self.queue: List[Request] = []
        self.port_busy: Dict[int, bool] = {p: False for p in range(n_ports + 1)}
        self._reserved: Dict[int, Request] = {}
        self._busy_until = 0
        self._scan_event: Optional[EventHandle] = None
        self.grants = 0
        #: optional repro.obs histogram of grant waits (ns); None = off
        self.wait_hist = None

    # -- external interface ------------------------------------------------------------

    def add_request(self, request: Request) -> None:
        request.queued_at = self.sim.now
        self.queue.append(request)
        self._kick()

    def port_freed(self, port: int) -> None:
        self.port_busy[port] = False
        self._kick()

    def mark_port_busy(self, port: int) -> None:
        self.port_busy[port] = True

    def clear(self) -> None:
        """Drop all pending requests and reservations (switch reset)."""
        self.queue.clear()
        self._reserved.clear()
        if self._scan_event is not None:
            self._scan_event.cancel()
            self._scan_event = None

    def remove_requests_from(self, in_port: int) -> None:
        """Drop pending requests from one input port (port isolation),
        releasing any output ports a broadcast request had reserved."""
        removed = [r for r in self.queue if r.in_port == in_port]
        if not removed:
            return
        self.queue = [r for r in self.queue if r.in_port != in_port]
        for request in removed:
            for port in request.captured:
                if self._reserved.get(port) is request:
                    del self._reserved[port]
        self._kick()

    def pending(self) -> int:
        return len(self.queue)

    # -- the scan -----------------------------------------------------------------------

    def _kick(self) -> None:
        if self._scan_event is not None or not self.queue:
            return
        at = max(self.sim.now, self._busy_until)
        self._scan_event = self.sim.at(at, self._scan)

    def _scan(self) -> None:
        """One pass of the free-port vector over the queue, oldest first.

        A port is free when it is in ``range(n_ports + 1)``, not busy and
        not reserved by a broadcast request.  Entry port vectors are
        sorted, so walking one in order finds an alternative request's
        lowest free port first."""
        self._scan_event = None
        n_ports = self.n_ports
        busy = self.port_busy
        reserved = self._reserved
        for request in self.queue:
            entry = request.entry
            if entry.broadcast:
                # capture every free wanted port (reserving it against
                # younger requests); grant once the whole set is held
                captured = request.captured
                complete = True
                for port in entry.ports:
                    if port in captured:
                        continue
                    if 0 <= port <= n_ports and not busy[port] and port not in reserved:
                        captured.add(port)
                        reserved[port] = request
                    else:
                        complete = False
                if complete:
                    self._grant(request, tuple(sorted(captured)))
                    return
            else:
                for port in entry.ports:
                    if 0 <= port <= n_ports and not busy[port] and port not in reserved:
                        self._grant(request, (port,))
                        return
        # nothing grantable now; wait for the next port_freed/add_request

    def _grant(self, request: Request, ports: Tuple[int, ...]) -> None:
        self.queue.remove(request)
        for port in ports:
            self._reserved.pop(port, None)
            self.port_busy[port] = True
        self._busy_until = self.sim.now + self.decision_ns
        self.grants += 1
        if self.wait_hist is not None:
            self.wait_hist.observe(self.sim.now - request.queued_at)
        self.grant(request, ports)
        self._kick()
