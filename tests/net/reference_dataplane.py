"""Test-only references: the plain receive-FIFO dynamics and crossbar scan.

These are the straightforward versions of ``ReceiveFifo``'s fluid model
and ``SchedulingEngine._scan`` that the production code was optimized
from: helpers called rather than inlined, head completion recursing into
``_recompute``, boundary candidates collected in lists, and the free-port
set intersected per request.  The differential tests drive a reference
and a production instance with the same script and demand exact equality
(``==`` on floats, event times and grant order), so an optimization of
the hot paths can never change a trajectory.

Only the dynamics are overridden; the public interface (``begin_packet``,
``connect_drain``, ``add_request``, ...) is inherited, so both instances
are driven through the very same entry points.
"""

from __future__ import annotations

from typing import List, Set

from repro.constants import BYTE_TIME_NS
from repro.net.fifo import _EPS, ReceiveFifo
from repro.net.scheduler import SchedulingEngine


class ReferenceFifo(ReceiveFifo):
    """``ReceiveFifo`` with the plain dynamics."""

    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_update
        if dt <= 0:
            return
        slots = dt / BYTE_TIME_NS
        queue = self.queue
        entry = queue[-1] if queue and queue[-1].arriving else None
        if entry is not None and self.in_rate > 0:
            entry.bytes_in = min(float(entry.size), entry.bytes_in + self.in_rate * slots)
        head = queue[0] if queue else None
        if head is not None and self.drain_rate > 0:
            moved = min(self.drain_rate * slots, head.bytes_in - head.bytes_out)
            head.bytes_out += moved
            self.bytes_forwarded += moved
        self._last_update = now
        level = self._level()
        if level > self.max_level:
            self.max_level = level
        if level > self.capacity + _EPS and not self.overflowed:
            self.overflowed = True
            victim = self._arriving_entry()
            if victim is not None:
                victim.packet.corrupted = True
            probe = self.sim.probe
            if probe is not None:
                probe.record_queue_drop(victim.packet if victim else None, self.name)
            if self.on_overflow is not None:
                self.on_overflow(victim.packet if victim else None)

    def _effective_in_rate(self) -> float:
        queue = self.queue
        return self.in_rate if queue and queue[-1].arriving else 0.0

    def _desired_drain_rate(self) -> float:
        queue = self.queue
        head = queue[0] if queue else None
        if head is None or head.targets is None:
            return 0.0
        if not head.drain_started:
            threshold = min(self.cut_through_bytes, head.size)
            if head.bytes_in + _EPS < threshold:
                return 0.0
        broadcast = head.broadcast
        for t in head.targets:
            if not t.drain_allowed(broadcast):
                return 0.0
        if head.bytes_in - head.bytes_out > _EPS:
            return 1.0
        if head.arriving or (queue and queue[-1] is head and self.in_rate > 0):
            rate = self.in_rate if head.arriving and queue[-1] is head else 0.0
            if rate <= 0 and head.drain_started and head.bytes_out + _EPS < head.size:
                if self.on_underflow is not None:
                    self.on_underflow(head.packet)
            return rate
        return 0.0

    def _recompute(self) -> None:
        queue = self.queue
        head = queue[0] if queue else None

        if head is not None and not head.requested and head.bytes_in + _EPS >= 2:
            head.requested = True
            if self.on_head_ready is not None:
                self.on_head_ready(head.packet)

        new_rate = self._desired_drain_rate()
        if head is not None and head.targets is not None:
            if new_rate > 0 and not head.drain_started:
                head.drain_started = True
                if head.arriving:
                    self.cut_through_packets += 1
                else:
                    self.buffered_packets += 1
                for target in head.targets:
                    target.notify_begin(head.packet, head.broadcast)
            if head.drain_started and abs(new_rate - self.drain_rate) > _EPS:
                for target in head.targets:
                    target.notify_rate(new_rate)
        self.drain_rate = new_rate if (head is not None and head.drain_started) else 0.0

        if head is not None and head.bytes_out + _EPS >= head.size:
            self._complete_head()
            return  # _complete_head recurses into _recompute

        level = self._level()
        net = self._effective_in_rate() - self.drain_rate
        if level > self.stop_threshold + _EPS:
            self._set_level_stop(True)
        elif level < self.stop_threshold - _EPS or (
            abs(level - self.stop_threshold) <= _EPS and net <= 0
        ):
            self._set_level_stop(False)

        self._reference_boundary(level, net)

    def _complete_head(self) -> None:
        head = self.queue.popleft()
        self.drain_rate = 0.0
        if head.targets is not None:
            for target in head.targets:
                target.notify_end(head.packet)
        if self.on_packet_drained is not None:
            self.on_packet_drained(head.packet)
        self._recompute()

    def _reference_boundary(self, level: float, net: float) -> None:
        candidates: List[float] = []
        queue = self.queue
        head = queue[0] if queue else None
        arriving = queue[-1] if queue and queue[-1].arriving else None
        in_rate = self.in_rate if arriving is not None else 0.0

        if head is not None:
            if not head.requested and in_rate > 0 and head is arriving:
                candidates.append((2.0 - head.bytes_in) / in_rate)
            if (
                head.targets is not None
                and not head.drain_started
                and in_rate > 0
                and head is arriving
            ):
                threshold = min(self.cut_through_bytes, head.size)
                candidates.append((threshold - head.bytes_in) / in_rate)
            drain_rate = self.drain_rate
            if drain_rate > 0:
                candidates.append((head.size - head.bytes_out) / drain_rate)
                available = head.bytes_in - head.bytes_out
                if head is arriving and drain_rate > in_rate:
                    candidates.append(available / (drain_rate - in_rate))
                elif not head.arriving and available < head.size - head.bytes_out:
                    candidates.append(available / drain_rate)

        if net > _EPS and level <= self.stop_threshold + _EPS:
            candidates.append((self.stop_threshold - level) / net + 0.5)
        elif net < -_EPS and level >= self.stop_threshold - _EPS:
            candidates.append((level - self.stop_threshold) / (-net) + 0.5)
        if net > _EPS and level <= self.capacity + _EPS:
            candidates.append((self.capacity - level) / net + 0.5)

        future = [c for c in candidates if c > _EPS]
        boundary = self._boundary
        if not future:
            if boundary is not None:
                boundary.cancel()
                self._boundary = None
            return
        delay_ns = max(1, int(round(min(future) * BYTE_TIME_NS)))
        if boundary is not None:
            if boundary.time == self.sim.now + delay_ns:
                return
            boundary.cancel()
        self._boundary = self.sim.after(delay_ns, self._on_boundary)


class ReferenceEngine(SchedulingEngine):
    """``SchedulingEngine`` with the set-intersection scan."""

    def _free_ports(self) -> Set[int]:
        return {
            p
            for p in range(self.n_ports + 1)
            if not self.port_busy[p] and p not in self._reserved
        }

    def _scan(self) -> None:
        self._scan_event = None
        free = self._free_ports()
        for request in self.queue:
            if request.entry.broadcast:
                want = set(request.entry.ports)
                newly = (want - request.captured) & free
                for port in newly:
                    request.captured.add(port)
                    self._reserved[port] = request
                free -= newly
                if request.captured == want:
                    self._grant(request, tuple(sorted(want)))
                    return
            else:
                matches = sorted(set(request.entry.ports) & free)
                if matches:
                    self._grant(request, (matches[0],))
                    return
