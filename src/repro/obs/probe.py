"""The probe protocol: one hook surface for every hot-path observer.

Like the paper's one §6.7 log stream, the simulator has one observer
slot, ``Simulator.probe``: ``None`` (the default) or a :class:`Probe`.
Every hook site has the shape ``probe = self.sim.probe; if probe is not
None: probe.<hook>(...)`` (staticcheck RS303), so a run with no observer
pays one attribute load plus a ``None`` test per site.  With several
observers on, the slot holds a :class:`FanOut`.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple


class Probe:
    """Hot-path observer hooks, each a no-op here.  An observer overrides
    the hooks it implements, with the same signatures."""

    __slots__ = ()

    def record(self, t_ns: int, component: str, category: str, name: str,
               parent: Optional[int] = None, advance: bool = True,
               **attrs: Any) -> Optional[int]:
        """A causally linked event; returns its id (the flight recorder)."""
        return None

    def record_hop(self, packet: Any, switch: str, in_port: int,
                   out_ports: Tuple[int, ...], depth: float) -> None:
        """A forwarding grant for ``packet`` at ``switch``."""

    def record_drop(self, packet: Any, component: str, cause: str) -> None:
        """A terminal drop: table discard, CRC, misdirection, a full
        host receive buffer."""

    def record_queue_drop(self, packet: Any, fifo_name: str) -> None:
        """A receive-FIFO overflow.  The corrupted victim travels on and is
        dropped (``"crc"``) where it lands, so this is no drop count."""

    def record_delivery(self, packet: Any, host: str) -> None:
        """A packet accepted by a host controller."""

    def record_send(self, epoch: int, msg_type: str, phase: str, wire_bytes: int) -> None:
        """A control packet handed to the switch for transmission."""

    def record_retx(self, epoch: int, msg_type: str) -> None:
        """A reliable-delivery retransmission."""

    def record_srp(self, command: str, event: str) -> None:
        """One SRP step: ``hop`` or ``served``."""

    def note_fault(self, kind: str) -> None:
        """A fault injected through the :class:`~repro.network.Network` API."""


#: the hook names, in declaration order
HOOKS: Tuple[str, ...] = tuple(
    name for name, value in vars(Probe).items() if not name.startswith("_") and callable(value)
)


class FanOut(Probe):
    """Several probes behind the one slot.  Each hook is bound once: to
    its single implementer's method, to a loop over its implementers in
    attach order (returning None), or left the no-op.  Nested fan-outs
    flatten."""

    def __init__(self, *probes: Probe) -> None:
        flat: List[Probe] = []
        for probe in probes:
            flat.extend(probe.probes if isinstance(probe, FanOut) else (probe,))
        self.probes: Tuple[Probe, ...] = tuple(flat)
        for hook in HOOKS:
            noop = getattr(Probe, hook)
            bound = [getattr(p, hook) for p in self.probes if getattr(type(p), hook) is not noop]
            if len(bound) == 1:
                setattr(self, hook, bound[0])
            elif bound:
                setattr(self, hook, _loop(tuple(bound)))


def _loop(hooks: Tuple[Callable[..., Any], ...]) -> Callable[..., None]:
    def fan(*args: Any, **kwargs: Any) -> None:
        for hook in hooks:
            hook(*args, **kwargs)

    return fan
