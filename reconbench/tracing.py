"""Layer roll-up of a traced run: host wall time by repro module layer.

A :class:`LayerTracer` fills the simulator's per-event profiler slot
(``Simulator.profiler``: ``begin_run`` / ``account_call`` / ``end_run``)
and buckets each dispatched handler by its ``__module__`` into one of the
repro layers ``sim``, ``net``, ``core``, ``host``, ``traffic`` and
``obs``.  A call that crosses into another layer from inside a handler
(a core task loading a switch table, a switch stamping an observer) is
caught by wrapping the named entry points in :data:`ENTRY_POINTS` for the
traced run only: each wrapper is a span, and a layer's *self* time is its
spans' duration minus the time of the spans nested in them.

Everything lives in memory and is read out once the run ends.  No file
of the program changes: :meth:`LayerTracer.installed` patches the entry
points on their classes and modules and restores the originals on exit.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: the repro packages a traced run attributes wall time to
LAYERS = ("sim", "net", "core", "host", "traffic", "obs")

#: (module, class or None for a module-level function, attribute, counter).
#: A counter -- the metric names of its call count and of its inclusive
#: wall time, or None for the time -- makes the span also count its calls.
#: Module-level functions are patched where the caller resolves them
#: (``repro.core.reconfig`` imports ``build_forwarding_entries`` by name).
Counter = Tuple[str, Optional[str]]
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, Optional[Counter]], ...] = (
    # sim: the control processor's run-to-completion task dispatch
    ("repro.sim.timers", "TaskScheduler", "_start_task", ("sim.cp_tasks", None)),
    # net: crossbar decisions, FIFO boundaries, control-processor I/O
    ("repro.net.scheduler", "SchedulingEngine", "_scan", ("net.scan_calls", "net.scan_s")),
    ("repro.net.fifo", "ReceiveFifo", "_on_boundary", ("net.fifo_boundaries", "net.fifo_boundary_s")),
    ("repro.net.switch", "Switch", "inject_from_cp", None),
    ("repro.net.switch", "Switch", "load_table", None),
    ("repro.net.switch", "Switch", "clear_table", None),
    # core: Autopilot packet handling, port monitoring, route build
    ("repro.core.autopilot", "Autopilot", "_rx_interrupt", None),
    ("repro.core.autopilot", "Autopilot", "_process", ("core.process_calls", "core.process_s")),
    ("repro.core.monitor", "Monitoring", "sample_all", ("core.sample_calls", "core.sample_s")),
    ("repro.core.reconfig", None, "build_forwarding_entries", ("core.route_builds", "core.route_build_s")),
    # host: a traffic sender handing a datagram to its host stack
    ("repro.host.localnet", "LocalNet", "send", None),
    # traffic: arrival scheduling, fluid solver and path walks, stamp
    # sites, packet sink
    ("repro.traffic.engine", "TrafficEngine", "launch", None),
    ("repro.traffic.engine", None, "solve_rates", ("traffic.solves", "traffic.solve_s")),
    ("repro.traffic.engine", None, "walk_path", ("traffic.path_walks", "traffic.walk_s")),
    ("repro.traffic.engine", "TrafficEngine", "record_delivery", None),
    ("repro.traffic.engine", "TrafficEngine", "record_drop", None),
    ("repro.traffic.engine", "TrafficEngine", "note_fault", None),
    ("repro.traffic.engine", "TrafficEngine", "_span_event", None),
    ("repro.traffic.packet", "PacketHosts", "_sink", None),
    # obs: observer entry points called from the other layers' handlers
    ("repro.obs.registry", "Counter", "inc", None),
    ("repro.obs.registry", "Histogram", "observe", None),
    ("repro.obs.spans", "ReconfigTracer", "switch_event", None),
    ("repro.obs.flight", "FlightRecorder", "record", None),
    ("repro.obs.timeseries", "TimeSeriesSampler", "mark", None),
    ("repro.obs.inband", "InbandTelemetry", "record_hop", None),
    ("repro.obs.inband", "InbandTelemetry", "record_drop", None),
    ("repro.obs.inband", "InbandTelemetry", "record_queue_drop", None),
    ("repro.obs.inband", "InbandTelemetry", "record_delivery", None),
    ("repro.obs.control", "ControlAccounting", "record_send", None),
    ("repro.obs.control", "ControlAccounting", "record_retx", None),
    ("repro.obs.control", "ControlAccounting", "record_srp", None),
)

#: the call-count and inclusive-time metric names, in ENTRY_POINTS order
COUNT_NAMES = tuple(c[0] for *_rest, c in ENTRY_POINTS if c)
TIME_NAMES = tuple(c[1] for *_rest, c in ENTRY_POINTS if c and c[1])


def layer_of(module: Optional[str]) -> str:
    """``repro.<layer>.x`` -> ``<layer>``; anything else is ``other``."""
    parts = (module or "").split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


class LayerTracer:
    """Per-layer self time plus entry-point counts for one traced run."""

    def __init__(self) -> None:
        #: span stack of child-time accumulators; index 0 collects the
        #: spans nested directly in the handler the simulator dispatches
        self._stack: List[int] = [0]
        self.self_ns: Dict[str, int] = dict.fromkeys(LAYERS + ("other",), 0)
        self.calls: Dict[str, int] = dict.fromkeys(COUNT_NAMES, 0)
        self.call_ns: Dict[str, int] = dict.fromkeys(TIME_NAMES, 0)
        #: wall time of the dispatched handlers, and inside run()
        self.handler_ns = 0
        self.run_ns = 0
        #: spans are not recorded while paused (the correctness checks
        #: between scenario steps walk paths through wrapped functions)
        self.paused = False
        self._run_started = 0
        self._layer_by_fn: Dict[Any, str] = {}

    # -- Simulator.profiler slot -------------------------------------------------------

    def begin_run(self) -> None:
        # spans entered between runs (fault injection, traffic launch)
        # already counted as self time; they are no handler's children
        self._stack[0] = 0
        self._run_started = perf_counter_ns()

    def end_run(self) -> None:
        self.run_ns += perf_counter_ns() - self._run_started

    def account_call(self, fn: Any, wall_ns: int) -> None:
        key = getattr(fn, "__func__", fn)
        layer = self._layer_by_fn.get(key)
        if layer is None:
            layer = self._layer_by_fn[key] = layer_of(getattr(key, "__module__", None))
        stack = self._stack
        self.self_ns[layer] += wall_ns - stack[0]
        stack[0] = 0
        self.handler_ns += wall_ns

    # -- entry-point spans ---------------------------------------------------------------

    def span(self, fn: Callable[..., Any], counter: Optional[Counter]) -> Callable[..., Any]:
        """``fn`` wrapped as a span of its own layer."""
        layer = layer_of(fn.__module__)
        count_name, time_name = counter or (None, None)
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        call_ns = self.call_ns

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self.paused:
                return fn(*args, **kwargs)
            stack.append(0)
            started = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = perf_counter_ns() - started
                self_ns[layer] += wall - stack.pop()
                stack[-1] += wall
                if count_name is not None:
                    calls[count_name] += 1
                if time_name is not None:
                    call_ns[time_name] += wall

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap every entry point for the duration of the block.

        Install before building the Network: switches and Autopilots
        bind some entry points (``on_cp_packet``, the tracer hook, the
        monitoring periodic) when they are constructed.
        """
        saved = []
        try:
            for module_name, class_name, attr, counter in ENTRY_POINTS:
                owner: Any = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.span(original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------------

    @property
    def loop_ns(self) -> int:
        """Wall time inside Simulator.run not spent in a handler."""
        return self.run_ns - self.handler_ns
