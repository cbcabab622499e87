"""Run one workload of the reconfiguration benchmark and print its metrics.

    python3 reconbench/run.py --workload lan30-cut-restore --seed 0 --seconds 20 --trace 0

A run builds the installation ``SETUP_REPS`` times on its own to time
set-up, then repeats the workload with the one ``--seed`` for about
``--seconds`` (at least ``MIN_REPS`` times), so the spread between
repetitions is machine noise only.  The last rep also runs the
correctness gate: the quiescent-point invariants after every
reconvergence, outside its timed steps.  Every rep must reproduce that
rep's trajectory digest, simulated outcome and work counts exactly; a rep
that does not, or that breaks a check, counts as failed.

``--trace 0`` reports the end-to-end metrics, measured untraced.  Their
times are in reference seconds: a shared VM can change speed by up to
1.7x over minutes, so a fixed pure-Python kernel is timed before
every build and rep, and the medians are scaled by ``CAL_REF_S`` over the
kernel's median time in the run (the raw medians are printed as well).
``--trace 1`` alternates untraced and traced reps and reports the
per-layer roll-up (see README.md).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in its own process, one after the
other, and names each metric ``<workload>/<metric>`` in that line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Dict, List, Tuple

from tracing import LAYERS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: extra set-up-only builds per run (set-up is ~50 ms, so one rep's
#: build alone is too noisy to gate on)
SETUP_REPS = 15
MIN_REPS = 3

#: what the calibration kernel is taken to cost on the reference machine.
#: Any constant gives the same ratios between runs; this one is of the
#: order of the kernel's median on a 2-vCPU VM (0.011-0.02 s by phase).
CAL_REF_S = 0.02

#: end-to-end metrics (--trace 0): name -> unit
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB"}

#: per-layer metrics (--trace 1): name -> unit
PER_LAYER = {
    "sim.events": "count",
    "sim.cp_tasks": "count",
    "sim.loop_s": "s",
    "sim.self_s": "s",
    "net.self_s": "s",
    "net.scan_calls": "count",
    "net.scan_s": "s",
    "net.fifo_boundaries": "count",
    "net.fifo_boundary_s": "s",
    "net.packets_forwarded": "count",
    "net.packets_discarded": "count",
    "net.cut_through_ratio": "ratio",
    "net.sched_wait_p99_ns": "sim_ns",
    "core.self_s": "s",
    "core.process_calls": "count",
    "core.process_s": "s",
    "core.sample_calls": "count",
    "core.sample_s": "s",
    "core.route_builds": "count",
    "core.route_build_s": "s",
    "core.cp_packets": "count",
    "core.epochs": "count",
    "host.self_s": "s",
    "host.rx_packets": "count",
    "traffic.self_s": "s",
    "traffic.solves": "count",
    "traffic.solve_s": "s",
    "traffic.path_walks": "count",
    "traffic.walk_s": "s",
    "obs.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "reconfig_ms": "sim_ms",
    "blackout_ms": "sim_ms",
    "flow_p50_ms": "sim_ms",
    "flow_p99_ms": "sim_ms",
    "goodput_mibps": "MiB/sim_s",
    "blackout_cost_mib": "MiB",
    "flows_failed": "ratio",
}


def _bootstrap() -> None:
    """Make the program (``src/repro``) importable, or exit non-zero."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"reconbench: no program to measure: {src}/repro is missing")
    sys.path.insert(0, src)


def _calibrate() -> float:
    """Wall time of a fixed interpreter-bound kernel: tuple allocation,
    dict stores and heap traffic, like the simulator's own hot paths.
    The previous rep's garbage is collected first, so the kernel's
    allocations never pay for it."""
    gc.collect()
    started = perf_counter()
    heap: List[Tuple[int, int]] = []
    table: Dict[int, Tuple[int, int]] = {}
    for i in range(20_000):
        item = (i * 7919 % 10_007, i)
        heappush(heap, item)
        table[item[0]] = item
        if len(heap) > 64:
            heappop(heap)
    return perf_counter() - started


def _time_setup(workload, seed: int, cal: List[float]) -> float:
    cal.append(_calibrate())
    # the kernel's allocations advance the collector's counters; reset
    # them so every build starts from the state execute() gives a rep's
    gc.collect()
    started = perf_counter()
    workload.build(seed)
    return perf_counter() - started


def _reps(
    workload, seed: int, seconds: float, trace: bool, cal: List[float]
) -> List[Tuple[Any, Any]]:
    """(untraced rep, traced rep or None) pairs while another pair still
    fits in ``seconds``, leaving the time of one untraced rep for the gate."""
    from scenarios import execute

    pairs = []
    deadline = perf_counter() + seconds
    pair_s = 0.0
    while len(pairs) < MIN_REPS - 1 or perf_counter() + 2 * pair_s < deadline:
        cal.append(_calibrate())
        started = perf_counter()
        plain = execute(workload, seed)
        pairs.append((plain, execute(workload, seed, trace=True) if trace else None))
        pair_s = perf_counter() - started
    return pairs


def _disagreements(rep, gate) -> List[str]:
    """How ``rep`` departs from the checked rep's simulated trajectory."""
    out = []
    if rep.digest != gate.digest:
        out.append(f"trajectory digest {rep.digest[:12]} != {gate.digest[:12]}")
    for name, value in rep.sim.items():
        if value != gate.sim[name]:
            out.append(f"{name} {value!r} != {gate.sim[name]!r}")
    for name, value in rep.counts.items():
        if name in gate.counts and value != gate.counts[name]:
            out.append(f"{name} {value} != {gate.counts[name]}")
    return out


def _layer_metrics(plain, traced, gate) -> Dict[str, float]:
    counts = traced[0].counts
    med = statistics.median

    def tracer_median(fn) -> float:
        return med(fn(rep.tracer) for rep in traced)

    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer_median(lambda t, layer=layer: t.self_ns[layer] / 1e9)
    for name in traced[0].tracer.call_ns:
        out[name] = tracer_median(lambda t, name=name: t.call_ns[name] / 1e9)
    out["sim.loop_s"] = tracer_median(lambda t: t.loop_ns / 1e9)
    wall = med(rep.run_s for rep in traced)
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = wall - med(rep.run_s for rep in plain)
    out["trace.unattributed_s"] = med(
        rep.run_s
        - (rep.tracer.loop_ns + sum(v for k, v in rep.tracer.self_ns.items() if k != "other"))
        / 1e9
        for rep in traced
    )
    for name in PER_LAYER:
        if name in counts:
            out[name] = counts[name]
    seen = counts["net.cut_through"] + counts["net.buffered"]
    out["net.cut_through_ratio"] = counts["net.cut_through"] / seen if seen else 0.0
    out.update(gate.sim)
    return out


def _report(name: str, seed: int, plain, traced, gate, metrics, units) -> None:
    times = [rep.run_s for rep in plain]
    print(f"reconbench {name} seed={seed}: {len(plain)} untraced reps, run_s "
          + " ".join(f"{t:.4f}" for t in times))
    print(f"  trajectory digest {gate.digest}")
    for violation in gate.violations:
        print(f"  VIOLATION {violation}")
    if traced:
        wall = statistics.median(t.run_s for t in traced)
        shares = {"loop": metrics["sim.loop_s"]}
        shares.update({k[:-7]: metrics[k] for k in metrics if k.endswith(".self_s")})
        print("  traced layer shares: " + "  ".join(
            f"{k} {v / wall:.1%}" for k, v in shares.items()
        ))
    for key, value in metrics.items():
        print(f"  {key:<24} {value:>16.6f} {units[key]}")


def _run_all(args) -> int:
    from scenarios import WORKLOADS

    merged: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    _bootstrap()
    from scenarios import WORKLOADS, execute

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)

    cal: List[float] = []
    setups = [_time_setup(workload, args.seed, cal) for _ in range(SETUP_REPS)]
    pairs = _reps(workload, args.seed, args.seconds, trace, cal)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cal.append(_calibrate())
    gate = execute(workload, args.seed, check=True)

    plain = [rep for rep, _traced in pairs] + [gate]
    traced = [rep for _plain, rep in pairs if rep is not None]
    failed = 0
    for rep in plain[:-1] + traced:
        problems = rep.violations + _disagreements(rep, gate)
        if rep.tracer is not None:
            first = traced[0].counts
            problems += [f"{k} {v} != {first[k]}" for k, v in rep.counts.items() if v != first[k]]
        if problems or gate.violations:
            failed += 1
            for problem in problems:
                print(f"  rep failed: {problem}")
    failed += bool(gate.violations)

    if trace:
        metrics = _layer_metrics(plain, traced, gate)
        units = PER_LAYER
    else:
        setup_s = statistics.median(setups + [rep.setup_s for rep in plain])
        run_s = statistics.median(rep.run_s for rep in plain)
        scale = CAL_REF_S / statistics.median(cal)
        print(f"  raw medians: setup_s {setup_s:.6f} run_s {run_s:.6f}; calibration "
              f"kernel median {statistics.median(cal):.6f} s over {len(cal)}, scale {scale:.4f}")
        metrics = {"setup_s": setup_s * scale, "run_s": run_s * scale, "peak_rss_mib": peak_rss_mib}
        units = END_TO_END
    _report(workload.name, args.seed, plain, traced, gate, metrics, units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
