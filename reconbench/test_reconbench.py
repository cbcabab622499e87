"""The benchmark's own tests: exact repeats, roll-up, layer separation.

    python3 -m pytest reconbench -q        (about three minutes)

Every count and simulated-time metric must repeat exactly between reps
of one seed, the traced run must not change the trajectory, the layer
roll-up must reconcile with the traced wall, and the layers must
separate across the workloads the way README.md predicts.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run._bootstrap()

from scenarios import WORKLOADS, execute  # noqa: E402
from tracing import LAYERS  # noqa: E402

#: the seed held out from tuning, for confirming later claims
HELD_OUT_SEED = 101


def _shares(rep):
    tracer = rep.tracer
    return {layer: tracer.self_ns[layer] / 1e9 / rep.run_s for layer in LAYERS}


@pytest.fixture(scope="module")
def traced():
    """One traced rep of every workload on seed 0."""
    return {name: execute(w, 0, trace=True) for name, w in WORKLOADS.items()}


def test_same_seed_reps_repeat_exactly(traced):
    workload = WORKLOADS["lan30-cut-restore"]
    first, second = execute(workload, 0), execute(workload, 0)
    again = execute(workload, 0, trace=True)
    for rep in (second, traced["lan30-cut-restore"], again):
        assert rep.digest == first.digest
        assert rep.sim == first.sim
        assert {k: rep.counts[k] for k in first.counts} == first.counts
    assert again.counts == traced["lan30-cut-restore"].counts


def test_tracing_leaves_every_trajectory_unchanged(traced):
    for name in ("torus-packet-observed", "lan30-fluid-hotspot"):
        plain = execute(WORKLOADS[name], 0)
        assert traced[name].digest == plain.digest, name
        assert traced[name].sim == plain.sim, name


def test_layer_roll_up_reconciles_with_traced_wall(traced):
    for name, rep in traced.items():
        tracer = rep.tracer
        layers = sum(tracer.self_ns[layer] for layer in LAYERS)
        assert tracer.self_ns["other"] == 0, name
        attributed = (tracer.loop_ns + layers) / 1e9
        assert abs(rep.run_s - attributed) <= 0.05 * rep.run_s, (name, rep.run_s, attributed)


def test_layers_separate_as_predicted(traced):
    fluid = _shares(traced["lan30-fluid-hotspot"])
    torus = _shares(traced["torus-packet-observed"])
    lan = _shares(traced["lan30-cut-restore"])
    assert max(fluid, key=fluid.get) == "traffic"
    assert max(torus, key=torus.get) == "net"
    assert traced["lan30-cut-restore"].tracer.self_ns["traffic"] == 0
    assert lan["core"] >= 2 * torus["core"]


def test_counters_count_the_named_work(traced):
    lan = traced["lan30-cut-restore"].counts
    fluid = traced["lan30-fluid-hotspot"].counts
    torus = traced["torus-packet-observed"].counts
    assert lan["core.route_builds"] > 0 and lan["net.scan_calls"] > 0
    assert lan["traffic.solves"] == 0 and fluid["traffic.solves"] > 0
    assert torus["host.rx_packets"] > 0 and lan["host.rx_packets"] == 0
    # every Autopilot packet handled goes through the wrapped _process
    for counts in (lan, fluid, torus):
        assert counts["core.process_calls"] == counts["core.cp_packets"]


@pytest.mark.parametrize("seed", [0, HELD_OUT_SEED])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_correctness_gate_passes(name, seed):
    rep = execute(WORKLOADS[name], seed, check=True)
    assert rep.violations == []
    assert rep.sim["reconfig_ms"] > 0 and rep.sim["blackout_ms"] > 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name,trace,metrics", [
    ("torus-packet-observed", "0", run.END_TO_END),
    ("lan30-cut-restore", "1", run.PER_LAYER),
])
def test_cli_prints_the_contract_line(capsys, name, trace, metrics):
    assert run.main(["--workload", name, "--seed", "0", "--seconds", "0", "--trace", trace]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_REPS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == metrics
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if k in run.END_TO_END)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    bench = os.path.join(run.ROOT, "reconbench")
    shutil.copytree(bench, tmp_path / "reconbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "reconbench/run.py", "--workload", "lan30-cut-restore",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
