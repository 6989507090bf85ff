"""Checks of the benchmark's tracing: every wrapper fires where the layer
mapping says it is used, stays silent where it says the workload
bypasses it, and none is left installed afterwards.

    python3 -m pytest -q perfbench/test_wrappers.py
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Fewest units of work that still reach every layer the mapping names.
TINY = {
    layers.HYBRID: 2,
    layers.SERVICE: 24,
}


def test_benchmark_json_matches_the_harness():
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(config) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.PER_LAYER
    ]


def test_mapping_agrees_with_the_wrappers():
    """Every wrapped entry point belongs to exactly one layer; a layer
    names only metrics the harness reports; a workload it should move
    calls one of its entry points, and a workload it must not move calls
    none of them."""
    targets = {target.name: target for target in layers.TARGETS}
    owned = [name for layer in layers.MAPPING for name in layer.targets]
    assert sorted(owned) == sorted(targets)
    metric_names = {name for name, _ in run.END_TO_END}
    for layer in layers.MAPPING:
        for workload, metrics in layer.moves.items():
            assert set(metrics) <= metric_names, layer.name
            assert any(workload in targets[name].uses for name in layer.targets), (layer.name, workload)
        for workload in layer.no_move:
            assert workload not in layer.moves, (layer.name, workload)
            for name in layer.targets:
                assert workload in targets[name].bypasses, (layer.name, name, workload)


def test_readme_carries_the_current_mapping():
    assert layers.mapping_table() in (HERE / "README.md").read_text()


@pytest.mark.parametrize("target", layers.TARGETS, ids=lambda t: t.name)
def test_binding_site_holds_the_original(target):
    """The wrapped attribute is defined on its owner (not inherited) and,
    for a function imported by value, is the very object its defining
    module exports: wrapping there catches the calls made there."""
    owner, attr = tracing.resolve(target)
    assert attr in owner.__dict__, f"{target.attr} is not bound on {owner!r}"
    original = owner.__dict__[attr]
    defining = sys.modules[original.__module__]
    if isinstance(owner, type(sys)):
        assert getattr(defining, original.__name__) is original


@pytest.mark.parametrize("workload", layers.WORKLOADS)
def test_each_wrapper_fires_only_where_the_mapping_says(workload, tmp_path):
    execute = workloads.WORKLOADS[workload]
    recorder = tracing.SpanRecorder()
    result = execute(0, 0.0, lambda: tracing.installed(recorder), 1, tmp_path, recorder,
                     limit=TINY[workload])
    assert tracing.leftover_wrappers() == []
    assert len(result.units) == TINY[workload]
    assert all(unit.ok for unit in result.units)
    totals = tracing.aggregate(recorder)
    for target in layers.TARGETS:
        calls = totals.get(target.name, {"calls": 0})["calls"]
        if workload in target.uses:
            assert calls >= 1, f"{target.name} recorded no call on {workload}"
        if workload in target.bypasses:
            assert calls == 0, f"{target.name} recorded {calls} calls on {workload}"
    if workload == layers.HYBRID:
        # Self times partition the solves' wall: nothing double counted.
        roots = sum(s[2] - s[1] for s in totals["core.HybridSolver.solve"]["spans"])
        assert tracing.self_time_sum(recorder) == pytest.approx(roots, rel=1e-9)


def test_gmres_fires_at_the_kernel_binding():
    """GMRES only runs when Bi-CGstab stalls on a large system, which no
    workload does; drive the kernel into that fallback directly."""
    from repro.linalg.kernel import LinearKernel
    from repro.linalg.sparse import diags

    matrix = diags(np.linspace(1.0, 1e4, 64))
    kernel = LinearKernel(max_iterations=1, dense_fallback_max_rows=0, preconditioner_kind="none")
    recorder = tracing.SpanRecorder()
    with tracing.installed(recorder):
        kernel.solve(matrix, np.ones(64))
    totals = tracing.aggregate(recorder)
    assert totals["linalg.gmres"]["calls"] == 1
    assert totals["linalg.bicgstab"]["calls"] >= 1


def test_wrappers_are_removed_when_the_run_raises():
    originals = {t.name: tracing.resolve(t)[0].__dict__[tracing.resolve(t)[1]] for t in layers.TARGETS}
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.SpanRecorder()):
            assert len(tracing.leftover_wrappers()) == len(layers.TARGETS)
            raise RuntimeError("boom")
    assert tracing.leftover_wrappers() == []
    for target in layers.TARGETS:
        owner, attr = tracing.resolve(target)
        assert owner.__dict__[attr] is originals[target.name]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(36) == 70.0
    assert run.tail_percentile(660) == 95.0
    assert run.tail_percentile(800) == 95.0
    assert run.tail_percentile(5) == 50.0
    assert run.tail_percentile(workloads.SERVICE_PROBLEMS) == 95.0
    assert run.percentile([3.0, 1.0, 2.0, 4.0], 75.0) == 3.0


def test_latencies_are_the_best_run_of_each_input():
    Unit = workloads.Unit
    units = [Unit("a", 3.0, True, False), Unit("b", 2.0, True, False),
             Unit("a", 1.0, True, False), Unit("c", None, False, False)]
    assert sorted(run.best_latencies(units)) == [1.0, 2.0]


def test_every_end_to_end_metric_is_reported_and_nonzero(tmp_path):
    execute = workloads.WORKLOADS[layers.HYBRID]
    result = execute(0, 0.0, nullcontext, 1, tmp_path, limit=1)
    metrics, _notes = run.end_to_end(result, import_s=0.0)
    assert [name for name in metrics] == [name for name, _ in run.END_TO_END]
    assert all(metrics[name]["value"] > 0 for name in metrics)
