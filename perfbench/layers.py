"""What the traced run wraps, what each layer should move, and the
per-layer metrics computed from the spans.

Every target names the module where the call site looks the name up
(its binding site), not only where it is defined: ``bicgstab`` is
wrapped in ``repro.linalg.kernel`` because that module imported it by
value, so wrapping ``repro.linalg.iterative.bicgstab`` would miss every
kernel call. ``uses`` lists the workloads that must record at least one
call and ``bypasses`` those that must record none; the test beside this
file checks both.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

HYBRID = "hybrid_burgers"
SERVICE = "service_closed_loop"
WORKLOADS = (HYBRID, SERVICE)

Hook = Optional[Callable[..., Any]]


@dataclass(frozen=True)
class Target:
    name: str
    module: str
    attr: str
    uses: Tuple[str, ...]
    bypasses: Tuple[str, ...]
    before: Hook = None
    after: Hook = None
    request_of: Hook = None


# -- count hooks: read only what the call was given or returned -------------


def _matvec_counts(_pre, args, _kwargs, _result):
    matrix = args[0]
    nnz, rows = matrix.data.shape[0], matrix.shape[0]
    # Computed, not measured: one multiply-add per stored entry; bytes
    # are the arrays the kernel reads (data, indices, gathered x,
    # indptr) and writes (out), ignoring caches.
    return {
        "flops": 2 * nnz,
        "bytes": nnz * (matrix.data.itemsize + matrix.indices.itemsize + 8)
        + (rows + 1) * matrix.indptr.itemsize
        + rows * 8,
    }


def _iterative_counts(_pre, _args, _kwargs, result):
    if result is None:
        return None
    return {"iterations": result.iterations, "converged": int(result.converged)}


_KERNEL_FIELDS = ("inner_iterations", "preconditioner_builds", "gmres_fallbacks", "dense_fallbacks")


def _kernel_before(args, _kwargs):
    stats = args[0].stats
    return tuple(getattr(stats, field) for field in _KERNEL_FIELDS)


def _kernel_counts(pre, args, _kwargs, _result):
    stats = args[0].stats
    delta = {f: getattr(stats, f) - p for f, p in zip(_KERNEL_FIELDS, pre)}
    delta["fallbacks"] = delta.pop("gmres_fallbacks") + delta.pop("dense_fallbacks")
    return delta


def _ode_counts(_pre, _args, _kwargs, result):
    if result is None:
        return None
    return {"accepted_steps": max(len(result.ts) - 1, 0), "rhs_evaluations": result.rhs_evaluations}


def _converged(_pre, _args, _kwargs, result):
    return None if result is None else {"converged": int(result.converged)}


def _analog_counts(_pre, _args, _kwargs, result):
    if result is None:
        return None
    return {"seed_accepted": int(result.seed_accepted), "settled": int(result.converged)}


def _hybrid_counts(_pre, args, kwargs, _result):
    system = args[1] if len(args) > 1 else kwargs.get("system")
    grid = getattr(system, "grid", None)
    return {f"n{grid.nx}": 1} if grid is not None else None


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _journal_before(args, _kwargs):
    return _file_size(args[0].path)


def _journal_counts(pre, args, _kwargs, _result):
    return {"bytes": _file_size(args[0].path) - pre}


def _submit_request(args, kwargs):
    request = args[1] if len(args) > 1 else kwargs.get("request")
    return request.request_id


def _window_request(args, kwargs):
    requests = args[1] if len(args) > 1 else kwargs.get("requests")
    return ",".join(request.request_id for request in requests)


def _window_counts(_pre, _args, _kwargs, result):
    if result is None:
        return None
    return {"retries": sum(outcome.retries for outcome in result.outcomes)}


def _ladder_counts(_pre, _args, _kwargs, result):
    return None if result is None else {"rungs_tried": len(result.rungs_tried)}


def _route_counts(_pre, _args, _kwargs, result):
    if result is None:
        return None
    return {"settles_avoided": result[1].get("settles_avoided", 0)}


def _certify_counts(_pre, _args, _kwargs, result):
    return None if result is None else {"passed": int(result.passed)}


TARGETS: Tuple[Target, ...] = (
    Target("linalg.CsrMatrix.matvec", "repro.linalg.sparse", "CsrMatrix.matvec",
           (HYBRID,), (SERVICE,), after=_matvec_counts),
    Target("linalg.bicgstab", "repro.linalg.kernel", "bicgstab",
           (HYBRID,), (SERVICE,), after=_iterative_counts),
    # Fires only when Bi-CGstab stalls on a system too large for the
    # dense fallback; the test proves the binding with a direct call.
    Target("linalg.gmres", "repro.linalg.kernel", "gmres",
           (), (SERVICE,), after=_iterative_counts),
    Target("linalg.LinearKernel.solve", "repro.linalg.kernel", "LinearKernel.solve",
           WORKLOADS, (), before=_kernel_before, after=_kernel_counts),
    Target("pde.BurgersStencilSystem.jacobian", "repro.pde.burgers",
           "BurgersStencilSystem.jacobian", (HYBRID,), (SERVICE,)),
    Target("pde.BurgersStencilSystem.residual", "repro.pde.burgers",
           "BurgersStencilSystem.residual", (HYBRID,), (SERVICE,)),
    Target("pde.csr_from_triplets", "repro.pde.burgers", "csr_from_triplets",
           (HYBRID,), (SERVICE,)),
    Target("ode.integrate_until_settled", "repro.nonlinear.continuous_newton",
           "integrate_until_settled", WORKLOADS, (), after=_ode_counts),
    Target("nonlinear.continuous_newton_solve", "repro.analog.engine",
           "continuous_newton_solve", WORKLOADS, (), after=_converged),
    Target("nonlinear.newton_solve.core_hybrid", "repro.core.hybrid", "newton_solve",
           (HYBRID,), (SERVICE,), after=_iterative_counts),
    Target("nonlinear.newton_solve.runtime_ladder", "repro.runtime.ladder", "newton_solve",
           (SERVICE,), (HYBRID,), after=_iterative_counts),
    Target("analog.AnalogAccelerator.solve", "repro.analog.engine", "AnalogAccelerator.solve",
           WORKLOADS, (), after=_analog_counts),
    Target("core.HybridSolver.solve", "repro.core.hybrid", "HybridSolver.solve",
           (HYBRID,), (SERVICE,), after=_hybrid_counts),
    Target("checkpoint.BatchJournal.append", "repro.checkpoint.journal", "BatchJournal.append",
           (SERVICE,), (HYBRID,), before=_journal_before, after=_journal_counts),
    Target("service.SolveService.submit", "repro.service.service", "SolveService.submit",
           (SERVICE,), (HYBRID,), request_of=_submit_request),
    Target("service.Shard.run_window", "repro.service.shard", "Shard.run_window",
           (SERVICE,), (HYBRID,), after=_window_counts, request_of=_window_request),
    Target("runtime.DegradationLadder.solve", "repro.runtime.ladder", "DegradationLadder.solve",
           (SERVICE,), (HYBRID,), after=_ladder_counts),
    Target("fleet.AnalogFleet.route", "repro.fleet.scheduler", "AnalogFleet.route",
           (SERVICE,), (HYBRID,), after=_route_counts),
    Target("fleet.AnalogFleet.observe", "repro.fleet.scheduler", "AnalogFleet.observe",
           (SERVICE,), (HYBRID,)),
    Target("certify.certify_solution", "repro.runtime.runtime", "certify_solution",
           (SERVICE,), (HYBRID,), after=_certify_counts),
)

# -- the layer -> end-to-end mapping -----------------------------------------

NEWTON_SITES = tuple(t.name for t in TARGETS if t.name.startswith("nonlinear.newton_solve."))
LATENCY = ("latency_p50_s", "latency_tail_s")
QUALITY = ("seed_error_rms", "newton_iters_mean")


@dataclass(frozen=True)
class Layer:
    """Which end-to-end metrics a change to these entry points should
    move, on which workload, and the workloads it must not move. A perf
    change names its claim and its no-move workload from here. A
    no-move workload records no call to any of the layer's targets; the
    test beside this file checks that against ``TARGETS``."""

    name: str
    targets: Tuple[str, ...]
    moves: Dict[str, Tuple[str, ...]]
    no_move: Tuple[str, ...]


MAPPING: Tuple[Layer, ...] = (
    Layer("linalg (sparse kernels)",
          ("linalg.CsrMatrix.matvec", "linalg.bicgstab", "linalg.gmres"),
          {HYBRID: LATENCY}, (SERVICE,)),
    # The service's 2x2 Newton steps call the kernel too (dense solve).
    Layer("linalg (LinearKernel)", ("linalg.LinearKernel.solve",),
          {HYBRID: LATENCY}, ()),
    Layer("pde",
          ("pde.BurgersStencilSystem.jacobian", "pde.BurgersStencilSystem.residual",
           "pde.csr_from_triplets"),
          {HYBRID: LATENCY}, (SERVICE,)),
    # The service's ladder settles too, on a short budget.
    Layer("ode", ("ode.integrate_until_settled",),
          {HYBRID: LATENCY + ("newton_iters_mean",)}, ()),
    Layer("nonlinear (analog flow)", ("nonlinear.continuous_newton_solve",),
          {HYBRID: LATENCY + ("newton_iters_mean",)}, ()),
    # Both workloads run a digital Newton: the polish and the ladder's rungs.
    Layer("nonlinear (digital Newton)", NEWTON_SITES,
          {HYBRID: LATENCY + ("newton_iters_mean",),
           SERVICE: LATENCY + ("newton_iters_mean",)}, ()),
    Layer("analog", ("analog.AnalogAccelerator.solve",), {HYBRID: QUALITY}, ()),
    Layer("core", ("core.HybridSolver.solve",), {HYBRID: QUALITY}, (SERVICE,)),
    Layer("checkpoint (journal)", ("checkpoint.BatchJournal.append",),
          {SERVICE: LATENCY}, (HYBRID,)),
    Layer("service", ("service.SolveService.submit", "service.Shard.run_window"),
          {SERVICE: LATENCY}, (HYBRID,)),
    Layer("runtime", ("runtime.DegradationLadder.solve",), {SERVICE: LATENCY}, (HYBRID,)),
    Layer("fleet", ("fleet.AnalogFleet.route", "fleet.AnalogFleet.observe"),
          {SERVICE: LATENCY}, (HYBRID,)),
    Layer("certify", ("certify.certify_solution",), {SERVICE: LATENCY}, (HYBRID,)),
)


def mapping_table() -> str:
    """``MAPPING`` as the markdown table README.md carries."""

    def names(items):
        return ", ".join(f"`{item}`" for item in items)

    def metrics(items):
        if items[:len(LATENCY)] == LATENCY:
            return ", ".join(["latency set"] + [f"`{item}`" for item in items[len(LATENCY):]])
        return names(items)

    rows = ["| layer | wrapped entry points | should move | must not move |", "|---|---|---|---|"]
    for layer in MAPPING:
        moves = "<br>".join(f"on `{workload}`: {metrics(items)}" for workload, items in layer.moves.items())
        rows.append(f"| {layer.name} | {names(layer.targets)} | {moves} | {names(layer.no_move) or '-'} |")
    rows.append(f"\nThe latency set is {names(LATENCY)}.")
    return "\n".join(rows)


# -- per-layer metrics -------------------------------------------------------

Totals = Dict[str, Dict[str, Any]]


def _entry(totals: Totals, name: str) -> Dict[str, Any]:
    return totals.get(name) or {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}, "spans": []}


def _calls(name):
    return lambda t: _entry(t, name)["calls"]


def _seconds(name, key="self_s"):
    return lambda t: _entry(t, name)[key]


def _count(name, key):
    return lambda t: _entry(t, name)["counts"].get(key, 0)


def _ratio(name, key):
    """Share of calls with ``key`` set; reads 0 when nothing was called."""

    def compute(t):
        entry = _entry(t, name)
        return entry["counts"].get(key, 0) / entry["calls"] if entry["calls"] else 0.0

    return compute


def _reuse_ratio(t):
    entry = _entry(t, "linalg.LinearKernel.solve")
    if not entry["calls"]:
        return 0.0
    return 1.0 - min(entry["counts"].get("preconditioner_builds", 0), entry["calls"]) / entry["calls"]


def _grid_seconds(n):
    def compute(t):
        spans = [s for s in _entry(t, "core.HybridSolver.solve")["spans"] if s[5] and s[5].get(f"n{n}")]
        return sum(s[2] - s[1] for s in spans) / len(spans) if spans else 0.0

    return compute


def _newton_sum(read):
    """Sum ``read(entry)`` over the two ``newton_solve`` binding sites."""
    return lambda t: sum(read(_entry(t, name)) for name in NEWTON_SITES)


def _newton_converged_ratio(t):
    calls = _newton_sum(lambda e: e["calls"])(t)
    converged = _newton_sum(lambda e: e["counts"].get("converged", 0))(t)
    return converged / calls if calls else 0.0


def _queue_wait(t):
    """Mean seconds from ``SolveService.submit`` to the start of the
    ``Shard.run_window`` that carried the request."""
    submitted = {s[4]: s[1] for s in _entry(t, "service.SolveService.submit")["spans"]}
    waits = []
    for span in _entry(t, "service.Shard.run_window")["spans"]:
        for request_id in (span[4] or "").split(","):
            if request_id in submitted:
                waits.append(span[1] - submitted[request_id])
    return sum(waits) / len(waits) if waits else 0.0


# (name, unit, better, compute(totals)). The trace.* rows are filled in
# by the harness from the traced and untraced walls.
PER_LAYER: List[Tuple[str, str, str, Optional[Callable[[Totals], float]]]] = [
    ("linalg.CsrMatrix.matvec.calls", "count", "lower", _calls("linalg.CsrMatrix.matvec")),
    ("linalg.CsrMatrix.matvec.self_s", "s", "lower", _seconds("linalg.CsrMatrix.matvec")),
    ("linalg.CsrMatrix.matvec.flops_computed", "count", "lower", _count("linalg.CsrMatrix.matvec", "flops")),
    ("linalg.CsrMatrix.matvec.bytes_computed", "bytes", "lower", _count("linalg.CsrMatrix.matvec", "bytes")),
    ("linalg.bicgstab.calls", "count", "lower", _calls("linalg.bicgstab")),
    ("linalg.bicgstab.self_s", "s", "lower", _seconds("linalg.bicgstab")),
    ("linalg.bicgstab.iterations", "count", "lower", _count("linalg.bicgstab", "iterations")),
    ("linalg.bicgstab.converged_ratio", "ratio", "higher", _ratio("linalg.bicgstab", "converged")),
    ("linalg.gmres.calls", "count", "lower", _calls("linalg.gmres")),
    ("linalg.gmres.iterations", "count", "lower", _count("linalg.gmres", "iterations")),
    ("linalg.gmres.converged_ratio", "ratio", "higher", _ratio("linalg.gmres", "converged")),
    ("linalg.LinearKernel.solve.calls", "count", "lower", _calls("linalg.LinearKernel.solve")),
    ("linalg.LinearKernel.solve.self_s", "s", "lower", _seconds("linalg.LinearKernel.solve")),
    ("linalg.LinearKernel.solve.inner_iterations", "count", "lower",
     _count("linalg.LinearKernel.solve", "inner_iterations")),
    ("linalg.LinearKernel.solve.preconditioner_builds", "count", "lower",
     _count("linalg.LinearKernel.solve", "preconditioner_builds")),
    ("linalg.LinearKernel.solve.reuse_ratio", "ratio", "higher", _reuse_ratio),
    ("linalg.LinearKernel.solve.fallbacks", "count", "lower", _count("linalg.LinearKernel.solve", "fallbacks")),
    ("pde.BurgersStencilSystem.jacobian.calls", "count", "lower", _calls("pde.BurgersStencilSystem.jacobian")),
    ("pde.BurgersStencilSystem.jacobian.self_s", "s", "lower", _seconds("pde.BurgersStencilSystem.jacobian")),
    ("pde.BurgersStencilSystem.residual.calls", "count", "lower", _calls("pde.BurgersStencilSystem.residual")),
    ("pde.BurgersStencilSystem.residual.self_s", "s", "lower", _seconds("pde.BurgersStencilSystem.residual")),
    ("pde.csr_from_triplets.calls", "count", "lower", _calls("pde.csr_from_triplets")),
    ("pde.csr_from_triplets.self_s", "s", "lower", _seconds("pde.csr_from_triplets")),
    ("ode.integrate_until_settled.calls", "count", "lower", _calls("ode.integrate_until_settled")),
    ("ode.integrate_until_settled.self_s", "s", "lower", _seconds("ode.integrate_until_settled")),
    ("ode.integrate_until_settled.accepted_steps", "count", "lower",
     _count("ode.integrate_until_settled", "accepted_steps")),
    ("ode.integrate_until_settled.rhs_evaluations", "count", "lower",
     _count("ode.integrate_until_settled", "rhs_evaluations")),
    ("nonlinear.continuous_newton_solve.calls", "count", "lower", _calls("nonlinear.continuous_newton_solve")),
    ("nonlinear.continuous_newton_solve.self_s", "s", "lower", _seconds("nonlinear.continuous_newton_solve")),
    ("nonlinear.continuous_newton_solve.converged_ratio", "ratio", "higher",
     _ratio("nonlinear.continuous_newton_solve", "converged")),
    ("nonlinear.newton_solve.calls", "count", "lower", _newton_sum(lambda e: e["calls"])),
    ("nonlinear.newton_solve.self_s", "s", "lower", _newton_sum(lambda e: e["self_s"])),
    ("nonlinear.newton_solve.iterations", "count", "lower",
     _newton_sum(lambda e: e["counts"].get("iterations", 0))),
    ("nonlinear.newton_solve.converged_ratio", "ratio", "higher", _newton_converged_ratio),
    ("nonlinear.newton_solve.core_hybrid.calls", "count", "lower", _calls("nonlinear.newton_solve.core_hybrid")),
    ("nonlinear.newton_solve.runtime_ladder.calls", "count", "lower",
     _calls("nonlinear.newton_solve.runtime_ladder")),
    ("analog.AnalogAccelerator.solve.calls", "count", "lower", _calls("analog.AnalogAccelerator.solve")),
    ("analog.AnalogAccelerator.solve.self_s", "s", "lower", _seconds("analog.AnalogAccelerator.solve")),
    ("analog.AnalogAccelerator.solve.seed_accept_ratio", "ratio", "higher",
     _ratio("analog.AnalogAccelerator.solve", "seed_accepted")),
    ("analog.AnalogAccelerator.solve.settled_ratio", "ratio", "higher",
     _ratio("analog.AnalogAccelerator.solve", "settled")),
    ("core.HybridSolver.solve.calls", "count", "lower", _calls("core.HybridSolver.solve")),
    ("core.HybridSolver.solve.s", "s", "lower", _seconds("core.HybridSolver.solve", "s")),
    ("core.HybridSolver.solve.self_s", "s", "lower", _seconds("core.HybridSolver.solve")),
    ("core.HybridSolver.solve.n8_s", "s", "lower", _grid_seconds(8)),
    ("core.HybridSolver.solve.n12_s", "s", "lower", _grid_seconds(12)),
    ("core.HybridSolver.solve.n16_s", "s", "lower", _grid_seconds(16)),
    ("checkpoint.BatchJournal.append.calls", "count", "lower", _calls("checkpoint.BatchJournal.append")),
    ("checkpoint.BatchJournal.append.s", "s", "lower", _seconds("checkpoint.BatchJournal.append", "s")),
    ("checkpoint.BatchJournal.append.bytes", "bytes", "lower", _count("checkpoint.BatchJournal.append", "bytes")),
    ("service.SolveService.submit.calls", "count", "higher", _calls("service.SolveService.submit")),
    ("service.queue_wait.mean_s", "s", "lower", _queue_wait),
    ("service.Shard.run_window.calls", "count", "lower", _calls("service.Shard.run_window")),
    ("service.Shard.run_window.s", "s", "lower", _seconds("service.Shard.run_window", "s")),
    ("service.Shard.run_window.self_s", "s", "lower", _seconds("service.Shard.run_window")),
    ("runtime.DegradationLadder.solve.calls", "count", "lower", _calls("runtime.DegradationLadder.solve")),
    ("runtime.DegradationLadder.solve.s", "s", "lower", _seconds("runtime.DegradationLadder.solve", "s")),
    ("runtime.DegradationLadder.solve.rungs_tried", "count", "lower",
     _count("runtime.DegradationLadder.solve", "rungs_tried")),
    ("runtime.retries", "count", "lower", _count("service.Shard.run_window", "retries")),
    ("fleet.AnalogFleet.route.calls", "count", "lower", _calls("fleet.AnalogFleet.route")),
    ("fleet.AnalogFleet.route.s", "s", "lower", _seconds("fleet.AnalogFleet.route", "s")),
    ("fleet.AnalogFleet.observe.calls", "count", "lower", _calls("fleet.AnalogFleet.observe")),
    ("fleet.AnalogFleet.observe.s", "s", "lower", _seconds("fleet.AnalogFleet.observe", "s")),
    ("fleet.settles_avoided_ratio", "ratio", "higher", _ratio("fleet.AnalogFleet.route", "settles_avoided")),
    ("certify.certify_solution.calls", "count", "lower", _calls("certify.certify_solution")),
    ("certify.certify_solution.s", "s", "lower", _seconds("certify.certify_solution", "s")),
    ("certify.certify_solution.passed_ratio", "ratio", "higher", _ratio("certify.certify_solution", "passed")),
    ("trace.spans", "count", "lower", None),
    ("trace.self_s_sum", "s", "lower", None),
    ("trace.traced_wall_s", "s", "lower", None),
    ("trace.untraced_wall_s", "s", "lower", None),
    ("trace.overhead_s", "s", "lower", None),
    ("trace.overhead_ratio", "ratio", "lower", None),
    ("trace.coverage", "ratio", "higher", None),
]


if __name__ == "__main__":
    print(mapping_table())
