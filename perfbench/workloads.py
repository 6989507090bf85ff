"""The two benchmark workloads, driven through public entry points.

Each workload generates its inputs from the workload seed, sets up
(input generation, solver/service construction and a warm-up; repeated
``setups`` times so set-up time is a median), then runs rounds of work
until ``seconds`` of measured wall have passed, and checks every answer
outside the timed region. ``measure`` is the context manager the
measured phase runs under: a no-op for the end-to-end run, the span
wrappers for the traced run. ``limit``, when given, fixes the number
of units of work instead (the traced run repeats the untraced run's
count; the tests run a handful).
"""

from __future__ import annotations

import asyncio
import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, List, Optional, Tuple

import numpy as np

from repro.analog.engine import AnalogAccelerator, solution_error
from repro.certify.canary import probe_board
from repro.core.hybrid import HybridSolver
from repro.fleet import FleetConfig
from repro.linalg.kernel import LinearKernel
from repro.nonlinear.newton import NewtonOptions, damped_newton_with_restarts
from repro.nonlinear.systems import CoupledQuadraticSystem
from repro.pde.burgers import random_burgers_system
from repro.runtime.api import ProblemSpec, SolveRequest
from repro.service import ServiceRejected, SolveService

from layers import HYBRID, SERVICE

clock = time.perf_counter
Measure = Callable[[], ContextManager[Any]]
ANSWER_TOLERANCE = 1e-8


@dataclass
class Unit:
    """One unit of work attempted: ``key`` names its input (a unit run
    again on the same input shares the key), ``latency`` is None when it
    was refused, ``ok`` means completed and checked correct, ``wrong``
    means the program reported success but the check failed."""

    key: str
    latency: Optional[float]
    ok: bool
    wrong: bool


@dataclass
class RunResult:
    """What one measured phase produced; the harness turns it into metrics.

    ``count`` is the number of units the measured phase ran and
    ``work_wall`` its closed-loop wall (the traced-vs-untraced comparison
    base). ``metrics`` holds the figures only the workload can compute
    (seed error, Newton iterations).
    """

    unit: str
    limit_s: float
    units: List[Unit] = field(default_factory=list)
    count: int = 0
    work_wall: float = 0.0
    metrics: Dict[str, float] = field(default_factory=dict)
    info: List[str] = field(default_factory=list)
    setup_times: List[float] = field(default_factory=list)


# Both read 0 when no answer was correct: the run then reports
# ``correct: false`` and the JSON line must stay valid (no Infinity).
def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: List[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def _tag(recorder, request_id: str):
    return recorder.request(request_id) if recorder is not None else nullcontext()


# -- hybrid_burgers ----------------------------------------------------------

HYBRID_GRIDS = (8, 12, 16)
HYBRID_REYNOLDS = (0.25, 1.0)
HYBRID_CASES = [(n, re) for n in HYBRID_GRIDS for re in HYBRID_REYNOLDS]
HYBRID_FASTEST_ROUND_S = 1.5
"""A bound below the wall of one round (one solve of every grid x
Reynolds case, 3-7 s on a 2-core x86 host); sizes the input pool."""
HYBRID_LIMIT_S = 3.0
"""Goodput limit per solve: twice the slowest unloaded n=16 solve seen."""
REFERENCE_OPTIONS = NewtonOptions(tolerance=1e-11, max_iterations=60)


@dataclass
class _HybridCase:
    system: Any
    guess: np.ndarray
    solver: HybridSolver


def _hybrid_input(seed: int, index: int, n: int, reynolds: float):
    """A random Burgers instance with a naive U(-2, 2) guess, as in
    ``run_figure8``, plus the die seed of the board that seeds it."""
    rng = np.random.default_rng([seed, index])
    system, _ = random_burgers_system(n, reynolds, rng)
    guess = rng.uniform(-2.0, 2.0, system.dimension)
    return system, guess, int(rng.integers(2**31))


def _hybrid_setup(seed: int, count: int) -> List[_HybridCase]:
    cases = []
    for index in range(count):
        n, reynolds = HYBRID_CASES[index % len(HYBRID_CASES)]
        system, guess, die = _hybrid_input(seed, index, n, reynolds)
        cases.append(_HybridCase(system, guess, HybridSolver(AnalogAccelerator(seed=die))))
    # Warm-up on an input outside the measured set.
    system, guess, die = _hybrid_input(seed, count + 1_000_000, 8, 1.0)
    HybridSolver(AnalogAccelerator(seed=die)).solve(system, initial_guess=guess)
    return cases


def _reference(case: _HybridCase, index: int):
    reference = damped_newton_with_restarts(
        case.system, case.guess, REFERENCE_OPTIONS, linear_solver=LinearKernel(),
        min_damping=1.0 / 64.0,
    )
    if not reference.converged:
        raise RuntimeError(f"damped-Newton reference did not converge on input {index} "
                           f"(dimension {case.system.dimension}); no answer to check against")
    return reference


def run_hybrid(seed: int, seconds: float, measure: Measure, setups: int, workdir: Path,
               recorder=None, limit: Optional[int] = None) -> RunResult:
    out = RunResult(unit="solve", limit_s=HYBRID_LIMIT_S)
    size = len(HYBRID_CASES)
    pool = limit if limit is not None else size * (math.ceil(seconds / HYBRID_FASTEST_ROUND_S) + 1)
    for _ in range(setups):
        t0 = clock()
        cases = _hybrid_setup(seed, pool)
        out.setup_times.append(clock() - t0)
    # Whole rounds, one solve of every case each, until the solves'
    # wall reaches ``seconds``: every run sees the same mix of grids.
    results = []
    with measure():
        for index, case in enumerate(cases):
            if limit is None and index and index % size == 0 and out.work_wall >= seconds:
                break
            with _tag(recorder, f"solve-{index}"):
                t0 = clock()
                result = case.solver.solve(case.system, initial_guess=case.guess)
                wall = clock() - t0
            out.work_wall += wall
            results.append((result, wall))
    out.count = len(results)
    seed_errors, iterations = [], []
    for index, (case, (result, seconds_taken)) in enumerate(zip(cases, results)):
        # Computed after the timed region: the answer each solve is checked against.
        reference = _reference(case, index)
        key = f"input-{index}"
        if not result.converged:
            out.units.append(Unit(key, seconds_taken, False, False))
            continue
        residual = float(np.linalg.norm(case.system.residual(result.u)))
        scale = max(1.0, float(np.max(np.abs(reference.u))))
        matches = float(np.max(np.abs(result.u - reference.u))) <= ANSWER_TOLERANCE * scale
        correct = residual <= case.solver.polish_options.tolerance and matches
        out.units.append(Unit(key, seconds_taken, correct, not correct))
        if not correct:
            continue
        analog = result.analog
        seeded = analog.converged and analog.seed_accepted
        seed = analog.solution if seeded else case.guess
        seed_errors.append(solution_error(seed, reference.u, scale=analog.scale))
        iterations.append(result.digital.iterations)
    out.metrics["seed_error_rms"] = _mean(seed_errors)
    out.metrics["newton_iters_mean"] = _mean(iterations)
    out.info.append(
        f"inputs: {len(results)} solves, each on its own input, in rounds cycling "
        f"n x Re = {HYBRID_GRIDS} x {HYBRID_REYNOLDS}; seed error = mean Eq. 6 error of the "
        "polish's starting point vs a damped-Newton reference"
    )
    return out


# -- service_closed_loop -----------------------------------------------------

SERVICE_PROBLEMS = 600
"""Distinct requests per round; each round sends all of them again under
fresh request ids. 600 keeps 30 problems beyond the p95, against 10 for
200; over four runs each, the p95 spread between seeds read 0.08 with
600 problems sent 10 times and 0.19 with 200 problems sent 30 times."""
SERVICE_RATE = 100.0
"""Requests per second that size the number of rounds from ``seconds``:
8 rounds at 50 s. One caller gets 120-140 per second on a 2-core x86
host; the lower rate keeps a slow host's run within ``seconds``. The
work is fixed, not the wall: the service keeps every outcome, so peak
memory follows the count."""
SERVICE_LIMIT_S = 0.05
"""Goodput limit per request: about four times the sequential p95
(~11 ms)."""
SERVICE_SHARDS = 1
"""One in-process shard. Two shards (three threads on the GIL with the
event loop) measured no more capacity here and a wider run-to-run
spread of open-loop latency: p50 13.7-18.2 ms against 11.5-13 ms over
four alternating pairs of runs at 40 req/s."""
SERVICE_WARMUP = 8
SERVICE_PROBES = 8


def _quadratic_problem(rng: np.random.Generator) -> ProblemSpec:
    # The region where the coupled quadratic has real roots and the
    # analog flow stays clear of the singular lines rho = -1/2: every
    # request settles in milliseconds and none fails.
    rhs0, rhs1 = rng.uniform(0.8, 1.6, 2)
    guess = rng.uniform(0.5, 1.5, 2)
    return ProblemSpec.quadratic(float(rhs0), float(rhs1), (float(guess[0]), float(guess[1])))


def _request(request_id: str, problem: ProblemSpec) -> SolveRequest:
    return SolveRequest(request_id, problem, analog_time_limit=0.5)


def _service(seed: int, journal_dir: Path) -> SolveService:
    return SolveService(
        shards=SERVICE_SHARDS,
        workers_per_shard=1,
        queue_limit=256,
        batch_window=4,
        seed=seed,
        journal_dir=journal_dir,
        certify=True,
        fleet=FleetConfig(boards=2),
        ladder_kwargs={"settle_max_steps": 2000},
    )


def _root_matches(request: SolveRequest, solution) -> bool:
    params = request.problem.as_dict()
    roots = CoupledQuadraticSystem(params["rhs0"], params["rhs1"]).real_roots()
    solution = np.asarray(solution, dtype=float)
    return any(float(np.max(np.abs(solution - root))) <= ANSWER_TOLERANCE for root in roots)


async def _service_run(seed: int, seconds: float, measure: Measure, setups: int,
                       workdir: Path, out: RunResult, limit: Optional[int]) -> None:
    rng = np.random.default_rng([seed, 1])
    problems = [_quadratic_problem(rng) for _ in range(SERVICE_PROBLEMS)]

    service = None
    requests: Dict[str, SolveRequest] = {}
    for index in range(setups):
        if service is not None:
            await service.drain()
        t0 = clock()
        service = _service(seed, workdir / f"journal-{index}")
        await service.start()
        warm_rng = np.random.default_rng([seed, 2, index])
        warm = [_request(f"warm-{index}-{i}", _quadratic_problem(warm_rng))
                for i in range(SERVICE_WARMUP)]
        await asyncio.gather(*(service.submit(r) for r in warm))
        out.setup_times.append(clock() - t0)
        requests.update((r.request_id, r) for r in warm)
        admitted = {r.request_id for r in warm}

    # One caller that waits for each reply before sending the next, in
    # whole rounds of every problem.
    rounds = max(1, round(seconds * SERVICE_RATE / len(problems)))
    if limit is not None:
        rounds = math.ceil(limit / len(problems))
    traffic = [(j, f"request-{r}-{j}") for r in range(rounds) for j in range(len(problems))][:limit]
    out.count = len(traffic)
    sent: Dict[str, float] = {}
    with measure():
        start = clock()
        for j, request_id in traffic:
            request = _request(request_id, problems[j])
            requests[request_id] = request
            t0 = clock()
            try:
                await service.submit(request)
            except ServiceRejected:
                continue
            sent[request_id] = clock() - t0
            admitted.add(request_id)
        out.work_wall = clock() - start
    result = await service.drain()

    # Exactly one terminal, certified, closed-form-correct outcome per
    # admitted request.
    seen: Dict[str, int] = {}
    for record in result.records:
        seen[record.request_id] = seen.get(record.request_id, 0) + 1
    verdict: Dict[str, Tuple[bool, bool]] = {}
    for record in result.records:
        outcome = record.outcome
        if not outcome.ok:
            verdict[record.request_id] = (False, False)
            continue
        correct = (
            seen[record.request_id] == 1
            and outcome.certificate is not None
            and outcome.certificate.passed
            and _root_matches(requests[record.request_id], outcome.solution)
        )
        verdict[record.request_id] = (correct, not correct)
    for request_id in admitted - set(seen):
        verdict[request_id] = (False, True)
    wrong_warmups = sum(1 for rid in admitted if rid.startswith("warm-") and verdict[rid][1])

    iterations = []
    for j, rid in traffic:
        ok, wrong = verdict.get(rid, (False, False))
        out.units.append(Unit(f"problem-{j}", sent.get(rid), ok, wrong))
        if ok:
            iterations.append(result.record_for(rid).outcome.iterations)
    out.units.extend(Unit("warm-up", None, False, True) for _ in range(wrong_warmups))

    errors = [
        probe_board(board, seed, index).error
        for board in service.fleet.boards
        for index in range(SERVICE_PROBES)
    ]
    out.metrics["seed_error_rms"] = _median(errors)
    out.metrics["newton_iters_mean"] = _mean(iterations)
    out.info.append(
        f"inputs: {len(traffic)} quadratic requests ({rounds} rounds of "
        f"{len(problems)} problems) from one caller waiting for each "
        f"reply; {len(traffic) - len(sent)} rejected; seed error = median canary error of "
        "the fleet's boards after the traffic"
    )


def run_service(seed: int, seconds: float, measure: Measure, setups: int,
                workdir: Path, recorder=None, limit: Optional[int] = None) -> RunResult:
    out = RunResult(unit="request", limit_s=SERVICE_LIMIT_S)
    asyncio.run(_service_run(seed, seconds, measure, setups, workdir, out, limit))
    return out


WORKLOADS = {
    HYBRID: run_hybrid,
    SERVICE: run_service,
}
