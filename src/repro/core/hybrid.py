"""Analog-seeded digital Newton: the hybrid pipeline of Section 6.2.

"The analog solution is set as the initial condition for a seeded
digital solver, which is then immediately in the quadratic convergence
region for the Newton method. The digital solver carries on and
terminates when the error metric is the smallest value representable in
double-precision floating point numbers."

The pipeline:

1. the analog accelerator (simulated, :mod:`repro.analog.engine`) runs
   continuous Newton on the problem and returns a ~5 %-accurate
   solution in its (fast) settle time;
2. classical undamped digital Newton polishes from that seed; because
   the seed sits inside the quadratic basin, a handful of iterations
   reach double-precision accuracy and no damping search is needed.

The baseline it beats is :func:`repro.nonlinear.newton.damped_newton_with_restarts`
from a naive initial guess, which at high Reynolds number must halve
its damping repeatedly (Figure 8).

All digital legs share one :class:`~repro.linalg.kernel.LinearKernel`
per solve, so the preconditioner factorized on the first Newton step is
reused across the polish (and any recovery restarts) instead of being
rebuilt per step, and the full inner-iteration accounting survives into
``HybridResult.digital.linear_stats``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analog.engine import AnalogAccelerator, AnalogSolveResult
from repro.linalg.kernel import LinearKernel
from repro.nonlinear.newton import (
    LinearSolverLike,
    NewtonOptions,
    NewtonResult,
    damped_newton_with_restarts,
    newton_solve,
)
from repro.nonlinear.systems import NonlinearSystem
from repro.runtime.ladder import (  # DOUBLE_EPS stays importable from here
    DOUBLE_EPS,
    FALLBACK_TOLERANCE_FLOOR,
    damped_recovery,
    default_newton_options,
    hybrid_seed,
)
from repro.trace.tracer import TracerLike, as_tracer

__all__ = ["HybridResult", "HybridSolver"]


@dataclass
class HybridResult:
    """Outcome of one hybrid (analog-seeded digital) solve."""

    u: np.ndarray
    converged: bool
    analog: AnalogSolveResult
    digital: NewtonResult

    @property
    def digital_iterations(self) -> int:
        return self.digital.iterations

    @property
    def analog_settle_time_units(self) -> float:
        return self.analog.settle_time_units

    @property
    def residual_norm(self) -> float:
        return self.digital.residual_norm


class HybridSolver:
    """The hybrid analog-digital nonlinear solver.

    Parameters
    ----------
    accelerator:
        The (simulated) analog accelerator used for seeding; a default
        board is created when omitted.
    polish_options:
        Newton options for the digital polish. The default uses full
        (undamped) steps — the point of a good seed — and a tolerance
        scaled from double epsilon.
    fallback_options:
        Options for the damped-restart recovery used when the analog
        seed turns out not to sit in the quadratic basin (rare: an
        unsettled analog run). The default relaxes the polish to the
        ``FALLBACK_TOLERANCE_FLOOR`` of ``1e-9``
        (:func:`repro.runtime.ladder.default_newton_options`); if the
        recovery converges, a final polish at the tight tolerance is
        still attempted, and the reported ``converged`` status honestly
        reflects whichever tolerance was actually achieved.
    linear_solver:
        A :class:`~repro.linalg.kernel.LinearKernel` or bare callable
        shared by every digital leg. When omitted, each ``solve`` call
        creates its own kernel (per-solve factorization reuse without
        cross-problem contamination).
    """

    # Shared with the runtime's damped_newton ladder rung.
    FALLBACK_TOLERANCE_FLOOR = FALLBACK_TOLERANCE_FLOOR

    def __init__(
        self,
        accelerator: Optional[AnalogAccelerator] = None,
        polish_options: Optional[NewtonOptions] = None,
        linear_solver: Optional[LinearSolverLike] = None,
        fallback_options: Optional[NewtonOptions] = None,
    ):
        self.accelerator = accelerator or AnalogAccelerator()
        self.polish_options, self.fallback_options = default_newton_options(
            polish_options, fallback_options
        )
        self.linear_solver = linear_solver

    def _solver(self) -> LinearSolverLike:
        """The shared linear solver for one hybrid solve's digital legs."""
        if self.linear_solver is not None:
            return self.linear_solver
        return LinearKernel()

    def solve(
        self,
        system: NonlinearSystem,
        initial_guess: Optional[np.ndarray] = None,
        value_bound: float = 3.0,
        analog_time_limit: float = 60.0,
        tracer: Optional[TracerLike] = None,
    ) -> HybridResult:
        """Analog seed, then digital polish to high precision.

        ``tracer`` records a ``solve`` span containing the accelerator's
        ``analog_settle`` span and the polish's ``newton_iter`` spans.
        """
        tracer = as_tracer(tracer)
        guess = (
            np.zeros(system.dimension)
            if initial_guess is None
            else np.asarray(initial_guess, dtype=float)
        )
        with tracer.span("solve", solver="hybrid", dimension=system.dimension) as span:
            analog = self.accelerator.solve(
                system,
                initial_guess=guess,
                value_bound=value_bound,
                time_limit=analog_time_limit,
                tracer=tracer,
            )
            seed, rejected = hybrid_seed(analog, guess)
            solver = self._solver()
            digital = None
            if not rejected:
                digital = newton_solve(system, seed, self.polish_options, solver, tracer=tracer)
            if digital is None or not digital.converged:
                # The seed was refused by the gate or did not sit in the
                # quadratic basin (rare: an unsettled analog run).
                # Recover with the damped baseline under its own relaxed
                # options; the recovery policy itself is the runtime
                # ladder's damped_newton rung.
                tracer.counter("hybrid_recoveries")
                digital = damped_recovery(
                    system,
                    seed,
                    self.polish_options,
                    self.fallback_options,
                    solver,
                    tracer=tracer,
                )
            span.update(
                converged=digital.converged,
                digital_iterations=digital.iterations,
                analog_settle_time_units=analog.settle_time_units,
                seed_accepted=analog.seed_accepted,
            )
        return HybridResult(
            u=digital.u,
            converged=digital.converged,
            analog=analog,
            digital=digital,
        )

    def solve_baseline(
        self,
        system: NonlinearSystem,
        initial_guess: Optional[np.ndarray] = None,
        tracer: Optional[TracerLike] = None,
    ) -> NewtonResult:
        """The paper's digital baseline: damped Newton with the halving
        restart schedule, from the same naive initial guess."""
        guess = (
            np.zeros(system.dimension)
            if initial_guess is None
            else np.asarray(initial_guess, dtype=float)
        )
        return damped_newton_with_restarts(
            system, guess, self.polish_options, self._solver(), tracer=tracer
        )
