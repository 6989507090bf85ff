"""The 2-D viscous Burgers' equation (Section 4 of the paper).

The PDE (Equation 4/5 of the paper) for the velocity fields
``u(x, y, t)`` and ``v(x, y, t)``:

    du/dt + u du/dx + v du/dy - (1/Re)(d2u/dx2 + d2u/dy2) = RHS0
    dv/dt + u dv/dx + v dv/dy - (1/Re)(d2v/dx2 + d2v/dy2) = RHS1

Applying second-order central differences in space and Crank-Nicolson
in time, with the paper's isotropic normalization that eliminates the
grid-spacing coefficients, each implicit step requires solving the
nonlinear algebraic system implemented by :class:`BurgersStencilSystem`
(the Fletcher stencil the paper cites at [16, pg. 172]). Its analytic
Jacobian is the sparse block-structured matrix whose diagonal weakens
as the Reynolds number grows — the effect that degrades digital Newton
at ``Re -> 2`` in Figures 7 and 8.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.linalg.sparse import CsrMatrix, TripletPattern, csr_from_triplets
from repro.nonlinear.newton import NewtonOptions, NewtonResult, damped_newton_with_restarts
from repro.nonlinear.systems import NonlinearSystem
from repro.pde.boundary import DirichletBoundary
from repro.pde.grid import Grid2D
from repro.pde.stencils import central_x, central_y, laplacian_5pt, pad_with_boundary

__all__ = [
    "BurgersStencilSystem",
    "BurgersTimeStepper",
    "random_burgers_system",
    "reynolds_character",
    "ReynoldsCharacter",
]


class _StencilLayout:
    """Everything about the Burgers Jacobian that depends only on the
    grid shape: the neighbour masks, the triplet coordinates in the
    order :meth:`BurgersStencilSystem.jacobian` emits values, and the
    symbolic CSR pattern they pack into. Interned per shape, so every
    system on one grid shares one copy of these arrays."""

    __slots__ = ("east", "west", "north", "south", "rows", "cols", "pattern")

    def __init__(self, nx: int, ny: int):
        n = nx * ny
        jj, ii = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
        k = (jj * nx + ii).ravel()
        self.east = (ii < nx - 1).ravel()
        self.west = (ii > 0).ravel()
        self.north = (jj < ny - 1).ravel()
        self.south = (jj > 0).ravel()
        masks = (self.east, self.west, self.north, self.south)
        offsets = (1, -1, nx, -nx)
        rows, cols = [], []
        for block in (0, 1):
            own = k + block * n
            rows += [own, *(own[mask] for mask in masks), own]
            cols += [own, *(own[mask] + d for mask, d in zip(masks, offsets)), k + (1 - block) * n]
        self.rows = np.concatenate(rows)
        self.cols = np.concatenate(cols)
        for array in (*masks, self.rows, self.cols):
            array.flags.writeable = False  # shared by every system on the grid
        self.pattern = TripletPattern(2 * n, 2 * n, self.rows, self.cols)


@functools.lru_cache(maxsize=16)
def _stencil_layout(nx: int, ny: int) -> _StencilLayout:
    return _StencilLayout(nx, ny)


class BurgersStencilSystem(NonlinearSystem):
    """One implicit time step of 2-D viscous Burgers as ``F(w) = 0``.

    The unknown vector ``w`` stacks the flattened x-velocity field
    ``u`` (first ``nx * ny`` entries) and y-velocity field ``v``.
    With ``weight`` the Crank-Nicolson coefficient (``dt / 2``; the
    paper's normalization makes it 1), the residual per interior node is

        F_u = u + weight * (u u_x + v u_y - Lap(u)/Re) - rhs_u
        F_v = v + weight * (u v_x + v v_y - Lap(v)/Re) - rhs_v

    with Dirichlet ghost values supplied by the boundaries.
    """

    def __init__(
        self,
        grid: Grid2D,
        reynolds: float,
        rhs_u: np.ndarray,
        rhs_v: np.ndarray,
        boundary_u: DirichletBoundary,
        boundary_v: DirichletBoundary,
        weight: float = 1.0,
    ):
        if reynolds <= 0.0:
            raise ValueError(f"Reynolds number must be positive, got {reynolds}")
        if weight <= 0.0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.grid = grid
        self.reynolds = float(reynolds)
        self.weight = float(weight)
        self.rhs_u = np.asarray(rhs_u, dtype=float)
        self.rhs_v = np.asarray(rhs_v, dtype=float)
        if self.rhs_u.shape != grid.shape or self.rhs_v.shape != grid.shape:
            raise ValueError(f"rhs fields must have shape {grid.shape}")
        boundary_u.validate(grid)
        boundary_v.validate(grid)
        self.boundary_u = boundary_u
        self.boundary_v = boundary_v
        self.dimension = 2 * grid.num_nodes
        self._packed = False

    # -- state packing ------------------------------------------------

    def split(self, w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Unpack the stacked unknown vector into (u, v) fields."""
        w = self._validate(w)
        n = self.grid.num_nodes
        return self.grid.field(w[:n]), self.grid.field(w[n:])

    def pack(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Stack (u, v) fields into the unknown vector."""
        return np.concatenate([self.grid.flatten(u), self.grid.flatten(v)])

    # -- NonlinearSystem interface -------------------------------------

    def residual(self, w: np.ndarray) -> np.ndarray:
        u, v = self.split(w)
        up = pad_with_boundary(u, self.boundary_u, self.grid)
        vp = pad_with_boundary(v, self.boundary_v, self.grid)
        dx, dy = self.grid.dx, self.grid.dy
        inv_re = 1.0 / self.reynolds
        f_u = u + self.weight * (
            u * central_x(up, dx) + v * central_y(up, dy) - inv_re * laplacian_5pt(up, dx, dy)
        ) - self.rhs_u
        f_v = v + self.weight * (
            u * central_x(vp, dx) + v * central_y(vp, dy) - inv_re * laplacian_5pt(vp, dx, dy)
        ) - self.rhs_v
        return self.pack(f_u, f_v)

    def jacobian(self, w: np.ndarray) -> CsrMatrix:
        u, v = self.split(w)
        grid = self.grid
        dx, dy = grid.dx, grid.dy
        wgt = self.weight
        inv_re = 1.0 / self.reynolds
        up = pad_with_boundary(u, self.boundary_u, grid)
        vp = pad_with_boundary(v, self.boundary_v, grid)

        ux, uy = central_x(up, dx), central_y(up, dy)
        vx, vy = central_x(vp, dx), central_y(vp, dy)

        visc_center = 2.0 * inv_re * (1.0 / dx**2 + 1.0 / dy**2)
        adv_e = u.ravel() / (2.0 * dx)
        adv_n = v.ravel() / (2.0 * dy)
        visc_x = inv_re / dx**2
        visc_y = inv_re / dy**2

        layout = _stencil_layout(grid.nx, grid.ny)
        # Neighbour entries are the same for both fields' rows.
        neighbours = [
            (wgt * (adv_e - visc_x))[layout.east],
            (wgt * (-adv_e - visc_x))[layout.west],
            (wgt * (adv_n - visc_y))[layout.north],
            (wgt * (-adv_n - visc_y))[layout.south],
        ]
        # Row blocks F_u then F_v, each: own-field centre, its four
        # neighbours, then the cross-coupling to the other field at the
        # same node (dF_u/dv = weight * u_y ; dF_v/du = weight * v_x).
        vals = np.concatenate(
            [1.0 + wgt * (ux.ravel() + visc_center), *neighbours, wgt * uy.ravel(),
             1.0 + wgt * (vy.ravel() + visc_center), *neighbours, wgt * vx.ravel()]
        )
        if self._packed:
            return layout.pattern.fill(vals)
        # A system's first Jacobian is packed by csr_from_triplets, the
        # pde layer's assembly entry point (perfbench counts its calls
        # per system); later ones only fill the grid's shared pattern.
        self._packed = True
        return csr_from_triplets(self.dimension, self.dimension, layout.rows, layout.cols, vals)

    # -- diagnostics ----------------------------------------------------

    def diagonal_dominance(self, w: np.ndarray) -> float:
        """Minimum over rows of |diag| / sum|off-diag| for the Jacobian.

        As the Reynolds number grows "the elements on the diagonal of
        the Jacobian diminish ... increasing the chance the Jacobian
        becomes singular" (Section 6.1); this ratio quantifies it.
        """
        jac = self.jacobian(w)
        diag = np.abs(jac.diagonal())
        ratios = []
        for i in range(jac.num_rows):
            cols, vals = jac.row(i)
            off = float(np.sum(np.abs(vals[cols != i])))
            ratios.append(diag[i] / off if off > 0 else np.inf)
        return float(np.min(ratios))


class BurgersTimeStepper:
    """Crank-Nicolson time evolution of the 2-D Burgers' equation.

    Each :meth:`step` forms the per-step nonlinear system (a
    :class:`BurgersStencilSystem` with ``weight = dt / 2`` and the
    right-hand side built from the explicit half of the trapezoid) and
    solves it with a pluggable nonlinear solver — the paper's hybrid
    pipeline injects the analog-seeded solver here.
    """

    def __init__(
        self,
        grid: Grid2D,
        reynolds: float,
        dt: float,
        boundary_u: DirichletBoundary,
        boundary_v: DirichletBoundary,
        forcing_u: Optional[np.ndarray] = None,
        forcing_v: Optional[np.ndarray] = None,
        solver: Optional[Callable[[NonlinearSystem, np.ndarray], NewtonResult]] = None,
    ):
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.grid = grid
        self.reynolds = float(reynolds)
        self.dt = float(dt)
        self.boundary_u = boundary_u
        self.boundary_v = boundary_v
        self.forcing_u = np.zeros(grid.shape) if forcing_u is None else np.asarray(forcing_u, dtype=float)
        self.forcing_v = np.zeros(grid.shape) if forcing_v is None else np.asarray(forcing_v, dtype=float)
        self._solver = solver or (
            lambda system, guess: damped_newton_with_restarts(
                system, guess, NewtonOptions(tolerance=1e-10, max_iterations=100)
            )
        )

    def _spatial_operator(self, u: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The advective-diffusive operator N(u, v) at the current time."""
        up = pad_with_boundary(u, self.boundary_u, self.grid)
        vp = pad_with_boundary(v, self.boundary_v, self.grid)
        dx, dy = self.grid.dx, self.grid.dy
        inv_re = 1.0 / self.reynolds
        n_u = u * central_x(up, dx) + v * central_y(up, dy) - inv_re * laplacian_5pt(up, dx, dy)
        n_v = u * central_x(vp, dx) + v * central_y(vp, dy) - inv_re * laplacian_5pt(vp, dx, dy)
        return n_u, n_v

    def step_system(self, u: np.ndarray, v: np.ndarray) -> BurgersStencilSystem:
        """Build the nonlinear system whose root is the next time level."""
        half = self.dt / 2.0
        n_u, n_v = self._spatial_operator(u, v)
        rhs_u = u - half * n_u + self.dt * self.forcing_u
        rhs_v = v - half * n_v + self.dt * self.forcing_v
        return BurgersStencilSystem(
            grid=self.grid,
            reynolds=self.reynolds,
            rhs_u=rhs_u,
            rhs_v=rhs_v,
            boundary_u=self.boundary_u,
            boundary_v=self.boundary_v,
            weight=half,
        )

    def step(self, u: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray, NewtonResult]:
        """Advance one time step; returns the new fields and the solver
        result (so callers can account iterations and convergence)."""
        system = self.step_system(u, v)
        guess = system.pack(u, v)  # previous time level seeds the solve
        result = self._solver(system, guess)
        u_next, v_next = system.split(result.u)
        return u_next, v_next, result

    def evolve(
        self, u0: np.ndarray, v0: np.ndarray, num_steps: int
    ) -> Tuple[np.ndarray, np.ndarray, list]:
        """Run ``num_steps`` of Crank-Nicolson; returns final fields and
        the per-step solver results."""
        u, v = np.asarray(u0, dtype=float), np.asarray(v0, dtype=float)
        results = []
        for _ in range(num_steps):
            u, v, result = self.step(u, v)
            results.append(result)
            if not result.converged:
                break
        return u, v, results


def random_burgers_system(
    n: int,
    reynolds: float,
    rng: np.random.Generator,
    rhs_range: float = 3.0,
    boundary_range: float = 1.0,
) -> Tuple[BurgersStencilSystem, np.ndarray]:
    """A randomly generated Burgers stencil problem plus initial guess.

    Mirrors the paper's experimental setup: "The constants in the
    nonlinear system of equations are randomly chosen between a dynamic
    range of -3.0 and 3.0" (Section 5.4) and "initial and boundary
    conditions ... randomly chosen within the dynamic range of the
    analog accelerator" (Section 6.1).
    """
    grid = Grid2D.square(n)
    system = BurgersStencilSystem(
        grid=grid,
        reynolds=reynolds,
        rhs_u=rng.uniform(-rhs_range, rhs_range, grid.shape),
        rhs_v=rng.uniform(-rhs_range, rhs_range, grid.shape),
        boundary_u=DirichletBoundary.random(grid, rng, -boundary_range, boundary_range),
        boundary_v=DirichletBoundary.random(grid, rng, -boundary_range, boundary_range),
    )
    guess = rng.uniform(-boundary_range, boundary_range, system.dimension)
    return system, guess


@dataclass(frozen=True)
class ReynoldsCharacter:
    """Qualitative PDE character at a Reynolds number (Table 2)."""

    reynolds: float
    regime: str  # "large" or "small"
    mach: str
    viscosity: str
    diffusion_effect: str
    dominant_character: str
    nonlinearity: str


def reynolds_character(reynolds: float, threshold: float = 1.0) -> ReynoldsCharacter:
    """Classify the Burgers'/Navier-Stokes behaviour per Table 2.

    Larger Reynolds numbers weaken diffusion, making the PDE first-order
    advective (hyperbolic character) and quasilinear — the harder
    problems; small Reynolds numbers give a diffusive parabolic PDE
    closer to semilinear behaviour.
    """
    if reynolds <= 0.0:
        raise ValueError("Reynolds number must be positive")
    if reynolds > threshold:
        return ReynoldsCharacter(
            reynolds=reynolds,
            regime="large",
            mach="high",
            viscosity="low",
            diffusion_effect="small",
            dominant_character="first-order, advective (hyperbolic PDE)",
            nonlinearity="quasilinear",
        )
    return ReynoldsCharacter(
        reynolds=reynolds,
        regime="small",
        mach="low",
        viscosity="high",
        diffusion_effect="large",
        dominant_character="second-order, diffusive (parabolic PDE)",
        nonlinearity="semilinear",
    )
