"""The Bratu problem: a transcendental nonlinearity (Section 7).

Section 7 of the paper: "Occasionally, nonlinear PDEs have
transcendental nonlinear functions such as e^u and sin(u). These
transcendental equations would require analog nonlinear function
generators. Transcendental nonlinear functions cause problems for
analog accelerators because there is no clear way to scale problem
variables to fit in the analog accelerator dynamic range."

The canonical example is the Bratu (solid-fuel ignition) problem

    -Lap(u) = lam * exp(u),   u = 0 on the boundary.

It is also a classic *fold* benchmark: for ``lam`` below a critical
value there are two solutions (a stable lower branch and an unstable
upper branch), which merge and vanish at the fold — exactly the
solution-multiplicity behaviour Section 3 motivates homotopy methods
with. In 1-D on the unit interval the fold sits at ``lam* ~ 3.5138``;
in 2-D on the unit square at ``lam* ~ 6.808``.

The exponential is pluggable (``exp_function``) so the analog
function-generator model of
:mod:`repro.analog.function_generator` can stand in for the exact
``exp`` — reproducing the lookup-table approach of the related work
[18, 19] ("digital provides continuous-time lookup for nonlinear
functions", Table 5).
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Tuple

import numpy as np

from repro.linalg.sparse import CsrMatrix, TripletPattern
from repro.nonlinear.systems import NonlinearSystem
from repro.pde.grid import Grid2D

__all__ = ["BratuProblem1D", "BratuProblem2D", "BRATU_1D_CRITICAL", "BRATU_2D_CRITICAL"]

# Critical (fold) parameters of the continuous problems.
BRATU_1D_CRITICAL = 3.513830719
BRATU_2D_CRITICAL = 6.808124423

ExpPair = Tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]


def _default_exp_pair() -> ExpPair:
    return (np.exp, np.exp)


# The Jacobians below list the diagonal entries first, then every
# off-diagonal (-1/h^2) entry; the coordinates depend only on the grid,
# so each grid's symbolic CSR pattern is built once and shared.


@functools.lru_cache(maxsize=16)
def _pattern_1d(n: int) -> TripletPattern:
    idx = np.arange(n)
    rows = np.concatenate([idx, idx[:-1], idx[1:]])
    cols = np.concatenate([idx, idx[:-1] + 1, idx[1:] - 1])
    return TripletPattern(n, n, rows, cols)


@functools.lru_cache(maxsize=16)
def _pattern_2d(nx: int, ny: int) -> TripletPattern:
    jj, ii = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    k = (jj * nx + ii).ravel()
    east = (ii < nx - 1).ravel()
    west = (ii > 0).ravel()
    north = (jj < ny - 1).ravel()
    south = (jj > 0).ravel()
    rows = np.concatenate([k, k[east], k[west], k[north], k[south]])
    cols = np.concatenate([k, k[east] + 1, k[west] - 1, k[north] + nx, k[south] - nx])
    return TripletPattern(nx * ny, nx * ny, rows, cols)


def _fill(pattern: TripletPattern, diagonal: np.ndarray, off_diagonal: float) -> CsrMatrix:
    off = np.full(pattern.order.shape[0] - diagonal.shape[0], off_diagonal)
    return pattern.fill(np.concatenate([diagonal, off]))


class BratuProblem1D(NonlinearSystem):
    """1-D Bratu problem on the unit interval, ``n`` interior nodes.

    ``exp_pair`` supplies ``(exp, exp_derivative)`` — exact by default;
    pass a lookup-table pair to model analog function generation.
    """

    def __init__(
        self,
        num_nodes: int,
        lam: float,
        exp_pair: Optional[ExpPair] = None,
    ):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if lam < 0.0:
            raise ValueError("lambda must be nonnegative")
        self.dimension = num_nodes
        self.lam = float(lam)
        self.spacing = 1.0 / (num_nodes + 1)
        self._exp, self._dexp = exp_pair or _default_exp_pair()

    def residual(self, u: np.ndarray) -> np.ndarray:
        u = self._validate(u)
        padded = np.concatenate([[0.0], u, [0.0]])
        lap = (padded[:-2] - 2.0 * padded[1:-1] + padded[2:]) / self.spacing**2
        return -lap - self.lam * self._exp(u)

    def jacobian(self, u: np.ndarray) -> CsrMatrix:
        u = self._validate(u)
        coeff = 1.0 / self.spacing**2
        return _fill(_pattern_1d(self.dimension), 2.0 * coeff - self.lam * self._dexp(u), -coeff)

    def lower_branch_guess(self) -> np.ndarray:
        """Zero: always in the lower (stable) solution's basin."""
        return np.zeros(self.dimension)

    def upper_branch_guess(self, amplitude: float = 5.0) -> np.ndarray:
        """A tall bump, in the upper (unstable) solution's basin for
        sub-critical lambda."""
        xs = (np.arange(self.dimension) + 1) * self.spacing
        return amplitude * np.sin(np.pi * xs)


class BratuProblem2D(NonlinearSystem):
    """2-D Bratu problem on the unit square with a five-point Laplacian."""

    def __init__(
        self,
        grid_n: int,
        lam: float,
        exp_pair: Optional[ExpPair] = None,
    ):
        if grid_n <= 0:
            raise ValueError("grid_n must be positive")
        if lam < 0.0:
            raise ValueError("lambda must be nonnegative")
        self.grid = Grid2D.square(grid_n, spacing=1.0 / (grid_n + 1))
        self.dimension = self.grid.num_nodes
        self.lam = float(lam)
        self._exp, self._dexp = exp_pair or _default_exp_pair()

    def residual(self, u: np.ndarray) -> np.ndarray:
        u = self._validate(u)
        field = self.grid.field(u)
        padded = np.pad(field, 1)
        h2 = self.grid.dx**2
        lap = (
            padded[:-2, 1:-1]
            + padded[2:, 1:-1]
            + padded[1:-1, :-2]
            + padded[1:-1, 2:]
            - 4.0 * padded[1:-1, 1:-1]
        ) / h2
        return self.grid.flatten(-lap - self.lam * self._exp(field))

    def jacobian(self, u: np.ndarray) -> CsrMatrix:
        u = self._validate(u)
        coeff = 1.0 / self.grid.dx**2
        return _fill(
            _pattern_2d(self.grid.nx, self.grid.ny), 4.0 * coeff - self.lam * self._dexp(u), -coeff
        )

    def lower_branch_guess(self) -> np.ndarray:
        return np.zeros(self.dimension)
