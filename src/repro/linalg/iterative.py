"""Iterative linear solvers: relaxation and Krylov methods.

These are the *digital* kernels that dominate the runtime of the PDE
solvers profiled in Table 1 of the paper: Bi-CGstab (SPEC 410.bwaves),
preconditioned conjugate gradients (OpenFOAM), and SOR/CG (deal.II).
Inside the paper's baseline damped-Newton solver the linear system
``J delta = F`` is handed to one of these kernels each iteration; the
performance models in :mod:`repro.perf` charge time and energy using
the iteration and operation counts reported in :class:`IterativeResult`.

All solvers accept either a :class:`~repro.linalg.sparse.CsrMatrix` or a
dense ``numpy`` array (dense inputs are wrapped transparently), a right
hand side, and an optional :class:`~repro.linalg.preconditioners.Preconditioner`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

import numpy as np

from repro.linalg.preconditioners import IdentityPreconditioner, Preconditioner
from repro.linalg.sparse import CsrMatrix

__all__ = [
    "IterativeResult",
    "jacobi",
    "gauss_seidel",
    "sor",
    "conjugate_gradient",
    "bicgstab",
    "gmres",
]

MatrixLike = Union[CsrMatrix, np.ndarray]


@dataclass
class IterativeResult:
    """Outcome of an iterative solve.

    Attributes
    ----------
    x:
        Final iterate.
    converged:
        True if the residual tolerance was met within the iteration cap.
    iterations:
        Number of iterations performed.
    residual_norm:
        Final 2-norm of ``b - A x``.
    residual_history:
        Residual norm after each iteration (including the initial one).
    matvec_count:
        Number of operator applications; the dominant cost driver used
        by the performance models.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    residual_history: List[float] = field(default_factory=list)
    matvec_count: int = 0


class _Operator:
    """Uniform matvec wrapper counting applications."""

    def __init__(self, a: MatrixLike):
        self._a = a
        self.count = 0
        if isinstance(a, CsrMatrix):
            self.shape = a.shape
        else:
            arr = np.asarray(a, dtype=float)
            if arr.ndim != 2:
                raise ValueError("matrix operand must be 2-D")
            self._a = arr
            self.shape = arr.shape

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.count += 1
        if isinstance(self._a, CsrMatrix):
            return self._a.matvec(x)
        return self._a @ x

    def row_access(self) -> CsrMatrix:
        """CSR view for relaxation sweeps (dense input gets converted)."""
        if isinstance(self._a, CsrMatrix):
            return self._a
        dense = self._a
        from repro.linalg.sparse import CooBuilder

        builder = CooBuilder(*dense.shape)
        rows, cols = np.nonzero(dense)
        for r, c in zip(rows, cols):
            builder.add(int(r), int(c), float(dense[r, c]))
        return builder.to_csr()


def _prepare(a: MatrixLike, b: np.ndarray, x0: Optional[np.ndarray]):
    op = _Operator(a)
    b = np.asarray(b, dtype=float)
    if b.shape[0] != op.shape[0]:
        raise ValueError(f"rhs length {b.shape[0]} != num_rows {op.shape[0]}")
    x = np.zeros(op.shape[1]) if x0 is None else np.array(x0, dtype=float, copy=True)
    return op, b, x


def _stop_norm(b: np.ndarray, tol: float) -> float:
    return tol * max(float(np.linalg.norm(b)), 1e-30)


def _norm(v: np.ndarray) -> float:
    """2-norm of a contiguous 1-D float vector: the very ``sqrt(v.v)``
    that ``np.linalg.norm`` computes for it, minus the dispatch."""
    return math.sqrt(float(v @ v))


def jacobi(
    a: MatrixLike,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    max_iterations: int = 10_000,
) -> IterativeResult:
    """Jacobi relaxation ``x <- x + D^-1 (b - A x)``."""
    op, b, x = _prepare(a, b, x0)
    csr = op.row_access()
    diag = csr.diagonal()
    if np.any(diag == 0.0):
        raise ValueError("Jacobi requires a nonzero diagonal")
    threshold = _stop_norm(b, tol)
    history: List[float] = []
    for it in range(max_iterations):
        residual = b - op(x)
        norm = float(np.linalg.norm(residual))
        history.append(norm)
        if norm <= threshold:
            return IterativeResult(x, True, it, norm, history, op.count)
        x = x + residual / diag
    norm = float(np.linalg.norm(b - op(x)))
    history.append(norm)
    return IterativeResult(x, norm <= threshold, max_iterations, norm, history, op.count)


def gauss_seidel(
    a: MatrixLike,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    max_iterations: int = 10_000,
) -> IterativeResult:
    """Gauss-Seidel relaxation (SOR with ``omega = 1``)."""
    return sor(a, b, omega=1.0, x0=x0, tol=tol, max_iterations=max_iterations)


def sor(
    a: MatrixLike,
    b: np.ndarray,
    omega: float = 1.5,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    max_iterations: int = 10_000,
) -> IterativeResult:
    """Successive over-relaxation with factor ``omega`` in (0, 2)."""
    if not 0.0 < omega < 2.0:
        raise ValueError(f"omega must be in (0, 2), got {omega}")
    op, b, x = _prepare(a, b, x0)
    csr = op.row_access()
    diag = csr.diagonal()
    if np.any(diag == 0.0):
        raise ValueError("SOR requires a nonzero diagonal")
    threshold = _stop_norm(b, tol)
    history: List[float] = []
    n = csr.num_rows
    for it in range(max_iterations):
        for i in range(n):
            cols, vals = csr.row(i)
            sigma = float(vals @ x[cols]) - diag[i] * x[i]
            x[i] = (1.0 - omega) * x[i] + omega * (b[i] - sigma) / diag[i]
        residual = b - op(x)
        norm = float(np.linalg.norm(residual))
        history.append(norm)
        if norm <= threshold:
            return IterativeResult(x, True, it + 1, norm, history, op.count)
    return IterativeResult(x, False, max_iterations, history[-1], history, op.count)


def conjugate_gradient(
    a: MatrixLike,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    preconditioner: Optional[Preconditioner] = None,
    tol: float = 1e-10,
    max_iterations: int = 10_000,
) -> IterativeResult:
    """(Preconditioned) conjugate gradients for SPD systems."""
    op, b, x = _prepare(a, b, x0)
    precond = preconditioner or IdentityPreconditioner()
    threshold = _stop_norm(b, tol)
    r = b - op(x)
    z = precond.apply(r)
    p = z.copy()
    rz = float(r @ z)
    history = [float(np.linalg.norm(r))]
    if history[-1] <= threshold:
        return IterativeResult(x, True, 0, history[-1], history, op.count)
    for it in range(max_iterations):
        ap = op(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            # Not SPD along this direction; report failure honestly.
            return IterativeResult(x, False, it, history[-1], history, op.count)
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        norm = float(np.linalg.norm(r))
        history.append(norm)
        if norm <= threshold:
            return IterativeResult(x, True, it + 1, norm, history, op.count)
        z = precond.apply(r)
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    return IterativeResult(x, False, max_iterations, history[-1], history, op.count)


def bicgstab(
    a: MatrixLike,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    preconditioner: Optional[Preconditioner] = None,
    tol: float = 1e-10,
    max_iterations: int = 10_000,
) -> IterativeResult:
    """Bi-CGstab for general (nonsymmetric) systems.

    This is the dominant kernel of the paper's SPEC 410.bwaves profile
    (Table 1) and our default inner solver for Newton steps on Burgers'
    Jacobians, which are nonsymmetric because of the advective terms.
    """
    op, b, x = _prepare(a, b, x0)
    precond = preconditioner or IdentityPreconditioner()
    threshold = _stop_norm(b, tol)
    r = b - op(x)
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(r)
    p = np.zeros_like(r)
    history = [_norm(r)]
    if not (math.isfinite(history[-1]) and math.isfinite(threshold)):
        # An inf/NaN right-hand side (or start) has no solution to find:
        # fail now instead of "meeting" an inf threshold or burning the
        # whole budget on NaN comparisons.
        return IterativeResult(x, False, 0, history[-1], history, op.count)
    if history[-1] <= threshold:
        return IterativeResult(x, True, 0, history[-1], history, op.count)
    for it in range(max_iterations):
        rho_next = float(r_hat @ r)
        if rho_next == 0.0:
            return IterativeResult(x, False, it, history[-1], history, op.count)
        beta = (rho_next / rho) * (alpha / omega) if it > 0 else 0.0
        p = r + beta * (p - omega * v) if it > 0 else r.copy()
        rho = rho_next
        phat = precond.apply(p)
        v = op(phat)
        denom = float(r_hat @ v)
        if denom == 0.0:
            return IterativeResult(x, False, it, history[-1], history, op.count)
        alpha = rho / denom
        s = r - alpha * v
        norm_s = _norm(s)
        if not math.isfinite(norm_s):
            history.append(norm_s)
            return IterativeResult(x, False, it + 1, norm_s, history, op.count)
        if norm_s <= threshold:
            x = x + alpha * phat
            history.append(norm_s)
            return IterativeResult(x, True, it + 1, norm_s, history, op.count)
        shat = precond.apply(s)
        t = op(shat)
        tt = float(t @ t)
        if tt == 0.0:
            return IterativeResult(x, False, it, history[-1], history, op.count)
        omega = float(t @ s) / tt
        if omega == 0.0:
            return IterativeResult(x, False, it, history[-1], history, op.count)
        x = x + alpha * phat + omega * shat
        r = s - omega * t
        norm = _norm(r)
        history.append(norm)
        if not math.isfinite(norm):
            return IterativeResult(x, False, it + 1, norm, history, op.count)
        if norm <= threshold:
            return IterativeResult(x, True, it + 1, norm, history, op.count)
    return IterativeResult(x, False, max_iterations, history[-1], history, op.count)


def gmres(
    a: MatrixLike,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    preconditioner: Optional[Preconditioner] = None,
    tol: float = 1e-10,
    restart: int = 50,
    max_iterations: int = 10_000,
) -> IterativeResult:
    """Restarted GMRES(m) with left preconditioning.

    GMRES is the robust fallback when the Burgers Jacobian approaches
    singularity near Reynolds number 2.0, where Bi-CGstab may break
    down (Section 6.2 of the paper).
    """
    op, b, x = _prepare(a, b, x0)
    precond = preconditioner or IdentityPreconditioner()
    n = b.shape[0]
    restart = max(1, min(restart, n))
    history: List[float] = []
    total_inner = 0
    true_resid = b - op(x)
    history.append(float(np.linalg.norm(true_resid)))
    threshold_true = _stop_norm(b, tol)
    if not (math.isfinite(history[-1]) and math.isfinite(threshold_true)):
        # Same fail-fast as bicgstab on an inf/NaN right-hand side.
        return IterativeResult(x, False, 0, history[-1], history, op.count)
    if history[-1] <= threshold_true:
        return IterativeResult(x, True, 0, history[-1], history, op.count)
    while total_inner < max_iterations:
        r = precond.apply(b - op(x))
        beta = float(np.linalg.norm(r))
        if beta == 0.0 or not math.isfinite(beta):
            break
        q = np.zeros((restart + 1, n))
        h = np.zeros((restart + 1, restart))
        q[0] = r / beta
        g = np.zeros(restart + 1)
        g[0] = beta
        cs = np.zeros(restart)
        sn = np.zeros(restart)
        k_used = 0
        for k in range(restart):
            total_inner += 1
            w = precond.apply(op(q[k]))
            for j in range(k + 1):
                h[j, k] = float(w @ q[j])
                w -= h[j, k] * q[j]
            h[k + 1, k] = float(np.linalg.norm(w))
            if h[k + 1, k] > 1e-14:
                q[k + 1] = w / h[k + 1, k]
            # Apply stored Givens rotations to the new column.
            for j in range(k):
                temp = cs[j] * h[j, k] + sn[j] * h[j + 1, k]
                h[j + 1, k] = -sn[j] * h[j, k] + cs[j] * h[j + 1, k]
                h[j, k] = temp
            denom = float(np.hypot(h[k, k], h[k + 1, k]))
            if denom == 0.0:
                k_used = k + 1
                break
            cs[k] = h[k, k] / denom
            sn[k] = h[k + 1, k] / denom
            h[k, k] = denom
            h[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            k_used = k + 1
            history.append(abs(float(g[k + 1])))
            if abs(g[k + 1]) <= tol * max(beta, 1e-30) or total_inner >= max_iterations:
                break
        # Solve the small triangular system and update x.
        y = np.zeros(k_used)
        for i in range(k_used - 1, -1, -1):
            y[i] = (g[i] - float(h[i, i + 1 : k_used] @ y[i + 1 : k_used])) / h[i, i]
        x = x + q[:k_used].T @ y
        true_norm = float(np.linalg.norm(b - op(x)))
        history.append(true_norm)
        if not math.isfinite(true_norm):
            return IterativeResult(x, False, total_inner, true_norm, history, op.count)
        if true_norm <= threshold_true:
            return IterativeResult(x, True, total_inner, true_norm, history, op.count)
    true_norm = float(np.linalg.norm(b - op(x)))
    return IterativeResult(x, true_norm <= threshold_true, total_inner, true_norm, history, op.count)
