"""Sparse-aware QR: the stand-in for the paper's cuSolver GPU kernel.

Section 6.3 of the paper offloads each Newton step's linear solve to
``cusolverSp`` sparse QR on a GTX 1070. We reproduce the *algorithmic*
content (a QR least-squares solve of ``J delta = F``) and report the
operation counts that the :class:`repro.perf.gpu_model.GpuModel` turns
into modeled seconds and joules.

The factorization here is Householder QR on a dense copy — correct for
any matrix and exact about the answer — while :func:`qr_operation_count`
reports the cost a *sparse* QR would pay, derived from the matrix's
bandwidth-bounded fill, which is what the GPU model charges for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg.dense import QrFactorization, qr_factor, qr_solve
from repro.linalg.sparse import CsrMatrix

__all__ = ["SparseQr", "qr_operation_count"]


def qr_operation_count(matrix: CsrMatrix) -> float:
    """Floating-point operation estimate for sparse QR of ``matrix``.

    Sparse QR of a banded matrix with bandwidth ``w`` costs about
    ``2 n w^2`` flops (each of the ``n`` Householder steps touches an
    ``O(w) x O(w)`` window). For five-point-stencil Jacobians the
    bandwidth is the grid width times the number of coupled fields,
    which reproduces the superlinear growth in GPU solve time between
    16x16 and 32x32 problems seen in Figure 9.
    """
    n = matrix.num_rows
    if n == 0:
        return 0.0
    if matrix.nnz == 0:
        return float(n)
    bandwidth = int(np.max(np.abs(matrix.row_ids - matrix.indices))) + 1
    return float(2.0 * n * bandwidth * bandwidth)


@dataclass
class SparseQr:
    """QR solver wrapper recording the modeled sparse flop count."""

    factorization: QrFactorization
    modeled_flops: float
    nnz: int
    n: int

    @classmethod
    def factor(cls, matrix: CsrMatrix) -> "SparseQr":
        if matrix.num_rows != matrix.num_cols:
            raise ValueError("SparseQr.factor expects a square system matrix")
        dense = matrix.to_dense()
        return cls(
            factorization=qr_factor(dense),
            modeled_flops=qr_operation_count(matrix),
            nnz=matrix.nnz,
            n=matrix.num_rows,
        )

    def solve(self, b: np.ndarray) -> np.ndarray:
        return qr_solve(self.factorization, b)
