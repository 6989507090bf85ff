"""A compressed-sparse-row matrix built from scratch.

The Jacobians of finite-difference PDE stencils are five-point sparse;
the paper's digital baselines (Bi-CGstab, PCG, sparse QR on the GPU)
all consume this structure. We implement our own CSR container rather
than depending on scipy so every kernel the performance models charge
for is visible in this repository.

The usual construction path is :class:`CooBuilder` (append triplets
while walking a stencil) followed by :meth:`CooBuilder.to_csr`, which
sorts, deduplicates (summing duplicates, the standard FEM assembly
convention) and packs.

Every matrix carries a :class:`CsrStructure`: its ``indptr`` and
``indices`` plus what is derived from them once (per-entry row ids, a
pattern digest). Matrices with one pattern share one structure through
:meth:`CsrMatrix.from_structure`, and structure arrays are never
written in place. Stencils on a fixed grid keep a :class:`TripletPattern`
and pay only its numeric :meth:`~TripletPattern.fill` per assembly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

import numpy as np

__all__ = [
    "CooBuilder",
    "CsrMatrix",
    "CsrStructure",
    "TripletPattern",
    "eye",
    "diags",
    "csr_from_triplets",
]


def _scatter_add(ids: np.ndarray, weights: np.ndarray, length: int) -> np.ndarray:
    """``out[ids[i]] += weights[i]`` in order of ``i``, from ``out = 0.0``.

    ``np.bincount`` accumulates sequentially exactly like ``np.add.at``
    on a zeroed array (so even ``-0.0`` sums come out the same), at a
    fraction of the cost. It returns integers for empty input, hence
    the guard.
    """
    if ids.size == 0:
        return np.zeros(length)
    return np.bincount(ids, weights=weights, minlength=length)


class CsrStructure:
    """The symbolic half of a CSR matrix, shared by every matrix with
    the same sparsity pattern.

    Holds ``shape``, ``indptr`` and ``indices`` plus what is derived
    from them once: the row id of each stored entry (the scatter index
    of :meth:`CsrMatrix.matvec`) and a pattern digest. The arrays are
    treated as immutable — nothing writes them in place — so the
    derived values stay valid for the structure's lifetime.
    """

    __slots__ = ("shape", "indptr", "indices", "_row_ids", "_key")

    def __init__(
        self,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        row_ids: Optional[np.ndarray] = None,
    ):
        self.shape = shape
        self.indptr = indptr
        self.indices = indices
        self._row_ids = row_ids
        self._key: Optional[Tuple] = None

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    @property
    def row_ids(self) -> np.ndarray:
        """Row index of every stored entry, in storage order."""
        if self._row_ids is None:
            self._row_ids = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return self._row_ids

    @property
    def key(self) -> Tuple:
        """Fingerprint of the pattern: shape, nnz and content digests.

        Digests rather than Python's builtin ``hash`` keep the key
        stable across interpreter restarts (``hash(bytes)`` is salted
        per process): a kernel state restored from a checkpoint in a
        fresh process must recognize the same sparsity pattern, or its
        cached factorization would be silently discarded.
        """
        if self._key is None:
            self._key = (
                self.shape,
                self.nnz,
                hashlib.sha1(self.indptr.tobytes()).digest(),
                hashlib.sha1(self.indices.tobytes()).digest(),
            )
        return self._key


class TripletPattern:
    """Symbolic phase of triplet-to-CSR packing for fixed coordinates.

    Sorting the triplets by (row, col), grouping duplicates and packing
    ``indptr``/``indices`` depends only on the coordinates; a stencil
    whose coordinates are fixed by its grid builds this once, and each
    assembly runs only the numeric phase, :meth:`fill`. Duplicates are
    summed (the standard FEM assembly convention) in input order: the
    sort is stable.
    """

    __slots__ = ("structure", "order", "group")

    def __init__(self, num_rows: int, num_cols: int, rows: np.ndarray, cols: np.ndarray):
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        if rows.shape != cols.shape:
            raise ValueError("rows, cols, and values must have matching lengths")
        if rows.size and (rows.min() < 0 or rows.max() >= num_rows):
            raise IndexError("row index outside matrix")
        if cols.size and (cols.min() < 0 or cols.max() >= num_cols):
            raise IndexError("column index outside matrix")
        self.order = np.lexsort((cols, rows))
        rows, cols = rows[self.order], cols[self.order]
        is_new = np.ones(rows.size, dtype=bool)
        is_new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        self.group = np.cumsum(is_new) - 1
        merged_rows = rows[is_new]
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(merged_rows, minlength=num_rows))
        indices = cols[is_new]
        for array in (self.order, self.group, indptr, indices, merged_rows):
            array.flags.writeable = False  # shared between matrices: never written
        self.structure = CsrStructure((num_rows, num_cols), indptr, indices, merged_rows)

    def fill(self, vals: np.ndarray) -> "CsrMatrix":
        """The matrix with triplet values ``vals`` (same order as the
        coordinates the pattern was built from)."""
        vals = np.asarray(vals, dtype=float).ravel()
        if vals.shape != self.order.shape:
            raise ValueError("rows, cols, and values must have matching lengths")
        data = _scatter_add(self.group, vals[self.order], self.structure.nnz)
        return CsrMatrix.from_structure(self.structure, data)


def csr_from_triplets(
    num_rows: int, num_cols: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> "CsrMatrix":
    """Vectorized triplet-to-CSR packing (duplicates summed).

    The one assembly implementation: :class:`TripletPattern` (symbolic
    phase) followed by :meth:`TripletPattern.fill` (numeric phase).
    Stencils on a fixed grid keep the pattern and call ``fill`` alone.
    """
    return TripletPattern(num_rows, num_cols, rows, cols).fill(vals)


@dataclass
class CooBuilder:
    """Triplet accumulator for assembling a :class:`CsrMatrix`."""

    num_rows: int
    num_cols: int
    _rows: List[int] = field(default_factory=list)
    _cols: List[int] = field(default_factory=list)
    _vals: List[float] = field(default_factory=list)

    def add(self, row: int, col: int, value: float) -> None:
        """Append one entry; duplicates are summed at pack time."""
        if not (0 <= row < self.num_rows and 0 <= col < self.num_cols):
            raise IndexError(f"entry ({row}, {col}) outside {self.num_rows}x{self.num_cols}")
        self._rows.append(row)
        self._cols.append(col)
        self._vals.append(float(value))

    def extend(self, entries: Iterable[Tuple[int, int, float]]) -> None:
        for row, col, value in entries:
            self.add(row, col, value)

    def add_many(self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> None:
        """Vectorized bulk append (used by PDE stencil assembly)."""
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=float).ravel()
        if not (rows.shape == cols.shape == values.shape):
            raise ValueError("rows, cols, and values must have matching lengths")
        if rows.size == 0:
            return
        if rows.min() < 0 or rows.max() >= self.num_rows:
            raise IndexError("row index outside matrix")
        if cols.min() < 0 or cols.max() >= self.num_cols:
            raise IndexError("column index outside matrix")
        self._rows.extend(rows.tolist())
        self._cols.extend(cols.tolist())
        self._vals.extend(values.tolist())

    def __len__(self) -> int:
        return len(self._vals)

    def to_csr(self) -> "CsrMatrix":
        """Sort by (row, col), merge duplicates, and pack into CSR."""
        return csr_from_triplets(self.num_rows, self.num_cols, self._rows, self._cols, self._vals)


@dataclass
class CsrMatrix:
    """Compressed sparse row matrix with the kernels the solvers need.

    ``structure`` carries the symbolic arrays and their derived row ids;
    matrices made by :meth:`from_structure` share it, so only ``data``
    is per matrix.
    """

    shape: Tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    structure: CsrStructure = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        num_rows, _ = self.shape
        if self.indptr.shape[0] != num_rows + 1:
            raise ValueError("indptr length must be num_rows + 1")
        if self.indices.shape[0] != self.data.shape[0]:
            raise ValueError("indices and data must be the same length")
        self.structure = CsrStructure(self.shape, self.indptr, self.indices)

    @classmethod
    def from_structure(cls, structure: CsrStructure, data: np.ndarray) -> "CsrMatrix":
        """A matrix on an existing, shared :class:`CsrStructure`."""
        if data.shape != structure.indices.shape:
            raise ValueError("indices and data must be the same length")
        matrix = cls.__new__(cls)
        matrix.shape = structure.shape
        matrix.indptr = structure.indptr
        matrix.indices = structure.indices
        matrix.data = data
        matrix.structure = structure
        return matrix

    # -- basic properties ------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self.shape[0]

    @property
    def num_cols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Number of stored (structurally nonzero) entries."""
        return int(self.data.shape[0])

    @property
    def row_ids(self) -> np.ndarray:
        """Row index of every stored entry (cached on the structure)."""
        return self.structure.row_ids

    # -- kernels ----------------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix-vector product ``A @ x``."""
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.num_cols:
            raise ValueError(f"vector length {x.shape[0]} != num_cols {self.num_cols}")
        return _scatter_add(self.row_ids, self.data * x.take(self.indices), self.num_rows)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Transposed product ``A.T @ y`` without materializing ``A.T``."""
        y = np.asarray(y, dtype=float)
        if y.shape[0] != self.num_rows:
            raise ValueError(f"vector length {y.shape[0]} != num_rows {self.num_rows}")
        return _scatter_add(self.indices, self.data * y.take(self.row_ids), self.num_cols)

    def diagonal(self) -> np.ndarray:
        """Main diagonal as a dense vector (zeros where absent)."""
        n = min(self.shape)
        diag = np.zeros(n)
        row_ids = self.row_ids
        hits = (row_ids == self.indices) & (row_ids < n)
        diag[row_ids[hits]] = self.data[hits]
        return diag

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row ``i`` as views."""
        start, stop = self.indptr[i], self.indptr[i + 1]
        return self.indices[start:stop], self.data[start:stop]

    def transpose(self) -> "CsrMatrix":
        """Explicit transpose, itself in CSR form."""
        return csr_from_triplets(
            self.num_cols, self.num_rows, self.indices, self.row_ids, self.data
        )

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (tests and small solves only)."""
        out = np.zeros(self.shape)
        out[self.row_ids, self.indices] = self.data
        return out

    def scaled(self, alpha: float) -> "CsrMatrix":
        """Return ``alpha * A`` sharing structure, copying data."""
        return CsrMatrix.from_structure(self.structure, self.data * float(alpha))

    def add(self, other: "CsrMatrix") -> "CsrMatrix":
        """Structural sum ``A + B`` (shapes must match)."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return csr_from_triplets(
            self.num_rows,
            self.num_cols,
            np.concatenate([self.row_ids, other.row_ids]),
            np.concatenate([self.indices, other.indices]),
            np.concatenate([self.data, other.data]),
        )

    def frobenius_norm(self) -> float:
        return float(np.sqrt(np.sum(self.data**2)))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)


def eye(n: int, scale: float = 1.0) -> CsrMatrix:
    """Sparse identity (optionally scaled)."""
    return CsrMatrix(
        shape=(n, n),
        indptr=np.arange(n + 1, dtype=np.int64),
        indices=np.arange(n, dtype=np.int64),
        data=np.full(n, float(scale)),
    )


def diags(values: np.ndarray) -> CsrMatrix:
    """Sparse diagonal matrix from a dense vector."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    return CsrMatrix(
        shape=(n, n),
        indptr=np.arange(n + 1, dtype=np.int64),
        indices=np.arange(n, dtype=np.int64),
        data=values.copy(),
    )
