"""Differential tests of the structure-sharing CSR fast paths.

The reference functions below are the implementations the fast paths
replaced, kept verbatim in spirit: ``np.add.at`` scatters for the
matrix-vector products, a lexsort + ``np.add.at`` triplet packer, and
the per-call triplet assembly of the Burgers and Bratu Jacobians. Every
comparison is on raw bytes (``tobytes``), so the fast paths must agree
bit for bit, including ``-0.0``, ``inf`` and NaN.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.linalg.sparse import CooBuilder, CsrMatrix, TripletPattern, csr_from_triplets
from repro.pde.boundary import DirichletBoundary
from repro.pde.bratu import BratuProblem1D, BratuProblem2D
from repro.pde.burgers import BurgersStencilSystem
from repro.pde.grid import Grid2D
from repro.pde.stencils import central_x, central_y, pad_with_boundary

# inf/NaN data overflow and cancel on purpose.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# -- reference implementations ------------------------------------------


def reference_row_ids(matrix):
    return np.repeat(np.arange(matrix.num_rows), np.diff(matrix.indptr))


def reference_matvec(matrix, x):
    out = np.zeros(matrix.num_rows)
    np.add.at(out, reference_row_ids(matrix), matrix.data * x[matrix.indices])
    return out


def reference_rmatvec(matrix, y):
    out = np.zeros(matrix.num_cols)
    np.add.at(out, matrix.indices, matrix.data * y[reference_row_ids(matrix)])
    return out


def reference_csr_from_triplets(num_rows, num_cols, rows, cols, vals):
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    vals = np.asarray(vals, dtype=float).ravel()
    if rows.size == 0:
        return (np.zeros(num_rows + 1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    is_new = np.ones(rows.size, dtype=bool)
    is_new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    group = np.cumsum(is_new) - 1
    merged_vals = np.zeros(int(group[-1]) + 1, dtype=float)
    np.add.at(merged_vals, group, vals)
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.add.at(indptr, rows[is_new] + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, cols[is_new], merged_vals


def reference_burgers_jacobian(system, w):
    """The per-call triplet assembly the Burgers pattern fill replaced."""
    u, v = system.split(w)
    grid = system.grid
    nx, ny, n = grid.nx, grid.ny, grid.num_nodes
    dx, dy = grid.dx, grid.dy
    wgt = system.weight
    inv_re = 1.0 / system.reynolds
    up = pad_with_boundary(u, system.boundary_u, grid)
    vp = pad_with_boundary(v, system.boundary_v, grid)
    ux, uy = central_x(up, dx), central_y(up, dy)
    vx, vy = central_x(vp, dx), central_y(vp, dy)
    jj, ii = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    k = (jj * nx + ii).ravel()
    visc_center = 2.0 * inv_re * (1.0 / dx**2 + 1.0 / dy**2)
    adv_e = u / (2.0 * dx)
    adv_n = v / (2.0 * dy)
    visc_x = inv_re / dx**2
    visc_y = inv_re / dy**2
    rows, cols, vals = [], [], []

    def add_block(r, c, values, mask=None):
        values = np.asarray(values, dtype=float).ravel()
        m = np.ones(r.shape, dtype=bool) if mask is None else mask.ravel()
        rows.append(r[m])
        cols.append(c[m])
        vals.append(values[m])

    east, west = ii < nx - 1, ii > 0
    north, south = jj < ny - 1, jj > 0
    for block, (own_grad, cross_grad) in enumerate(((ux, uy), (vy, vx))):
        row = k + block * n
        col_own = k + block * n
        add_block(row, col_own, 1.0 + wgt * (own_grad.ravel() + visc_center))
        add_block(row, col_own + 1, wgt * (adv_e.ravel() - visc_x), east)
        add_block(row, col_own - 1, wgt * (-adv_e.ravel() - visc_x), west)
        add_block(row, col_own + nx, wgt * (adv_n.ravel() - visc_y), north)
        add_block(row, col_own - nx, wgt * (-adv_n.ravel() - visc_y), south)
        add_block(row, k + (1 - block) * n, wgt * cross_grad.ravel())
    return reference_csr_from_triplets(
        system.dimension, system.dimension,
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
    )


def reference_bratu_jacobian(problem, u):
    """The per-call triplet assembly the Bratu pattern fills replaced."""
    if isinstance(problem, BratuProblem1D):
        n = problem.dimension
        coeff = 1.0 / problem.spacing**2
        idx = np.arange(n)
        rows, cols = [idx, idx[:-1], idx[1:]], [idx, idx[:-1] + 1, idx[1:] - 1]
        vals = [2.0 * coeff - problem.lam * np.exp(u), np.full(2 * (n - 1), -coeff)]
    else:
        grid = problem.grid
        n, nx, ny = grid.num_nodes, grid.nx, grid.ny
        coeff = 1.0 / grid.dx**2
        jj, ii = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
        k = (jj * nx + ii).ravel()
        masks = [(ii < nx - 1).ravel(), (ii > 0).ravel(), (jj < ny - 1).ravel(), (jj > 0).ravel()]
        rows = [k] + [k[m] for m in masks]
        cols = [k] + [k[m] + d for m, d in zip(masks, (1, -1, nx, -nx))]
        vals = [4.0 * coeff - problem.lam * np.exp(u)] + [np.full(int(m.sum()), -coeff) for m in masks]
    return reference_csr_from_triplets(
        n, n, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )


def bits(array):
    """Everything that must agree: dtype, shape and raw bytes."""
    return array.dtype, array.shape, array.tobytes()


def assert_same_csr(matrix, reference):
    indptr, indices, data = reference
    assert bits(matrix.indptr) == bits(indptr)
    assert bits(matrix.indices) == bits(indices)
    assert bits(matrix.data) == bits(data)


# -- strategies ----------------------------------------------------------

# Values that stress bitwise agreement: signed zeros, non-finite values,
# and pairs that cancel exactly when duplicates are summed.
SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, np.inf, -np.inf, np.nan, 1e308, -1e308])
VALUES = st.one_of(SPECIAL, st.floats(allow_nan=True, allow_infinity=True, width=64))


@st.composite
def triplets(draw):
    num_rows = draw(st.integers(0, 7))
    num_cols = draw(st.integers(0, 7))
    count = draw(st.integers(0, 30)) if num_rows and num_cols else 0
    rows = draw(st.lists(st.integers(0, max(num_rows - 1, 0)), min_size=count, max_size=count))
    cols = draw(st.lists(st.integers(0, max(num_cols - 1, 0)), min_size=count, max_size=count))
    vals = draw(st.lists(VALUES, min_size=count, max_size=count))
    return num_rows, num_cols, rows, cols, vals


@st.composite
def products(draw):
    """Triplets plus an ``x`` for ``A @ x`` and a ``y`` for ``A.T @ y``."""
    num_rows, num_cols, rows, cols, vals = draw(triplets())
    x = draw(st.lists(VALUES, min_size=num_cols, max_size=num_cols))
    y = draw(st.lists(VALUES, min_size=num_rows, max_size=num_rows))
    return num_rows, num_cols, rows, cols, vals, x, y


# -- sparse kernels ------------------------------------------------------


@given(products())
# Row 1 empty, a duplicate pair that cancels, a -0.0 entry.
@example((3, 3, [0, 0, 2], [1, 1, 0], [1.5, -1.5, -0.0], [1.0, 2.0, -0.0], [-0.0, 1.0, 2.0]))
# No duplicates, a -0.0 entry (the scatter still turns it into 0.0).
@example((2, 2, [0, 1], [1, 0], [-0.0, 2.0], [1.0, 1.0], [1.0, 1.0]))
# Duplicates of -0.0 only, and -0.0 products.
@example((2, 2, [1, 1, 1], [0, 0, 0], [-0.0, -0.0, -0.0], [1.0, 1.0], [1.0, -1.0]))
@example((2, 3, [], [], [], [1.0, 1.0, 1.0], [1.0, 1.0]))
@example((0, 0, [], [], [], [], []))
def test_fast_paths_match_the_add_at_oracles_bitwise(case):
    num_rows, num_cols, rows, cols, vals, x, y = case
    reference = reference_csr_from_triplets(num_rows, num_cols, rows, cols, vals)
    matrix = csr_from_triplets(num_rows, num_cols, rows, cols, vals)
    assert_same_csr(matrix, reference)
    builder = CooBuilder(num_rows, num_cols)
    builder.extend(zip(rows, cols, vals))
    assert_same_csr(builder.to_csr(), reference)
    assert bits(matrix.row_ids) == bits(reference_row_ids(matrix))
    x, y = np.array(x, dtype=float), np.array(y, dtype=float)
    assert bits(matrix.matvec(x)) == bits(reference_matvec(matrix, x))
    assert bits(matrix.rmatvec(y)) == bits(reference_rmatvec(matrix, y))


@given(triplets(), st.data())
def test_a_pattern_refills_like_fresh_assembly(case, data):
    num_rows, num_cols, rows, cols, vals = case
    pattern = TripletPattern(num_rows, num_cols, rows, cols)
    for values in (vals, data.draw(st.lists(VALUES, min_size=len(vals), max_size=len(vals)))):
        filled = pattern.fill(values)
        assert filled.structure is pattern.structure
        assert_same_csr(filled, reference_csr_from_triplets(num_rows, num_cols, rows, cols, values))


def test_structure_sharing_constructors_share_cached_row_ids():
    matrix = csr_from_triplets(3, 3, [0, 1, 2, 2], [0, 1, 0, 2], [1.0, 2.0, 3.0, 4.0])
    ids = matrix.row_ids
    assert matrix.row_ids is ids
    scaled = matrix.scaled(2.0)
    assert scaled.structure is matrix.structure and scaled.row_ids is ids
    assert bits(scaled.data) == bits(matrix.data * 2.0)
    rebuilt = CsrMatrix.from_structure(matrix.structure, np.arange(4.0))
    assert rebuilt.indptr is matrix.indptr and rebuilt.indices is matrix.indices
    assert rebuilt.structure.key is matrix.structure.key


def test_pattern_key_is_the_process_stable_digest():
    import hashlib

    matrix = csr_from_triplets(2, 2, [0, 1], [1, 0], [1.0, 1.0])
    assert matrix.structure.key == (
        (2, 2),
        2,
        hashlib.sha1(matrix.indptr.tobytes()).digest(),
        hashlib.sha1(matrix.indices.tobytes()).digest(),
    )


# -- stencil Jacobians: pattern fill vs fresh assembly -------------------


def _burgers(grid, reynolds, weight, seed):
    rng = np.random.default_rng(seed)
    return BurgersStencilSystem(
        grid=grid,
        reynolds=reynolds,
        rhs_u=rng.uniform(-3, 3, grid.shape),
        rhs_v=rng.uniform(-3, 3, grid.shape),
        boundary_u=DirichletBoundary.random(grid, rng, -1, 1),
        boundary_v=DirichletBoundary.random(grid, rng, -1, 1),
        weight=weight,
    )


def test_burgers_jacobians_on_one_grid_share_one_pattern_and_match_fresh_assembly():
    grid = Grid2D(nx=5, ny=3, dx=0.5, dy=0.25)
    first = _burgers(grid, reynolds=0.25, weight=1.0, seed=1)
    second = _burgers(grid, reynolds=1.75, weight=0.3, seed=2)
    rng = np.random.default_rng(3)
    filled = []
    for system in (first, second):
        for _ in range(3):  # first call packs afresh, later calls fill the pattern
            w = rng.uniform(-2, 2, system.dimension)
            jac = system.jacobian(w)
            assert_same_csr(jac, reference_burgers_jacobian(system, w))
            filled.append(jac)
    # The later calls of both systems hit one interned pattern.
    shared = filled[1].structure
    assert all(jac.structure is shared for jac in filled[1:3] + filled[4:])
    w = np.zeros(first.dimension)
    w[0] = -0.0
    assert_same_csr(first.jacobian(w), reference_burgers_jacobian(first, w))


def test_bratu_jacobians_match_fresh_assembly_and_share_patterns():
    for make in (lambda lam: BratuProblem1D(9, lam), lambda lam: BratuProblem2D(4, lam)):
        a, b = make(1.0), make(3.0)
        rng = np.random.default_rng(4)
        jacobians = []
        for problem in (a, b):
            u = rng.uniform(-1, 1, problem.dimension)
            jac = problem.jacobian(u)
            assert_same_csr(jac, reference_bratu_jacobian(problem, u))
            jacobians.append(jac)
        assert jacobians[0].structure is jacobians[1].structure
