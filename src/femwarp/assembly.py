"""Weight-system construction for linearly weighted Laplacian smoothing.

Three schemes are provided:

* ``FEM``: the piecewise-linear Laplace stiffness matrix, kept unscaled so
  the interior block stays symmetric positive definite.
* ``UNIFORM``: classical Laplacian-smoothing weights 1/|N(i)|.
* ``LOG_BARRIER``: strictly positive convex weights per interior node from
  a per-node log-barrier program.

``FEM`` and ``LOG_BARRIER`` satisfy the affine-combination identities on
any mesh: the assembled ``[A_I, A_B]`` annihilates the constant vector
(after scaling) and every coordinate axis of the generating mesh, so
affine boundary motions are reproduced exactly.  ``UNIFORM`` annihilates
only the constant vector in general; it annihilates the coordinate axes
exactly when every interior node is the centroid of its neighbors (true
for uniform grids and structured box tet meshes, false for curved meshes
such as the polar annulus).

All three schemes fill the same fixed sparsity pattern, held by the
mesh's :class:`~femwarp.mesh.Topology`; a moved mesh from
``Mesh.with_coords`` shares it, so rebuilding its weights writes values
only.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy import sparse

from .errors import (
    DegenerateElementError,
    InvalidSpecError,
    NoInteriorError,
    NodeNotInteriorError,
    NoNeighborsError,
    SingularSystemError,
)
from .mesh import _columns, _dot, _geometry, _gradients, _reversed, _scale_exponents
from .solve import _simplex_maximize

SCHEMES = ("FEM", "UNIFORM", "LOG_BARRIER")


@dataclass(frozen=True)
class WeightSystem:
    """Partitioned weight matrix of one LWLS scheme.

    ``a_ii`` (m x m) acts on interior nodes, ``a_ib`` (m x b) on boundary
    nodes; ``interior_ids`` / ``boundary_ids`` map block rows/columns back
    to mesh node ids (both ascending).
    """

    a_ii: sparse.csr_matrix
    a_ib: sparse.csr_matrix
    interior_ids: np.ndarray
    boundary_ids: np.ndarray


def system(topology, data):
    """WeightSystem of ``data`` (length ``topology.nnz``) in its pattern."""
    nnz_ii = len(topology.ii_indices)
    m, b = len(topology.interior_ids), len(topology.boundary_ids)
    a_ii = sparse.csr_matrix(
        (data[:nnz_ii], topology.ii_indices, topology.ii_indptr), shape=(m, m)
    )
    a_ib = sparse.csr_matrix(
        (data[nnz_ii:], topology.ib_indices, topology.ib_indptr), shape=(m, b)
    )
    return WeightSystem(a_ii, a_ib, topology.interior_ids, topology.boundary_ids)


def row_system(topology, weights):
    """Unit-diagonal A_I with -w_ij off the diagonal; ``weights`` lists
    every interior row's neighbor weights in adjacency order."""
    data = np.zeros(topology.nnz)
    data[topology.diag_slots] = 1.0
    data[topology.nbr_slots] = -weights
    return system(topology, data)


def _topology(mesh):
    """``mesh.topology``; raises NO_INTERIOR for a mesh without interior."""
    if len(mesh.topology.interior_ids) == 0:
        raise NoInteriorError("mesh has no interior nodes")
    return mesh.topology


def _stiffness(cols):
    """P1 Laplace element matrices ``K_ij = G_i.G_j / meas`` on the per-axis
    vertex columns of ``mesh._geometry``, (d, k, d+1) -> (k, d+1, d+1), with
    G the measure gradients (``G_i = meas * grad(phi_i)``).  Raises
    DEGENERATE_ELEMENT unless every measure lies in (0, inf).  Each element
    is formed, as ``quality_report`` forms it, on its copy scaled exactly
    by the power of two of ``mesh._scale_exponents`` (a 3D K is scaled
    back); an entry that overflows is inf or nan, without a warning.
    """
    meas = _geometry(cols)[0]
    bad = np.flatnonzero(_reversed(meas))
    if len(bad):
        raise DegenerateElementError(
            f"element {bad[0]} has nonpositive measure",
            element=int(bad[0]),
            measure=float(meas[bad[0]]),
        )
    e = _scale_exponents(cols)
    cols = np.ldexp(cols, -e[:, None])
    g = _gradients(cols)
    with np.errstate(over="ignore", invalid="ignore"):
        # the Gram matrix of the gradients, accumulated axis by axis
        stiff = _dot(g[:, :, :, None], g[:, :, None, :]) / _geometry(cols)[0][:, None, None]
        return stiff if len(cols) == 2 else np.ldexp(stiff, e[:, None, None])


def local_stiffness(points):
    """Element stiffness matrix of the Laplace operator with P1 hat functions.

    Symmetric (d+1)x(d+1) with zero row sums.  Requires a nondegenerate,
    positively oriented simplex.
    """
    return _stiffness(np.asarray(points, dtype=float).T[:, None])[0]


def assemble_stiffness(mesh):
    """Global Laplace stiffness matrix in CSR form.

    Rows sum to zero and the nonzero pattern is node adjacency.
    """
    d1 = mesh.dim + 1
    local = _stiffness(_columns(mesh))
    rows = np.repeat(mesh.elements, d1, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, d1)).ravel()
    n = mesh.n_nodes
    return sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def fem_weights(mesh):
    """FEM weights: element stiffness summed into the topology's pattern."""
    topology = _topology(mesh)
    if len(topology.boundary_ids) == 0:
        raise SingularSystemError("mesh has no boundary nodes; A_I is singular")
    local = _stiffness(_columns(mesh))
    data = np.bincount(
        topology.scatter, weights=local.ravel(), minlength=topology.nnz + 1
    )
    return system(topology, data[: topology.nnz])


def _degrees(topology):
    """Neighbor counts of the interior nodes; raises NO_NEIGHBORS for the
    first interior node without any."""
    deg = np.diff(topology.adj_indptr)[topology.interior_ids]
    lonely = topology.interior_ids[deg == 0]
    if len(lonely):
        nid = int(lonely[0])
        raise NoNeighborsError(f"interior node {nid} has no neighbors", node=nid)
    return deg


def uniform_weights(mesh):
    """Centroid-of-neighbors weights: w_ij = 1/|N(i)| for every neighbor."""
    topology = _topology(mesh)
    deg = _degrees(topology)
    return row_system(topology, np.repeat(1.0 / deg, deg))


def _strictly_inside_hull(center, nbr_coords):
    """Is ``center`` a strictly positive convex combination of its neighbors?
    By Stiemke's lemma, yes unless some u has ``rel @ u >= 0`` for every
    neighbor and ``> 0`` for one (``rel = nbr_coords - center``); the simplex
    maximizes ``sum(rel @ u)`` over such u in the box ``|u| <= 1``, and the
    node is strictly inside iff the optimum is at most 1e-12.  ``rel`` is
    first scaled exactly by the power of two of its largest entry, so units
    do not matter, and a non-finite ``rel`` is not inside."""
    with np.errstate(over="ignore", invalid="ignore"):
        rel = nbr_coords - center
    if not np.isfinite(rel).all():
        return False
    rel = np.ldexp(rel, -np.frexp(np.abs(rel).max())[1])
    s = rel.sum(axis=0)  # sum(rel @ u) = s @ u, with u = u+ - u- and u+, u- in [0, 1]
    a_ub = np.vstack([np.hstack([-rel, rel]), np.eye(2 * len(s))])
    b_ub = np.concatenate([np.zeros(len(rel)), np.ones(2 * len(s))])
    x = _simplex_maximize(np.concatenate([s, -s]), a_ub, b_ub)
    return x is not None and s @ np.subtract(*x.reshape(2, -1)) <= 1e-12


def _barrier_newton(rel, tol, max_iter=100):
    """Damped dual Newton on a stack of per-node barrier programs.

    Column r of the d per-axis (n, g) arrays ``rel`` holds node r's neighbor
    offsets ``x_j - x_i``, scaled exactly by the power of two of its largest
    entry, so the stop test ``|grad| <= tol`` has no units.  It solves max
    sum(log w) s.t. ``sum(w) = 1``, ``sum(w * rel_a) = 0`` by ``w = 1 / s``,
    ``s = lam_0 + sum_a lam_a rel_a`` from uniform weights, keeps the first
    iterate that meets ``tol`` and halves a step until ``s > 0``.  Sums add
    the neighbors one by one (numpy's ``sum`` goes pairwise on a lone
    column): no BLAS, other column or stack width touches a column's bits.
    Returns (n, g) weights and the mask of failed columns, which hold NaN: a
    non-finite offset, a pivot not > 0, a step below 1e-14 or ``max_iter``.
    """
    n, g = rel[0].shape
    w_out = np.full((n, g), np.nan)
    big = np.max([np.abs(r).max(axis=0) for r in rel], axis=0)
    failed = ~np.isfinite(big)
    drop = failed.copy()  # a non-finite column never iterates
    rel = [np.ldexp(r, -np.frexp(big)[1]) for r in rel]
    act = np.arange(g)  # columns still iterating
    lam = np.zeros((len(rel) + 1, g))
    lam[0] = n  # yields uniform w = 1/n
    s = np.full((n, g), float(n))
    for _ in range(max_iter):
        if drop.any():  # converged and failed columns leave the stack
            act, lam, s, rel = act[~drop], lam[:, ~drop], s[:, ~drop], [r[:, ~drop] for r in rel]
        w = 1.0 / s
        v = [w] + [w * r for r in rel]  # the rows of C W
        grad = np.array([reduce(np.add, vk) for vk in v])
        grad[0] -= 1.0
        done = np.abs(grad).max(axis=0) <= tol
        w_out[:, act[done]] = w[:, done]
        if done.all():
            return w_out, failed
        h = [[reduce(np.add, vk * vl) for vl in v[: k + 1]] for k, vk in enumerate(v)]  # C W^2 C^T
        step, singular = _cholesky_solve(h, grad)
        alpha = np.where(singular | done, 0.0, 1.0)
        trial = alpha > 0.0
        while True:  # per column, halve the step until every s is positive
            lam_t = lam + alpha * step
            s = lam_t[0] + sum(la * r for la, r in zip(lam_t[1:], rel))
            trial &= ~(s.min(axis=0) > 0.0)
            if not trial.any():
                break
            alpha[trial] *= 0.5
            trial &= alpha >= 1e-14
        lam, drop = lam_t, alpha < 1e-14
        failed[act[drop & ~done]] = True
    failed[act[~drop]] = True
    return w_out, failed


def _cholesky_solve(h, b):
    """Solve the stacked SPD systems ``h x = b`` by an unrolled Cholesky, one
    numpy operation per entry; ``h[i][j]`` (j <= i) and ``b[i]`` are arrays
    over the stack.  Returns x and the mask of the systems with a pivot that
    is not > 0 (nan included); their x is garbage."""
    k = len(b)
    low, y, x = [[None] * k for _ in range(k)], [None] * k, [None] * k
    singular = np.zeros(len(b[0]), dtype=bool)
    for i in range(k):
        for j in range(i):
            low[i][j] = (h[i][j] - sum(low[i][p] * low[j][p] for p in range(j))) / low[j][j]
        pivot = h[i][i] - sum(low[i][p] * low[i][p] for p in range(i))
        singular |= (bad := ~(pivot > 0.0))
        low[i][i] = np.sqrt(np.where(bad, 1.0, pivot))
        y[i] = (b[i] - sum(low[i][p] * y[p] for p in range(i))) / low[i][i]
    for i in reversed(range(k)):
        x[i] = (y[i] - sum(low[p][i] * x[p] for p in range(i + 1, k))) / low[i][i]
    return np.array(x), singular


def log_barrier_weights(mesh, tol=1e-10):
    """Strictly positive convex weights via a per-node barrier program.

    Each interior node's problem is independent; nodes of equal degree are
    solved together as one stack.  Nodes not strictly inside the convex
    hull of their neighbors are infeasible: the lowest such failing node
    raises NODE_NOT_INTERIOR, a failing node that is feasible raises
    SINGULAR_SYSTEM.
    """
    topology = _topology(mesh)
    deg = _degrees(topology)
    ids = topology.interior_ids
    start = topology.adj_indptr[ids]
    # offset of each interior row's weights in the adjacency-ordered list
    offset = np.concatenate(([0], np.cumsum(deg)[:-1]))
    weights = np.empty(deg.sum())
    failed = []
    for n in np.unique(deg):
        rows = np.flatnonzero(deg == n)
        nbrs = topology.adj_indices[start[rows] + np.arange(n)[:, None]]  # (n, g)
        with np.errstate(over="ignore", invalid="ignore"):
            rel = [x[nbrs] - x[ids[rows]] for x in mesh.coords.T]
        w, bad = _barrier_newton(rel, tol)
        weights[offset[rows] + np.arange(n)[:, None]] = w
        failed.append(ids[rows[bad]])
    failed = np.concatenate(failed)
    if len(failed):
        nid = int(failed.min())
        nbrs = topology.neighbors(nid)
        if not _strictly_inside_hull(mesh.coords[nid], mesh.coords[nbrs]):
            raise NodeNotInteriorError(
                f"node {nid} is not strictly inside its neighbors' hull", node=nid
            )
        raise SingularSystemError(
            f"barrier weights did not converge for node {nid}", node=nid
        )
    return row_system(topology, weights)


def build_weights(mesh, scheme):
    """Dispatch: build the WeightSystem for one of the SCHEMES, in the
    pattern of ``mesh.topology``."""
    scheme = scheme.upper()
    if scheme == "FEM":
        return fem_weights(mesh)
    if scheme == "UNIFORM":
        return uniform_weights(mesh)
    if scheme == "LOG_BARRIER":
        return log_barrier_weights(mesh)
    raise InvalidSpecError(f"unknown scheme {scheme!r}")
