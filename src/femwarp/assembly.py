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

import numpy as np
from scipy import sparse

from .errors import (
    DegenerateElementError,
    NoInteriorError,
    NodeNotInteriorError,
    NoNeighborsError,
    SingularSystemError,
)
from .mesh import _columns, _dot, _geometry, _gradients, _reversed
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
    DEGENERATE_ELEMENT unless every measure lies in (0, inf); an entry that
    overflows is inf or nan, without a warning.
    """
    meas = _geometry(cols)[0]
    bad = np.flatnonzero(_reversed(meas))
    if len(bad):
        raise DegenerateElementError(
            f"element {bad[0]} has nonpositive measure",
            element=int(bad[0]),
            measure=float(meas[bad[0]]),
        )
    g = _gradients(cols)
    with np.errstate(over="ignore", invalid="ignore"):
        # the Gram matrix of the gradients, accumulated axis by axis
        return _dot(g[:, :, :, None], g[:, :, None, :]) / meas[:, None, None]


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


def _barrier_newton(c, tol, max_iter=100):
    """Damped dual Newton on a stack of per-node barrier programs.

    Row r solves max sum(log w) s.t. ``c[r] @ w = e_0``, with ``c[r]`` the
    (d+1, n) constraint matrix ``[1; (x_j - x_i)^T]``: w_j = 1 / (C^T lam)_j,
    started at uniform weights.  A row keeps the weights of the first
    iteration that meets ``tol`` and is frozen from then on; its step is
    halved until it keeps ``C^T lam`` positive.  Returns (g, n) weights and
    the mask of rows that failed (nonpositive ``C^T lam``, a step below
    1e-14, a singular Jacobian or ``max_iter`` reached); failed rows hold
    NaN.
    """
    g, k, n = c.shape
    w_out = np.full((g, n), np.nan)
    failed = np.zeros(g, dtype=bool)
    lam = np.zeros((g, k))
    lam[:, 0] = n  # yields uniform w = 1/n
    act = np.arange(g)  # rows still iterating
    for _ in range(max_iter):
        if not len(act):
            break
        ca, la = c[act], lam[act]
        s = np.einsum("gkn,gk->gn", ca, la)
        ok = s.min(axis=1) > 0.0
        w = 1.0 / s
        grad = np.einsum("gkn,gn->gk", ca, w)
        grad[:, 0] -= 1.0
        done = ok & (np.abs(grad).max(axis=1) <= tol)
        w_out[act[done]] = w[done]
        failed[act[~ok]] = True
        go = ok & ~done
        act, ca, la, w, grad = act[go], ca[go], la[go], w[go], grad[go]
        jac = -(ca * (w * w)[:, None, :]) @ ca.transpose(0, 2, 1)
        step, singular = _solve_stack(jac, -grad)
        failed[act[singular]] = True
        keep = ~singular
        act, ca, la, step = act[keep], ca[keep], la[keep], step[keep]
        # per-row backtracking until every trial C^T lam is positive
        alpha = np.ones(len(act))
        trial = np.arange(len(act))
        while len(trial):
            lam_t = la[trial] + alpha[trial, None] * step[trial]
            s = np.einsum("gkn,gk->gn", ca[trial], lam_t)
            trial = trial[s.min(axis=1) <= 0.0]
            alpha[trial] *= 0.5
            stuck = alpha[trial] < 1e-14
            failed[act[trial[stuck]]] = True
            trial = trial[~stuck]
        moving = ~failed[act]
        act = act[moving]
        lam[act] = la[moving] + alpha[moving, None] * step[moving]
    failed[act] = True
    return w_out, failed


def _solve_stack(a, b):
    """Solve the stacked systems ``a[r] x = b[r]``; returns the solutions and
    the mask of singular rows (their solution is garbage).  A singular
    matrix fails only its own row."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0], np.zeros(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    x = np.zeros_like(b)
    singular = np.zeros(len(a), dtype=bool)
    for r in range(len(a)):
        try:
            x[r] = np.linalg.solve(a[r], b[r])
        except np.linalg.LinAlgError:
            singular[r] = True
    return x, singular


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
        nbrs = topology.adj_indices[start[rows, None] + np.arange(n)]
        rel = mesh.coords[nbrs] - mesh.coords[ids[rows], None, :]
        c = np.concatenate((np.ones((len(rows), 1, n)), rel.transpose(0, 2, 1)), axis=1)
        w, bad = _barrier_newton(c, tol)
        weights[offset[rows, None] + np.arange(n)] = w
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
    raise ValueError(f"unknown scheme {scheme!r}")
