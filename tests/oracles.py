"""Independent oracles used by the tests.

Everything here is deliberately written against first principles (cotangent
identities, dense linear algebra, grid search, finite differences) rather
than reusing the library's own code paths.
"""

from itertools import combinations
from math import factorial

import numpy as np


def cotangent_stiffness(points):
    """2D P1 Laplace element matrix via the cotangent formula.

    Off-diagonal entry (i, j) is -cot(angle at the vertex opposite edge ij)/2;
    diagonals make rows sum to zero.
    """
    points = np.asarray(points, dtype=float)
    k = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            opp = 3 - i - j
            u = points[i] - points[opp]
            v = points[j] - points[opp]
            cross = u[0] * v[1] - u[1] * v[0]
            cot = (u @ v) / abs(cross)
            k[i, j] = -0.5 * cot
    for i in range(3):
        k[i, i] = -k[i].sum()
    return k


def inverse_stiffness(points):
    """P1 Laplace element matrix from the inverse of the barycentric system.

    phi_i(x) = inv(M)[i] @ [1, x] with M = [[1...1], [V^T]], so the
    gradient of phi_i is inv(M)[i, 1:]; any dimension.
    """
    points = np.asarray(points, dtype=float)
    d = points.shape[1]
    m = np.vstack([np.ones(d + 1), points.T])
    vol = abs(np.linalg.det(points[1:] - points[0])) / np.prod(np.arange(1, d + 1))
    grads = np.linalg.inv(m)[:, 1:]
    return vol * (grads @ grads.T)


def assembled_blocks(mesh, element_matrix):
    """Dense (A_I, A_IB) summed element by element from ``element_matrix``."""
    n = mesh.n_nodes
    a = np.zeros((n, n))
    for elem in mesh.elements:
        a[np.ix_(elem, elem)] += element_matrix(mesh.coords[elem])
    interior, boundary = mesh.interior_ids, mesh.boundary_ids
    return a[np.ix_(interior, interior)], a[np.ix_(interior, boundary)]


def node_neighbors(mesh):
    """Adjacency sets N(i): nodes sharing an element with node i."""
    neighbors = [set() for _ in range(mesh.n_nodes)]
    for elem in mesh.elements:
        for i in elem:
            neighbors[i].update(elem.tolist())
    for i, s in enumerate(neighbors):
        s.discard(i)
    return [np.array(sorted(s), dtype=np.int64) for s in neighbors]


def tri_measures(free, others, slots):
    """Signed areas of triangles with the free vertex substituted in.

    ``others`` is (n, 3, 2) vertex data, ``slots`` the free vertex's index in
    each triangle.
    """
    pts = np.array(others)
    pts[np.arange(len(pts)), slots] = free
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def grid_maximin(others, slots, center, span, levels=6, n=81):
    """Refined grid search for max over x of min signed area.

    Returns (best position, best min-measure).  The objective is concave
    piecewise affine, so nested grids converge geometrically.
    """
    others = np.asarray(others, dtype=float)
    slots = np.asarray(slots)
    best_x = np.asarray(center, dtype=float)
    best_val = -np.inf
    half = span / 2.0
    centre = np.asarray(center, dtype=float)
    for _ in range(levels):
        xs = np.linspace(centre[0] - half, centre[0] + half, n)
        ys = np.linspace(centre[1] - half, centre[1] + half, n)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        # min measure per candidate, vectorized over the grid
        vals = np.full(len(pts), np.inf)
        for t in range(len(others)):
            tri = np.broadcast_to(others[t], (len(pts), 3, 2)).copy()
            tri[:, slots[t]] = pts
            e1 = tri[:, 1] - tri[:, 0]
            e2 = tri[:, 2] - tri[:, 0]
            meas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
            vals = np.minimum(vals, meas)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_x = pts[k]
        centre = pts[k]
        # a wide window guards against the argmax drifting along a nearly
        # flat ridge of the piecewise-affine objective
        half = 8.0 * (xs[1] - xs[0])
    return best_x, best_val


def fd_jacobian(fn, point, eps=1e-6):
    """Central-difference Jacobian, independent of the library's helper."""
    point = np.asarray(point, dtype=float)
    cols = []
    for j in range(point.size):
        dp = np.zeros(point.size)
        dp[j] = eps
        cols.append((np.asarray(fn(point + dp)) - np.asarray(fn(point - dp))) / (2 * eps))
    return np.column_stack(cols)


def barrier_weights_dplus1(center, nbrs):
    """Barrier-optimal weights when the node has exactly d+1 neighbors.

    The equality constraints then determine the weights uniquely; solve the
    square linear system directly.
    """
    nbrs = np.asarray(nbrs, dtype=float)
    a = np.vstack([np.ones(len(nbrs)), nbrs.T])
    b = np.concatenate([[1.0], np.asarray(center, dtype=float)])
    return np.linalg.solve(a, b)


def simplex_measure(points):
    """Signed measure det(edge matrix) / d! of one simplex."""
    points = np.asarray(points, dtype=float)
    d = points.shape[1]
    return np.linalg.det(points[1:] - points[0]) / factorial(d)


def face_loop_aspect_ratio(points):
    """Longest edge over minimum altitude, one facet at a time.

    The altitude over a facet is d * volume / facet measure; +inf for a
    degenerate simplex.
    """
    points = np.asarray(points, dtype=float)
    d = points.shape[1]
    h = max(np.linalg.norm(p - q) for p, q in combinations(points, 2))
    meas = abs(simplex_measure(points))
    if meas == 0.0:
        return np.inf
    facets = []
    for f in range(d + 1):
        face = np.delete(points, f, axis=0)
        e = face[1:] - face[0]
        if d == 2:
            facets.append(np.linalg.norm(e[0]))
        else:
            facets.append(0.5 * np.linalg.norm(np.cross(e[0], e[1])))
    return h / (d * meas / max(facets))


REGULAR_SIMPLEX = {
    2: np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]]),
    3: np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.5, np.sqrt(3.0) / 2.0, 0.0],
            [0.5, np.sqrt(3.0) / 6.0, np.sqrt(6.0) / 3.0],
        ]
    ),
}


def inverse_mean_ratio_by_inverse(points):
    """||T||_F^2 / (d det(T)^(2/d)) with T = E inv(E_ref) the affine map from
    the unit-edge regular simplex onto the element; nan unless positively
    oriented."""
    points = np.asarray(points, dtype=float)
    d = points.shape[1]
    regular = REGULAR_SIMPLEX[d]
    t = (points[1:] - points[0]).T @ np.linalg.inv((regular[1:] - regular[0]).T)
    det = np.linalg.det(t)
    if det <= 0.0:
        return np.nan
    return (t * t).sum() / (d * det ** (2.0 / d))


def bumped_measure_coeffs(sub):
    """(G, c) with measure_i(x) = G[i] @ x + c[i] for the free vertex of a
    LocalSubmesh, from measure differences under unit shifts of that vertex
    along each axis (exact by linearity)."""
    n = len(sub.elements)
    d = sub.position.size
    idx = np.arange(n)
    work = np.array(sub.elements)
    work[idx, sub.free_slots] = sub.position
    base = np.array([simplex_measure(p) for p in work])
    grads = np.empty((n, d))
    for j in range(d):
        bumped = np.array(work)
        bumped[idx, sub.free_slots, j] += 1.0
        grads[:, j] = [simplex_measure(p) for p in bumped] - base
    return grads, base - grads @ sub.position


def barrier_node_weights(center, nbr_coords, tol=1e-10, max_iter=100):
    """Solve max sum(log w) s.t. sum w = 1, sum w*(x_j - x_i) = 0, one node.

    Damped Newton on the dual: w_j = 1 / (C^T lam)_j with C the constraint
    matrix; initialized at uniform weights.  Returns None when the iteration
    cannot reach the KKT tolerance.
    """
    n = len(nbr_coords)
    rel = nbr_coords - center
    c = np.vstack([np.ones(n), rel.T])  # (d+1, n)
    target = np.zeros(c.shape[0])
    target[0] = 1.0
    lam = np.zeros(c.shape[0])
    lam[0] = n  # yields uniform w = 1/n
    for _ in range(max_iter):
        s = c.T @ lam
        if np.min(s) <= 0.0:
            return None
        w = 1.0 / s
        g = c @ w - target
        if np.abs(g).max() <= tol:
            return w
        jac = -(c * w**2) @ c.T
        try:
            step = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            return None
        alpha = 1.0
        while np.min(c.T @ (lam + alpha * step)) <= 0.0:
            alpha *= 0.5
            if alpha < 1e-14:
                return None
        lam = lam + alpha * step
    return None


def write_mesh_by_line(mesh, node_path, ele_path):
    """.node/.ele writer formatting one record at a time with repr(float)."""
    with open(node_path, "w") as fh:
        fh.write(f"{mesh.n_nodes} {mesh.dim} 0 1\n")
        for nid in range(mesh.n_nodes):
            xyz = " ".join(repr(float(v)) for v in mesh.coords[nid])
            fh.write(f"{nid} {xyz} {1 if mesh.boundary[nid] else 0}\n")
    with open(ele_path, "w") as fh:
        fh.write(f"{mesh.n_elements} {mesh.dim + 1} 0\n")
        for eid in range(mesh.n_elements):
            ids = " ".join(str(int(v)) for v in mesh.elements[eid])
            fh.write(f"{eid} {ids}\n")


def first_bad_node_record(ids, n):
    """(record, problem) of the first node record whose id lies outside
    ``[base, base + n)``, ``base`` the smallest id, or repeats an earlier
    record's id; None when every id is good.  One record at a time, in
    Python integers."""
    base = min(ids, default=0)
    seen = set()
    for i, nid in enumerate(ids):
        if not 0 <= nid - base < n:
            return i, "out of range"
        if nid in seen:
            return i, "repeated"
        seen.add(nid)
    return None
