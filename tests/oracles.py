"""Independent oracles used by the tests.

Everything here is deliberately written against first principles (cotangent
identities, dense linear algebra, grid search, finite differences) rather
than reusing the library's own code paths.
"""

import math
from itertools import combinations
from math import factorial

import numpy as np

from femwarp.analytic import infinitesimal_rotation_map
from femwarp.generators import gen_annulus
from femwarp.mesh import count_reversals
from femwarp.untangle import (
    BOX_FACTOR,
    KERNEL_MAX,
    STALL_TOL,
    LocalSubmesh,
    _measure_terms,
    _simplex_reposition,
)


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


def shear_gradient(alpha, point):
    """Jacobian of the rectangle shear (x, y) -> (x, y + alpha x (2 - x))."""
    x = float(point[0])
    return np.array([[1.0, 0.0], [alpha * (2.0 - 2.0 * x), 1.0]])


def shear_hessian_norm(alpha):
    # second derivatives: only d2y/dx2 = -2*alpha
    return 2.0 * abs(alpha)


def rotation_gradient(r, theta, point):
    return fd_jacobian(lambda p: infinitesimal_rotation_map(r, theta, p), point)


def rotation_hessian_norm_bound(r, theta, triangle, samples=10):
    """Upper bound on the rotation map's Hessian norm over a triangle,
    estimated from a barycentric sample of finite-difference Hessians."""
    triangle = np.asarray(triangle, dtype=float)
    best = 0.0
    for i in range(samples + 1):
        for j in range(samples + 1 - i):
            k = samples - i - j
            p = (i * triangle[0] + j * triangle[1] + k * triangle[2]) / samples
            best = max(best, _hessian_norm(lambda q: infinitesimal_rotation_map(r, theta, q), p))
    return best


def _hessian_norm(fn, point, eps=1e-5):
    point = np.asarray(point, dtype=float)
    d = point.size
    total = 0.0
    for comp in range(d):
        h = np.zeros((d, d))
        for a in range(d):
            for b in range(d):
                pa, pb = np.zeros(d), np.zeros(d)
                pa[a] = eps
                pb[b] = eps
                h[a, b] = (
                    fn(point + pa + pb)[comp]
                    - fn(point + pa - pb)[comp]
                    - fn(point - pa + pb)[comp]
                    + fn(point - pa - pb)[comp]
                ) / (4 * eps * eps)
        total += np.linalg.norm(h, 2) ** 2
    return np.sqrt(total)


def annulus_for_h(r, h):
    """Fixture: ``gen_annulus`` with its edge length near h."""
    n_rings = max(2, int(np.ceil((1.0 - r) / h)) + 1)
    n_sectors = max(8, int(np.ceil(2.0 * np.pi / h)))
    return gen_annulus(r, n_rings, n_sectors)


def cavity_arrays(coords, elements, vertex_id, incident_eids):
    """The arrays of the ``LocalSubmesh`` of ``vertex_id`` over the elements
    ``incident_eids``: the vertex's position, the (n, d+1, d) coordinates of
    those elements, and each free slot, found by comparison."""
    nodes = elements[np.asarray(incident_eids)]
    slots = np.nonzero(nodes == vertex_id)[1]
    return np.array(coords[vertex_id]), coords[nodes], slots


def local_submesh(mesh, vertex_id, incident_eids):
    """Fixture: the ``LocalSubmesh`` of :func:`cavity_arrays`."""
    _, elements, slots = cavity_arrays(mesh.coords, mesh.elements, vertex_id, incident_eids)
    return LocalSubmesh.from_arrays(elements, slots)


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


def strictly_inside_hull_highs(center, nbr_coords, tol=1e-12):
    """Does a strictly positive convex combination of ``nbr_coords`` equal
    ``center``?  The primal LP max t s.t. sum w = 1, sum w*(x_j - x_i) = 0,
    w_j >= t, solved by HiGHS; its tolerances are absolute, so the verdict
    holds only for coordinates of order one."""
    from scipy.optimize import linprog

    n = len(nbr_coords)
    rel = nbr_coords - center
    a_eq = np.hstack([np.vstack([np.ones(n), rel.T]), np.zeros((rel.shape[1] + 1, 1))])
    b_eq = np.zeros(rel.shape[1] + 1)
    b_eq[0] = 1.0
    a_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
    res = linprog(
        c=np.append(np.zeros(n), -1.0),
        A_ub=a_ub,
        b_ub=np.zeros(n),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(None, None)] * n + [(None, None)],
        method="highs",
    )
    return res.status == 0 and res.x is not None and res.x[-1] > tol


def random_star(rng, dim, n, kind):
    """A node and ``n`` neighbors in ``dim`` dimensions, drawn by ``rng``.
    The node is a strictly positive convex combination of them
    (``"inside"``), a draw from a box twice the neighbors' (``"outside"``,
    mostly outside their hull), one of them (``"vertex"``) or a point on
    the segment between two of them (``"edge"``)."""
    nbrs = rng.uniform(-1.0, 1.0, (n, dim))
    if kind == "inside":
        center = rng.dirichlet(np.ones(n)) @ nbrs
    elif kind == "outside":
        center = rng.uniform(-2.0, 2.0, dim)
    elif kind == "vertex":
        center = nbrs[rng.integers(n)].copy()
    else:
        i, j = rng.choice(n, 2, replace=False)
        a = rng.uniform()
        center = a * nbrs[i] + (1.0 - a) * nbrs[j]
    return center, nbrs


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


def no_worse(x0, position, value, start):
    """``(position, value, start)``, or ``x0`` with ``start`` twice when the
    LP's value falls short of the current minimum ``start``; positions as
    tuples of floats."""
    if value < start - 1e-12:
        return tuple(x0.tolist()), start, start
    return tuple(np.asarray(position).tolist()), value, start


def maximin_reposition_by_arrays(sub):
    """``untangle.maximin_reposition`` with every LP's terms built by the
    stack kernels below: measure gradients and measures of the whole
    cavity stack, the box from ``np.ptp``.

    The 2D LP of up to ``KERNEL_MAX`` elements goes to
    :func:`nested_dual_maximin_2d`.  Unlike the rest of
    this module it reuses the library's simplex: it pins the float terms of
    the 2D route to the array kernels bit for bit, so it must share the
    rest.  Like the library it returns the position as a tuple of Python
    floats, with the minimum measure there and at the current position.
    """
    idx = np.arange(len(sub.elements))
    grads = stack_measure_gradients(sub.elements)[idx, sub.free_slots]
    meas = stack_measures(sub.elements)
    x0 = sub.position
    radius = BOX_FACTOR * max(np.ptp(sub.elements.reshape(-1, x0.size), axis=0).max(), 1e-12)
    if not np.isfinite(radius):
        return tuple(x0.tolist()), meas.min(), meas.min()
    exact = None
    if x0.size == 2 and len(grads) <= KERNEL_MAX:
        exact = nested_dual_maximin_2d(grads.tolist(), meas.tolist(), radius)
    if exact is None:
        x_new, achieved = _simplex_reposition(grads, meas, x0, radius)
    else:
        u, achieved = exact
        x_new = x0 + u
    return no_worse(x0, x_new, achieved, meas.min())


# The 2D untangle sweep as written before it indexed one flat list of cross
# products, kept the free vertex's moves in Python floats and built its terms
# in Python floats.  Like maximin_reposition_by_arrays these reuse the
# library's array terms and simplex: they pin the 2D route to the old code
# bit for bit.


def array_terms(sub):
    """``untangle._measure_terms`` of the cavity ``sub`` and the box radius
    of ``untangle.maximin_reposition``'s array route, built without numpy
    warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        elements = sub.elements
        ptp = np.ptp(elements.reshape(-1, sub.dim), axis=0).max()
        return (*_measure_terms(elements, sub.slots), BOX_FACTOR * max(ptp, 1e-12))


def nested_best_triple(grads, meas):
    """The dual's first triple of least value ``(value, i, j, l)`` over
    ``combinations``, with ``cross`` as a list of rows indexed
    ``cross[i][j]``; None when no triple's triangle holds the origin."""
    cross = [[ax * by - ay * bx for bx, by in grads] for ax, ay in grads]
    best = None
    for i, j, l in combinations(range(len(grads)), 3):
        wi, wj, wl = cross[j][l], cross[l][i], cross[i][j]
        area = wi + wj + wl
        if area > 0.0:
            if wi < 0.0 or wj < 0.0 or wl < 0.0:
                continue
        elif area < 0.0:
            if wi > 0.0 or wj > 0.0 or wl > 0.0:
                continue
        else:
            continue
        value = (wi * meas[i] + wj * meas[j] + wl * meas[l]) / area
        if best is None or value < best[0]:
            best = (value, i, j, l)
    return best


def nested_dual_maximin_2d(grads, meas, radius):
    """Step ``u`` and value of the exact 2D dual from the triple of
    :func:`nested_best_triple`, or None when there is none, its ``det`` is
    zero, ``u`` leaves the box or the weak-duality certificate fails."""
    best = nested_best_triple(grads, meas)
    if best is None:
        return None
    value, i, j, l = best
    (gx, gy), (hx, hy), (kx, ky) = grads[i], grads[j], grads[l]
    ax, ay, bx, by = gx - kx, gy - ky, hx - kx, hy - ky
    ra, rb = meas[l] - meas[i], meas[l] - meas[j]
    det = ax * by - ay * bx
    if det == 0.0:
        return None
    ux = (ra * by - rb * ay) / det
    uy = (ax * rb - bx * ra) / det
    if not (abs(ux) <= radius and abs(uy) <= radius):
        return None
    achieved = min([px * ux + py * uy + m for (px, py), m in zip(grads, meas)])
    if not achieved >= value - 1e-12 * max(map(abs, meas)):
        return None
    return (ux, uy), achieved


def nested_reposition_2d(sub):
    """A kernel of ``untangle._build_kernel`` on the 2D cavity ``sub``: its
    terms from :func:`array_terms` (``.tolist()``), the dual of
    :func:`nested_dual_maximin_2d` and the step added to the position as an
    array.  Like the kernel it returns the LP's point, value and the
    current minimum without the never-worsen rule."""
    grads, meas, radius = array_terms(sub)
    grads, meas = grads.tolist(), meas.tolist()
    x0 = sub.position
    if not (math.isfinite(radius) and math.isfinite(sum(meas))):
        return tuple(x0.tolist()), np.min(meas), np.min(meas)
    exact = nested_dual_maximin_2d(grads, meas, radius)
    if exact is None:
        return None
    u, achieved = exact
    return tuple((x0 + u).tolist()), achieved, min(meas)


def maximin_reposition_nested(sub):
    """``untangle.maximin_reposition`` with :func:`nested_reposition_2d` as
    its route for 2D cavities of up to ``KERNEL_MAX`` elements, and the
    never-worsen rule of :func:`no_worse` after either route; as in the
    library, a cavity that is not finite or whose simplex overflows keeps
    its vertex."""
    x0 = sub.position
    out = None
    if sub.dim == 2 and len(sub.slots) <= KERNEL_MAX:
        out = nested_reposition_2d(sub)
    if out is None:
        grads, meas, radius = array_terms(sub)
        lp = None
        if math.isfinite(radius) and math.isfinite(meas.sum()):
            with np.errstate(over="ignore", invalid="ignore"):
                lp = _simplex_reposition(grads, meas, x0, radius)
        if lp is None:
            return tuple(x0.tolist()), meas.min(), meas.min()
        out = (*lp, meas.min())
    return no_worse(x0, *out)


def untangle_nested(mesh, max_sweeps=50, on_move=None):
    """``untangle.untangle`` over :func:`maximin_reposition_nested`, on an
    (n, d) coordinate array: each cavity gathered by fancy indexing and
    each move's norm taken from arrays.  ``on_move`` gets the cavity's
    least measure before the move from :func:`stack_measures`, not from
    the reposition."""
    eids, slots = mesh.topology.incidence
    cavities = [
        (vid, mesh.elements[eids[vid]], slots[vid])
        for vid in mesh.interior_ids
        if len(eids[vid])
    ]
    coords = np.array(mesh.coords)
    sweeps = 0
    max_move = np.inf
    while True:
        cur = mesh.with_coords(coords)
        if count_reversals(cur)[0] == 0:
            return cur, sweeps, "SUCCESS"
        if max_move <= STALL_TOL:
            return cur, sweeps, "STALLED"
        if sweeps >= max_sweeps:
            return cur, sweeps, "MAX_SWEEPS"
        max_move = 0.0
        for vid, nodes, free_slots in cavities:
            sub = LocalSubmesh.from_arrays(coords[nodes], free_slots)
            new_pos, after, _ = maximin_reposition_nested(sub)
            if on_move is not None:
                on_move(int(vid), stack_measures(sub.elements).min(), after)
            move = np.subtract(new_pos, coords[vid])
            max_move = max(max_move, math.sqrt(move.dot(move)))
            coords[vid] = new_pos
        sweeps += 1


def weight_residual(weights, coords):
    """Max-norm per axis of [A_I, A_B] @ coords for a WeightSystem and the
    coordinates of the mesh that generated it (0 up to rounding for a
    scheme that reproduces that mesh)."""
    x_i = coords[weights.interior_ids]
    x_b = coords[weights.boundary_ids]
    return np.abs(weights.a_ii @ x_i + weights.a_ib @ x_b).max(axis=0)


# The stack kernels that the per-axis element kernels of femwarp.mesh
# replaced: they take (k, d+1, d) stacks, build (k, C(d+1, 2), d) edge
# stacks and gather vertices by fancy indexing.


def det_measures(pts):
    """Signed measures of stacked simplices, (k, d+1, d) -> (k,): the 2D
    cross product, and ``np.linalg.det(edges) / 6`` in 3D."""
    edges = pts[:, 1:, :] - pts[:, :1, :]
    if pts.shape[2] == 2:
        return 0.5 * (edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0])
    return np.linalg.det(edges) / 6.0


def stack_measures(pts):
    """Signed measures of stacked simplices, (k, d+1, d) -> (k,): the 2D
    cross product, and in 3D the triple product ``e0 . (e1 x e2) / 6``
    summed axis by axis, the float operations of the library's kernel."""
    if pts.shape[2] == 2:
        return det_measures(pts)
    e = pts[:, 1:] - pts[:, :1]
    c = np.cross(e[:, 1], e[:, 2])
    return (e[:, 0, 0] * c[:, 0] + e[:, 0, 1] * c[:, 1] + e[:, 0, 2] * c[:, 2]) / 6.0


# vertices (a, b, c) of the face opposite vertex i, ordered so that
# (b - a) x (c - a) points toward vertex i on a positive tetrahedron
FACES = np.array([[1, 3, 2], [0, 2, 3], [0, 3, 1], [0, 1, 2]])


def stack_measure_gradients(pts):
    """Gradient of each simplex's signed measure with respect to each of its
    vertices, (k, d+1, d) -> (k, d+1, d): in 2D the edge opposite vertex i
    (in cyclic order) rotated by +90 degrees and halved; in 3D the cross
    product of the edges of the face opposite vertex i, over 6."""
    if pts.shape[2] == 2:
        e = pts[:, [2, 0, 1]] - pts[:, [1, 2, 0]]
        return np.stack([-0.5 * e[..., 1], 0.5 * e[..., 0]], axis=-1)
    a, b, c = FACES.T
    return np.cross(pts[:, b] - pts[:, a], pts[:, c] - pts[:, a]) / 6.0


def stack_stiffness(pts):
    """P1 Laplace element matrices ``K_ij = G_i.G_j / meas`` of stacked
    simplices, (k, d+1, d) -> (k, d+1, d+1), with G from
    :func:`stack_measure_gradients` and its Gram matrix accumulated axis by
    axis.  Raises DEGENERATE_ELEMENT at the first simplex whose measure is
    not in (0, inf).  Each simplex is computed on its copy scaled exactly by
    ``2**-e``, e the mean of its largest and smallest nonzero extent's
    exponents, rounded down, but no lower than keeps every coordinate
    finite, and a 3D result is scaled back by ``2**e``."""
    from femwarp.errors import DegenerateElementError

    meas = stack_measures(pts)
    bad = np.flatnonzero(~((meas > 0.0) & (meas < np.inf)))
    if len(bad):
        raise DegenerateElementError(
            f"element {bad[0]} has nonpositive measure",
            element=int(bad[0]),
            measure=float(meas[bad[0]]),
        )
    e = np.zeros(len(pts), dtype=int)
    for i, simplex in enumerate(pts):
        ext = np.ptp(simplex, axis=0)
        low, high = np.frexp([ext[ext > 0.0].min(), ext.max()])[1]
        top = int(np.frexp(np.abs(simplex).max())[1]) - 1024
        e[i] = max((int(low) + int(high)) // 2, top)
    pts = np.ldexp(pts, -e[:, None, None])
    meas = stack_measures(pts)
    g = stack_measure_gradients(pts)
    k = g[:, :, None, 0] * g[:, None, :, 0]
    for ax in range(1, pts.shape[2]):
        k += g[:, :, None, ax] * g[:, None, :, ax]
    return np.ldexp(k / meas[:, None, None], e[:, None, None] * (pts.shape[2] - 2))


def stack_edge_lengths(pts):
    """Edge lengths of stacked simplices, (k, d+1, d) -> (k, d(d+1)/2)."""
    i, j = np.triu_indices(pts.shape[1], 1)
    return np.linalg.norm(pts[:, i] - pts[:, j], axis=2)


def stack_aspect_ratios(pts, meas, longest):
    """Aspect ratios from the norms of the measure gradients: the altitude
    over facet i is |meas| / |G_i|; inf for degenerates."""
    gmax = np.linalg.norm(stack_measure_gradients(pts), axis=2).max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        minalt = np.abs(meas) / gmax
        return np.where(minalt > 0.0, longest / minalt, np.inf)


def stack_inverse_mean_ratios(pts, meas):
    """``||T||_F^2 / (d det(T)^(2/d))`` with T = E inv(E_ref) formed
    explicitly and det(T) = d! meas / det(E_ref); nan unless meas > 0."""
    d = pts.shape[2]
    ref = (REGULAR_SIMPLEX[d][1:] - REGULAR_SIMPLEX[d][0]).T
    edges = np.transpose(pts[:, 1:] - pts[:, :1], (0, 2, 1))
    t = edges @ np.linalg.inv(ref)
    frob2 = (t * t).sum(axis=(1, 2))
    with np.errstate(invalid="ignore", divide="ignore"):
        det = meas * (factorial(d) / np.linalg.det(ref))
        return frob2 / (d * np.where(det > 0, det, np.nan) ** (2.0 / d))


def stack_quality_report(mesh):
    """``mesh.quality_report`` computed by the stack kernels above."""
    from femwarp.mesh import NEAR_DEGENERATE_FACTOR, QualityReport

    pts = mesh.coords[mesh.elements]
    meas = det_measures(pts)
    longest = stack_edge_lengths(pts).max(axis=1)
    h = longest.max()
    aspects = stack_aspect_ratios(pts, meas, longest)
    imrs = stack_inverse_mean_ratios(pts, meas)
    imrs = imrs[~np.isnan(imrs)]
    imr = (imrs.min(), imrs.max(), imrs.mean()) if imrs.size else (np.nan,) * 3
    return QualityReport(
        min_measure=float(meas.min()),
        max_measure=float(meas.max()),
        mean_measure=float(meas.mean()),
        min_aspect=float(aspects.min()),
        max_aspect=float(aspects.max()),
        mean_aspect=float(aspects.mean()),
        min_imr=float(imr[0]),
        max_imr=float(imr[1]),
        mean_imr=float(imr[2]),
        reversal_count=int((~(meas > 0.0)).sum()),
        near_degenerate_count=int(
            ((meas > 0.0) & (meas < NEAR_DEGENERATE_FACTOR * h**mesh.dim)).sum()
        ),
        h=float(h),
    )


def affine_by_point(base, matrix, shift):
    """L x + v of each row of ``base``, one point at a time in Python floats,
    each sum over the axes in axis order: no BLAS call."""
    matrix = np.asarray(matrix, dtype=float).tolist()
    shift = np.asarray(shift, dtype=float).tolist()
    out = []
    for p in np.asarray(base, dtype=float).tolist():
        row = []
        for m, v in zip(matrix, shift):
            acc = m[0] * p[0]
            for mk, pk in zip(m[1:], p[1:]):
                acc += mk * pk
            row.append(acc + v)
        out.append(row)
    return np.array(out)


def affine_blend(base, matrix, shift, t):
    """The affine motion as blended before it was a one-frame tabulated
    motion: (1-t) x + t (L x + v), with L x + v from :func:`affine_by_point`."""
    return (1.0 - t) * base + t * affine_by_point(base, matrix, shift)


def shear_blend(base, alpha, t):
    """The rectangle shear motion as written out before: y gains
    t*alpha*x*(2-x)."""
    out = base.copy()
    out[:, 1] += t * alpha * base[:, 0] * (2.0 - base[:, 0])
    return out


NONLINEAR3D_L = np.array([[2.0, -1.0, 0.0], [-2.0, 5.0, 0.0], [0.0, 0.0, 1.0]])


def nonlinear3d_blend(base, alpha, t):
    """The 3D stress motion as written out before: the linear part blended
    (1-t)I + tL, the quadratic part scaled by t*alpha.  The blend is applied
    as a sum over columns, not a matrix product, whose last bits depend on
    the BLAS build and the row count."""
    blend = (1.0 - t) * np.eye(3) + t * NONLINEAR3D_L
    x, y, z = base[:, 0], base[:, 1], base[:, 2]
    linear = np.column_stack([b[0] * x + b[1] * y + b[2] * z for b in blend])
    quad = np.column_stack([0.1 * x * y, 0.5 * y * z, 0.1 * x * x])
    return linear + (t * alpha) * quad
