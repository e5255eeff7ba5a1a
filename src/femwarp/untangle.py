"""Maximin mesh untangler and the warp/untangle hybrid.

Each interior vertex is repositioned at the point maximizing the minimum
signed measure of its incident elements.  The measure of each incident
element is affine in the free vertex, so the reposition is a tiny linear
program solved by a dense simplex with Bland's rule.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UnboundedLPError
from .mesh import count_reversals, measure_gradients, simplex_measures
from .warp import femwarp_step, warp_report

BOX_FACTOR = 10.0
STALL_TOL = 1e-12


@dataclass
class LocalSubmesh:
    """A free vertex and its incident elements.

    ``elements`` holds the vertex coordinates of each incident simplex as a
    (n, d+1, d) array; ``free_slots[i]`` identifies the free vertex's
    position in tuple i.
    """

    free_id: int
    position: np.ndarray
    elements: np.ndarray
    free_slots: np.ndarray


def local_submesh(mesh, vertex_id, incident_eids):
    return _submesh_from_arrays(
        mesh.coords, mesh.elements, vertex_id, np.asarray(incident_eids)
    )


def _submesh_from_arrays(coords, element_array, vertex_id, eids):
    nodes = element_array[eids]  # (n, d+1)
    rows, slots = np.nonzero(nodes == vertex_id)
    order = np.argsort(rows)
    return LocalSubmesh(
        int(vertex_id),
        np.array(coords[vertex_id]),
        np.array(coords[nodes]),
        slots[order],
    )


def _affine_measure_coeffs(sub):
    """Coefficients (G, c) with measure_i(x) = G[i] @ x + c[i].

    Exact by linearity: the gradient with respect to the free vertex is that
    vertex's row of the measure gradients, which does not depend on it.
    """
    idx = np.arange(len(sub.elements))
    grads = measure_gradients(sub.elements)[idx, sub.free_slots]
    return grads, simplex_measures(sub.elements) - grads @ sub.position


def _simplex_maximize(c, a_ub, b_ub, max_iter=10000):
    """max c@x s.t. a_ub@x <= b_ub, x >= 0, with b_ub >= 0.

    Dense tableau simplex with Bland's rule (deterministic, cycle-free).
    Returns the optimal x.
    """
    m, n = a_ub.shape
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a_ub
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b_ub
    tableau[m, :n] = -np.asarray(c, dtype=float)
    basis = list(range(n, n + m))
    for _ in range(max_iter):
        row = tableau[m, : n + m]
        neg = np.flatnonzero(row < -1e-12)
        if not len(neg):
            break
        entering = int(neg[0])  # Bland: smallest improving index
        col = tableau[:m, entering]
        mask = col > 1e-12
        if not mask.any():
            raise UnboundedLPError("LP is unbounded")
        ratios = np.full(m, np.inf)
        ratios[mask] = tableau[:m, -1][mask] / col[mask]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + 1e-15)
        leave = int(min(ties, key=lambda i: basis[i]))  # Bland tie-break
        pivot = tableau[leave, entering]
        tableau[leave] /= pivot
        colvals = tableau[:, entering].copy()
        colvals[leave] = 0.0
        tableau -= np.outer(colvals, tableau[leave])
        basis[leave] = entering
    x = np.zeros(n + m)
    for i, bv in enumerate(basis):
        x[bv] = tableau[i, -1]
    return x[:n]


def maximin_reposition(sub, box_factor=BOX_FACTOR):
    """Optimal position for the free vertex: maximize the minimum signed
    measure over incident elements.

    A feasibility box of ``box_factor`` times the cavity diameter around the
    current position keeps the LP bounded for boundary-incomplete cavities.
    Never worsens: if the LP result does not beat the current minimum, the
    vertex stays in place.
    """
    grads, consts = _affine_measure_coeffs(sub)
    x0 = sub.position
    d = x0.size
    pts = sub.elements.reshape(-1, d)
    diam = max(np.ptp(pts, axis=0).max(), 1e-12)
    radius = box_factor * diam
    lo = x0 - radius
    hi = x0 + radius

    current_min = (grads @ x0 + consts).min()
    # affine functions attain extremes at box corners; anchoring the level
    # variable at the minimum over the lo corner keeps the slack basis
    # feasible without cutting off the optimum
    t_lo = (grads @ lo + consts).min()

    # variables: u = x - lo in [0, hi-lo], tv = t - t_lo >= 0
    n = len(grads)
    a_ub = np.zeros((n + d, d + 1))
    b_ub = np.zeros(n + d)
    a_ub[:n, :d] = -grads
    a_ub[:n, d] = 1.0
    b_ub[:n] = grads @ lo + consts - t_lo
    a_ub[n:, :d] = np.eye(d)
    b_ub[n:] = hi - lo
    obj = np.zeros(d + 1)
    obj[d] = 1.0
    sol = _simplex_maximize(obj, a_ub, b_ub)
    x_new = lo + sol[:d]
    achieved = (grads @ x_new + consts).min()
    if achieved < current_min - 1e-12:
        return np.array(x0), current_min
    return x_new, achieved


def vertex_to_elements(mesh):
    """Ascending ids of the elements incident to each node."""
    flat = mesh.elements.ravel()
    first = np.cumsum(np.bincount(flat, minlength=mesh.n_nodes))[:-1]
    return np.split(np.argsort(flat, kind="stable") // (mesh.dim + 1), first)


def untangle(mesh, max_sweeps=50, on_move=None):
    """Sweep the interior vertices (ascending id) with maximin repositioning.

    Stops with SUCCESS when no reversals remain, STALLED when a whole sweep
    moves nothing beyond 1e-12, or MAX_SWEEPS.  Boundary nodes never move.
    ``on_move`` (if given) is called with (vertex_id, min_before, min_after)
    after each repositioning.
    """
    incident = vertex_to_elements(mesh)
    coords = np.array(mesh.coords)
    elements = mesh.elements
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
        for vid in mesh.interior_ids:
            sub = _submesh_from_arrays(coords, elements, vid, incident[vid])
            new_pos, after = maximin_reposition(sub)
            if on_move is not None:
                on_move(int(vid), simplex_measures(sub.elements).min(), after)
            max_move = max(max_move, np.linalg.norm(new_pos - coords[vid]))
            coords[vid] = new_pos
        sweeps += 1


def hybrid_warp(mesh, weights, target_boundary, max_sweeps=50):
    """One-shot warp followed, on reversal, by untangling of the warped
    (not the original) mesh."""
    warped, report = femwarp_step(mesh, weights, target_boundary)
    if report.success:
        return warped, report
    fixed, _, outcome = untangle(warped, max_sweeps=max_sweeps)
    # untangle's exit check has just counted a SUCCESS mesh's reversals: 0
    nrev = 0 if outcome == "SUCCESS" else count_reversals(fixed)[0]
    return fixed, warp_report(fixed, nrev, report.n_factorizations, report.steps)
