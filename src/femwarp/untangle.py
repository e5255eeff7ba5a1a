"""Maximin mesh untangler and the warp/untangle hybrid.

Each interior vertex is repositioned at the point maximizing the minimum
signed measure of its incident elements (Freitag & Plassmann, IJNME 2000).
The measure of each incident element is affine in the free vertex, so the
reposition is a tiny linear program.  In 2D its coefficients are built in
Python floats and it is solved exactly from its dual: the optimal basis is
a triple of measure gradients whose triangle holds the origin, and the
primal point it yields is accepted only with a weak-duality certificate.
A vertex whose cavity's box radius or measure sum is not finite (non-finite
or overflowing geometry) stays in place.  Every other case (3D, an LP that
only the feasibility box bounds, a failed certificate) builds its
coefficients with the batched array kernels and goes to a dense simplex
with Bland's rule.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import UnboundedLPError
from .mesh import _geometry, _gradients, count_reversals
from .warp import femwarp_step, warp_report

BOX_FACTOR = 10.0
STALL_TOL = 1e-12


@dataclass
class LocalSubmesh:
    """A free vertex and its incident elements.

    ``position`` is the free vertex's coordinates; ``elements`` holds the
    vertex coordinates of each incident simplex as a (n, d+1, d) array;
    ``free_slots[i]`` identifies the free vertex's position in tuple i.
    """

    position: np.ndarray
    elements: np.ndarray
    free_slots: np.ndarray


def _measure_terms(sub):
    """Gradients G and measures m of the cavity's elements at the current
    position, so that measure_i(position + u) = G[i] @ u + m[i].

    Exact by linearity: the gradient with respect to the free vertex is that
    vertex's row of the measure gradients, which does not depend on it.
    """
    cols = np.moveaxis(sub.elements, 2, 0)
    idx = np.arange(len(sub.elements))
    grads = np.moveaxis(_gradients(cols), 0, 2)[idx, sub.free_slots]
    return grads, _geometry(cols)[0]


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


# the triple tables of cavities of up to this many elements, built once; a
# table has n**3 / 6 rows, so a larger cavity's rows are generated per call
TRIPLES_KEPT = 24
_TRIPLES = {}


def _triples(n):
    """The triples ``i < j < l`` of ``range(n)`` in ``combinations`` order,
    each as ``(j*n+l, l*n+i, i*n+j, i, j, l)``: the flat indices of the
    cross products :func:`_dual_maximin_2d` reads, then the triple."""
    table = _TRIPLES.get(n)
    if table is None:
        table = (
            (j * n + l, l * n + i, i * n + j, i, j, l) for i, j, l in combinations(range(n), 3)
        )
        if n <= TRIPLES_KEPT:
            table = _TRIPLES[n] = tuple(table)
    return table


def _dual_maximin_2d(grads, meas, radius):
    """Exact step ``u`` and value of max_u min_i(G_i @ u + m_i) in 2D, from
    the LP's dual, or None when this cannot certify the optimum.

    ``grads`` and ``meas`` are lists of Python floats.  The dual is
    min sum(l_i m_i) subject to sum(l_i G_i) = 0, sum(l_i) = 1, l >= 0; its
    optimal basis is a triple of gradients whose triangle holds the origin,
    with l the origin's barycentric coordinates.  The triple's three
    constraints meet at ``u``.  It is returned only if it lies in the box
    ``|u_j| <= radius`` and its minimum over all constraints reaches the dual
    value within 1e-12 of the largest ``|m_i|``, which by weak duality
    proves it optimal to that tolerance.
    """
    # cross[i*n+j] = G_i x G_j, so the triangle (i, j, l) has doubled signed
    # area cross[i*n+j] + cross[j*n+l] + cross[l*n+i] and the origin's
    # barycentric coordinates are (cross[j*n+l], cross[l*n+i], cross[i*n+j])
    # over it
    cross = [ax * by - ay * bx for ax, ay in grads for bx, by in grads]
    best = None
    for jl, li, ij, i, j, l in _triples(len(grads)):
        wi, wj, wl = cross[jl], cross[li], cross[ij]
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
    if best is None:
        return None  # the gradients do not surround the origin
    value, i, j, l = best
    (gx, gy), (hx, hy), (kx, ky) = grads[i], grads[j], grads[l]
    # (G_i - G_l) @ u = m_l - m_i and (G_j - G_l) @ u = m_l - m_j
    ax, ay, bx, by = gx - kx, gy - ky, hx - kx, hy - ky
    ra, rb = meas[l] - meas[i], meas[l] - meas[j]
    det = ax * by - ay * bx
    if det == 0.0:
        return None
    ux = (ra * by - rb * ay) / det
    uy = (ax * rb - bx * ra) / det
    # written so that a nan (an overflow of the dual value or of u) fails
    if not (abs(ux) <= radius and abs(uy) <= radius):
        return None
    achieved = min([px * ux + py * uy + m for (px, py), m in zip(grads, meas)])
    # the optimum is a small difference of the cavity's measures, so the
    # rounding of each G_i @ u + m_i scales with the largest |m_i|
    if not achieved >= value - 1e-12 * max(map(abs, meas)):
        return None
    return (ux, uy), achieved


def _simplex_reposition(grads, meas, x0, radius):
    """Maximin point over the box ``|x - x0|_inf <= radius`` and its value,
    by the dense simplex; ``(grads, meas)`` as from :func:`_measure_terms`
    at ``x0``."""
    consts = meas - grads @ x0  # measure_i(x) = G[i] @ x + consts[i]
    d = x0.size
    lo = x0 - radius
    hi = x0 + radius
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
    return x_new, (grads @ x_new + consts).min()


def _float_terms_2d(flat, slots):
    """Gradients, measures and box radius of a 2D cavity in Python floats.

    ``flat`` is the cavity's ``elements`` raveled to a list and ``slots``
    its free slots as a list.  The float operations are those of
    :func:`_measure_terms` (the kernels ``mesh._gradients`` and
    ``mesh._geometry``) and of the box in :func:`maximin_reposition`, in the
    same order, so every value equals theirs to the bit.
    """
    it = iter(flat)
    grads = []
    meas = []
    for (x0, y0, x1, y1, x2, y2), s in zip(zip(it, it, it, it, it, it), slots):
        # row s of the measure gradients: the edge p[s+2] - p[s+1] (indices
        # mod 3) rotated by +90 degrees and halved
        if s == 0:
            ex, ey = x2 - x1, y2 - y1
        elif s == 1:
            ex, ey = x0 - x2, y0 - y2
        else:
            ex, ey = x1 - x0, y1 - y0
        grads.append((-0.5 * ey, 0.5 * ex))
        meas.append(0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)))
    xs, ys = flat[0::2], flat[1::2]
    radius = BOX_FACTOR * max(max(xs) - min(xs), max(ys) - min(ys), 1e-12)
    return grads, meas, radius


def maximin_reposition(sub):
    """Optimal position for the free vertex: maximize the minimum signed
    measure over incident elements.

    A feasibility box of ``BOX_FACTOR`` times the cavity diameter around the
    current position keeps the LP bounded for boundary-incomplete cavities.
    2D cavities are solved exactly from the LP's dual, on terms from
    :func:`_float_terms_2d`, when that yields a certified optimum inside
    the box; all others by the simplex, on terms from :func:`_measure_terms`.
    Never worsens: if the LP result does not beat the current minimum, the
    vertex stays in place, as it does in a cavity whose box radius or
    measure sum is not finite.
    """
    x0 = sub.position
    if x0.size == 2:
        grads, meas, radius = _float_terms_2d(
            sub.elements.ravel().tolist(), sub.free_slots.tolist()
        )
        # a nan or inf coordinate makes the measure of each triangle holding
        # it non-finite (Python's max and min may skip a nan, so the box
        # alone cannot tell), and so does an overflow: such a cavity stays,
        # valued by numpy's min, which keeps a nan
        if not (math.isfinite(radius) and math.isfinite(sum(meas))):
            return np.array(x0), np.min(meas)
        exact = _dual_maximin_2d(grads, meas, radius)
        if exact is not None:
            (ux, uy), achieved = exact
            # _no_worse on Python floats
            if achieved < min(meas) - 1e-12:
                return np.array(x0), min(meas)
            px, py = x0.tolist()
            return np.array([px + ux, py + uy]), achieved
    # the same rule on the array terms, built without warnings on the
    # non-finite or overflowing cavities that it exists to keep in place
    with np.errstate(over="ignore", invalid="ignore"):
        grads, meas = _measure_terms(sub)
        pts = sub.elements.reshape(-1, x0.size)
        radius = BOX_FACTOR * max(np.ptp(pts, axis=0).max(), 1e-12)
        if not (math.isfinite(radius) and math.isfinite(meas.sum())):
            return np.array(x0), meas.min()
    x_new, achieved = _simplex_reposition(grads, meas, x0, radius)
    return _no_worse(x0, x_new, achieved, meas.min())


def _no_worse(x0, x_new, achieved, current_min):
    """``(x_new, achieved)``, or ``x0`` and its value when the LP result
    falls short of the current minimum."""
    if achieved < current_min - 1e-12:
        return np.array(x0), current_min
    return x_new, achieved


def untangle(mesh, max_sweeps=50, on_move=None):
    """Sweep the interior vertices (ascending id) with maximin repositioning.

    Stops with SUCCESS when no reversals remain, STALLED when a whole sweep
    moves nothing beyond 1e-12, or MAX_SWEEPS.  Boundary nodes never move,
    nor does an interior node in no element.
    ``on_move`` (if given) is called with (vertex_id, min_before, min_after)
    after each repositioning.
    """
    eids, slots = mesh.topology.incidence
    cavities = [
        (int(vid), mesh.elements[eids[vid]], slots[vid])
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
            # the row itself: it is read before it is overwritten below
            position = coords[vid]
            sub = LocalSubmesh(position, coords.take(nodes, axis=0), free_slots)
            new_pos, after = maximin_reposition(sub)
            if on_move is not None:
                on_move(vid, _measure_terms(sub)[1].min(), after)
            max_move = max(max_move, math.dist(new_pos.tolist(), position.tolist()))
            coords[vid] = new_pos
        sweeps += 1


def hybrid_warp(mesh, weights, target_boundary, max_sweeps=50):
    """One-shot warp followed, on reversal, by untangling of the warped
    (not the original) mesh.  Returns the better of the two: the one-shot
    mesh and report when the untangled mesh has more reversals."""
    warped, report = femwarp_step(mesh, weights, target_boundary)
    if report.success:
        return warped, report
    fixed, _, outcome = untangle(warped, max_sweeps=max_sweeps)
    # untangle's exit check has just counted a SUCCESS mesh's reversals: 0
    nrev = 0 if outcome == "SUCCESS" else count_reversals(fixed)[0]
    if nrev > report.reversals:
        return warped, report
    return fixed, warp_report(fixed, nrev, report.n_factorizations, report.steps)
