"""Maximin mesh untangler and the warp/untangle hybrid.

Each interior vertex is repositioned at the point maximizing the minimum
signed measure of its incident elements (Freitag & Plassmann, IJNME 2000).
The measure of each incident element is affine in the free vertex, so the
reposition is a tiny linear program, which takes one of two routes.  A 2D
cavity of up to ``KERNEL_MAX`` elements runs a kernel of straight-line code,
compiled once per size, that builds the coefficients in Python floats and
solves the LP exactly from its dual, accepting the primal point only with a
weak-duality certificate.  Every other cavity, 3D or larger, and every one
the dual declines (an LP that only the feasibility box bounds, a failed
certificate) builds its coefficients with the batched array kernels and
goes to a dense simplex with Bland's rule.  On both routes a vertex whose
cavity's box radius or measure sum is not finite (non-finite or overflowing
geometry) stays in place, as does one whose simplex overflows.

A sweep keeps the coordinates as one flat list of Python floats, in 2D and
in 3D.  Each cavity is one :class:`LocalSubmesh` per call of
:func:`untangle`, whose ``flat`` is a tuple gathered from that list anew
each sweep and whose arrays are built only when read, and every route of
:func:`maximin_reposition` returns the new position as a tuple of Python
floats, which the sweep writes back: no numpy scalar enters the list.
"""

import math
from dataclasses import replace
from itertools import combinations
from operator import itemgetter

import numpy as np

from .mesh import _dot, _geometry, _gradients, count_reversals
from .solve import _simplex_maximize
from .warp import femwarp_step, warp_report

BOX_FACTOR = 10.0
STALL_TOL = 1e-12


class LocalSubmesh:
    """A free vertex and its incident elements, held in Python values.

    ``flat`` is the vertex coordinates of each incident simplex raveled in
    (element, vertex, axis) order, a sequence of Python floats;
    ``slots[i]`` is the free vertex's position in simplex i, and ``dim``
    the dimension d.  ``point`` is the free vertex's coordinates in the
    first simplex, a tuple of d floats.  The arrays are built each time
    they are read: ``elements`` as (n, d+1, d), ``free_slots`` and
    ``position``, ``point`` as an array.

    :func:`untangle` builds one per cavity per call and assigns each
    sweep's coordinates to ``flat`` before it repositions the vertex, so a
    caller that must keep a cavity's coordinates past that call copies
    ``flat``; the object itself is not to be kept across calls.
    """

    __slots__ = ("flat", "slots", "dim")

    def __init__(self, flat, slots, dim):
        self.flat = flat
        self.slots = slots
        self.dim = dim

    @classmethod
    def from_arrays(cls, elements, free_slots):
        """The submesh of an (n, d+1, d) coordinate stack and its free slots."""
        elements = np.asarray(elements, dtype=float)
        return cls(elements.ravel().tolist(), np.asarray(free_slots).tolist(), elements.shape[2])

    @property
    def point(self):
        k = self.dim * self.slots[0]
        return tuple(self.flat[k : k + self.dim])

    @property
    def position(self):
        return np.array(self.point)

    @property
    def elements(self):
        return np.array(self.flat).reshape(len(self.slots), self.dim + 1, self.dim)

    @property
    def free_slots(self):
        return np.array(self.slots, dtype=np.intp)


def _measure_terms(elements, slots):
    """Gradients G and measures m of a cavity's (n, d+1, d) coordinate stack
    ``elements`` whose free vertex sits in slot ``slots[i]`` of element i,
    so that measure_i(position + u) = G[i] @ u + m[i].

    Exact by linearity: the gradient with respect to the free vertex is that
    vertex's row of the measure gradients, which does not depend on it.
    """
    cols = np.moveaxis(elements, 2, 0)
    grads = np.moveaxis(_gradients(cols), 0, 2)[np.arange(len(elements)), slots]
    return grads, _geometry(cols)[0]


def _simplex_reposition(grads, meas, x0, radius):
    """Maximin point over the box ``|x - x0|_inf <= radius`` and its value,
    by the dense simplex; ``(grads, meas)`` as from :func:`_measure_terms`
    at ``x0``.  Each product with ``grads`` is written out axis by axis,
    not as a matrix product, so its bits do not depend on the BLAS build.
    None when the LP overflows (its tableau, or the value at its point):
    its terms may overflow where the cavity's are finite."""
    d = x0.size
    consts = meas - _dot(grads.T, x0)  # measure_i(x) = G[i] @ x + consts[i]
    lo = x0 - radius
    hi = x0 + radius
    # affine functions attain extremes at box corners; anchoring the level
    # variable at the minimum over the lo corner keeps the slack basis
    # feasible without cutting off the optimum
    t_lo = (_dot(grads.T, lo) + consts).min()

    # variables: u = x - lo in [0, hi-lo], tv = t - t_lo >= 0
    n = len(grads)
    a_ub = np.zeros((n + d, d + 1))
    b_ub = np.zeros(n + d)
    a_ub[:n, :d] = -grads
    a_ub[:n, d] = 1.0
    b_ub[:n] = _dot(grads.T, lo) + consts - t_lo
    a_ub[n:, :d] = np.eye(d)
    b_ub[n:] = hi - lo
    obj = np.zeros(d + 1)
    obj[d] = 1.0
    sol = _simplex_maximize(obj, a_ub, b_ub)
    if sol is None:
        return None
    x_new = lo + sol[:d]
    value = (_dot(grads.T, x_new) + consts).min()
    return (x_new, value) if math.isfinite(value) else None


# the two routes of maximin_reposition: a 2D cavity of up to this many
# elements runs its kernel of straight-line code, built on first use for its
# size and kept, and every other cavity the simplex; a kernel's source and
# build time grow as n**3, and the cap is the largest size that builds in
# 10 ms or less on one core of a 2-vCPU Xeon (medians of 5 builds, Python
# 3.11: about 2.5 ms at 6, 7.8-7.9 ms at 9, 10.7-11.0 ms at 10)
KERNEL_MAX = 9
_KERNELS = {}


def _build_kernel(n):
    """The exact 2D route of :func:`maximin_reposition` for cavities of
    ``n`` elements, as one straight-line function ``kernel(flat, slots)`` of
    a cavity's coordinates and free slots (as in :class:`LocalSubmesh`),
    compiled, kept in ``_KERNELS`` and returned.

    Its gradients and measures are built by the operations of
    :func:`_measure_terms`, in the same order, so each equals theirs to the
    bit.  The LP's dual is
    min sum(l_i m_i) subject to sum(l_i G_i) = 0, sum(l_i) = 1, l >= 0; its
    optimal basis is a triple of gradients whose triangle holds the origin,
    with l the origin's barycentric coordinates, and the first triple of
    least value in ``combinations`` order wins.  Its three constraints meet
    at the step ``u``, taken only if it lies in the box ``|u_j| <= radius``
    and its minimum over all constraints reaches the dual value within
    1e-12 of the largest ``|m_i|``, which by weak duality proves it optimal
    to that tolerance.

    The box radius is that of the simplex route, but the kernel scans the
    coordinates for it only where a bound cannot decide.  A nan or inf
    coordinate makes the measure of each triangle holding it non-finite, so
    a finite measure sum shows every coordinate finite, and then
    ``hypot(*flat) <= 8e306`` bounds each |coordinate| by 8e306, the
    extent by 1.6e307 and so the radius, 10 times it, below the largest
    float.  The step is first compared with ``lb``, ``BOX_FACTOR`` times the
    larger component of element 0's opposite edge (or 1e-12): each component
    is a difference of two cavity coordinates, and rounding is monotone, so
    ``lb`` is never above the radius, and a step inside ``lb`` is inside
    the box.

    The kernel returns ``(position, value, start)``: the moved point as a
    tuple of two Python floats and the minimum measure there and at the
    current point, or the current point when the cavity is not finite; the
    caller applies the never-worsen rule.  It returns None when the dual
    declines (no triple holds the origin, a zero ``det``, a step outside
    the box or a failed certificate), which leaves the cavity to the simplex.

    The coordinates (``xE_K``, ``yE_K`` of corner K of element E), opposite
    edges (``exE``, ``eyE``), gradients (``gxE``, ``gyE``), measures
    (``mE``) and the cross products that the triples read (``cJ_L`` holds
    G_J x G_L) are locals; ``max``, ``min`` and ``sum`` take them, or the
    x and y slices of ``flat`` for the box, in element order.  Each triple,
    in ``combinations`` order, is one ``if`` block.  It tests the signs
    first: the origin's three barycentric weights all ``>= 0`` or all
    ``<= 0``, and then their sum, the doubled area, not zero.  That accepts
    the triples that a test of the area's sign followed by a test for a
    weight of the other sign accepts: weights that are not nan and share a
    sign sum to that sign, and to zero only when all are zero, while a nan
    weight fails every comparison and would make the area nan.  The block
    then forms the value by the same operations in the same order, and an
    improving triple records the value and its three gradients and measures
    as one tuple ``best``, which the tail unpacks once; ties keep the first
    triple.  The source is built from integers alone.
    """
    els = range(n)
    ms = ", ".join(f"m{e}" for e in els)
    # the x coordinates are flat[::2] and the y coordinates flat[1::2]
    extents = "max(flat[::2]) - min(flat[::2]), max(flat[1::2]) - min(flat[1::2])"
    radius = f"BOX_FACTOR * max({extents}, 1e-12)"
    lines = [
        "def kernel(flat, slots):",
        f"    [{', '.join(f'x{e}_{k}, y{e}_{k}' for e in els for k in range(3))}] = flat",
        f"    [{', '.join(f's{e}' for e in els)}] = slots",
        "    px, py = flat[2 * s0], flat[2 * s0 + 1]",
    ]
    for e in els:
        # row s of the measure gradients: the edge p[s+2] - p[s+1] (indices
        # mod 3) rotated by +90 degrees and halved
        edges = [f"x{e}_{b} - x{e}_{a}, y{e}_{b} - y{e}_{a}" for a, b in ((1, 2), (2, 0), (0, 1))]
        lines += [
            f"    if s{e} == 0:",
            f"        ex{e}, ey{e} = {edges[0]}",
            f"    elif s{e} == 1:",
            f"        ex{e}, ey{e} = {edges[1]}",
            "    else:",
            f"        ex{e}, ey{e} = {edges[2]}",
            f"    gx{e}, gy{e} = -0.5 * ey{e}, 0.5 * ex{e}",
            f"    m{e} = 0.5 * ((x{e}_1 - x{e}_0) * (y{e}_2 - y{e}_0)"
            f" - (y{e}_1 - y{e}_0) * (x{e}_2 - x{e}_0))",
        ]
    terms = [f"gx{e}, gy{e}, m{e}" for e in els]
    triples = list(combinations(els, 3))
    pairs = sorted({p for i, j, l in triples for p in ((j, l), (l, i), (i, j))})
    # a cavity that is not finite (Python's max and min may skip a nan, so
    # the box alone cannot tell) stays, valued by numpy's min, which keeps a
    # nan
    lines += [
        f"    if not (isfinite(sum(({ms},))) and (hypot(*flat) <= 8e306 or isfinite({radius}))):",
        f"        least = npmin([{ms}])",
        "        return (px, py), least, least",
        *(f"    c{a}_{b} = gx{a} * gy{b} - gy{a} * gx{b}" for a, b in pairs),
        "    v = None",
    ]
    # the triangle (i, j, l) has doubled signed area cJ_L + cL_I + cI_J, and
    # the origin's barycentric coordinates are (cJ_L, cL_I, cI_J) over it
    for i, j, l in triples:
        wi, wj, wl = f"c{j}_{l}", f"c{l}_{i}", f"c{i}_{j}"
        lines += [
            f"    if ({wi} >= 0.0 and {wj} >= 0.0 and {wl} >= 0.0"
            f" or {wi} <= 0.0 and {wj} <= 0.0 and {wl} <= 0.0)"
            f" and (area := {wi} + {wj} + {wl}) != 0.0:",
            f"        value = ({wi} * m{i} + {wj} * m{j} + {wl} * m{l}) / area",
            "        if v is None or value < v:",
            f"            v, best = value, ({terms[i]}, {terms[j]}, {terms[l]})",
        ]
    # below three elements there is no triple, and v stays None; the step
    # solves (G_i - G_l) @ u = m_l - m_i and (G_j - G_l) @ u = m_l - m_j, and
    # since the optimum is a small difference of the cavity's measures, the
    # rounding of each G_e @ u + m_e scales with the largest |m_e|
    lines += [
        "    if v is None:",
        "        return None",
        "    gxi, gyi, mi, gxj, gyj, mj, gxl, gyl, ml = best",
        "    ax, ay = gxi - gxl, gyi - gyl",
        "    bx, by = gxj - gxl, gyj - gyl",
        "    ra, rb = ml - mi, ml - mj",
        "    det = ax * by - ay * bx",
        "    if det == 0.0:",
        "        return None",
        "    ux = (ra * by - rb * ay) / det",
        "    uy = (ax * rb - bx * ra) / det",
        "    lb = BOX_FACTOR * max(ex0, -ex0, ey0, -ey0, 1e-12)",
        "    if not (abs(ux) <= lb and abs(uy) <= lb):",
        f"        radius = {radius}",
        "        if not (abs(ux) <= radius and abs(uy) <= radius):",
        "            return None",
        f"    achieved = min({', '.join(f'gx{e} * ux + gy{e} * uy + m{e}' for e in els)})",
        f"    least = min({ms})",
        f"    if not achieved >= v - 1e-12 * max({ms}, -least):",
        "        return None",
        "    return (px + ux, py + uy), achieved, least",
    ]
    namespace = {
        "BOX_FACTOR": BOX_FACTOR,
        "hypot": math.hypot,
        "isfinite": math.isfinite,
        "npmin": np.min,
    }
    exec(compile("\n".join(lines), f"<maximin kernel n={n}>", "exec"), namespace)
    kernel = _KERNELS[n] = namespace["kernel"]
    return kernel


def maximin_reposition(sub):
    """Optimal position for the free vertex of the :class:`LocalSubmesh`
    ``sub``: maximize the minimum signed measure over incident elements.

    A feasibility box of ``BOX_FACTOR`` times the cavity diameter around the
    current position keeps the LP bounded for boundary-incomplete cavities.
    Two routes: a 2D cavity of up to ``KERNEL_MAX`` elements runs its
    kernel of :func:`_build_kernel`, the exact dual; every other cavity, and
    every one the kernel declines, goes to the simplex on the terms of
    :func:`_measure_terms`.  Both give ``(position, value, start)``, the
    minimum measure at the position and at the current point, and one
    never-worsen rule follows: a value more than 1e-12 below ``start``
    keeps the vertex in place, as does a cavity whose box radius or measure
    sum is not finite or whose simplex overflows.  Returns that triple, the
    position a tuple of d floats.
    """
    flat, slots, d = sub.flat, sub.slots, sub.dim
    out = None
    if d == 2 and (n := len(slots)) <= KERNEL_MAX:
        out = (_KERNELS.get(n) or _build_kernel(n))(flat, slots)
    if out is None:
        # built without warnings on the cavities that stay in place: those
        # that are not finite, and those whose LP overflows
        with np.errstate(over="ignore", invalid="ignore"):
            elements = sub.elements
            grads, meas = _measure_terms(elements, slots)
            radius = BOX_FACTOR * max(np.ptp(elements.reshape(-1, d), axis=0).max(), 1e-12)
            start = meas.min()
            lp = None
            if math.isfinite(radius) and math.isfinite(meas.sum()):
                lp = _simplex_reposition(grads, meas, np.array(sub.point), radius)
        if lp is None:
            return sub.point, start, start
        out = tuple(lp[0].tolist()), lp[1], start
    _, value, start = out
    if value < start - 1e-12:
        return sub.point, start, start
    return out


def untangle(mesh, max_sweeps=50, on_move=None):
    """Sweep the interior vertices (ascending id) with maximin repositioning.

    Stops with SUCCESS when no reversals remain, STALLED when a whole sweep
    moves nothing beyond 1e-12, or MAX_SWEEPS.  Boundary nodes never move,
    nor does an interior node in no element.
    ``on_move`` (if given) is called with (vertex_id, min_before, min_after),
    as :func:`maximin_reposition` returns them, after each repositioning.

    The coordinates stay one flat list of Python floats for the whole run;
    each cavity is one :class:`LocalSubmesh`, built once per call, whose
    ``flat`` is gathered from that list by an ``itemgetter`` over flat
    indices before each reposition, and each new position is written back
    into the list.  A wrapper of :func:`maximin_reposition` therefore sees
    the same object in every sweep, and copies ``sub.flat`` to keep it.
    """
    d = mesh.dim
    eids, slots = mesh.topology.incidence
    # index[e] lists the flat coordinate indices of element e's vertices
    index = (mesh.elements[:, :, None] * d + np.arange(d)).reshape(mesh.n_elements, -1).tolist()
    cavities = []
    for vid in mesh.interior_ids.tolist():
        if len(eids[vid]):
            gather = itemgetter(*[i for e in eids[vid].tolist() for i in index[e]])
            sub = LocalSubmesh(None, slots[vid].tolist(), d)
            cavities.append((vid, slice(vid * d, vid * d + d), gather, sub))
    xy = mesh.coords.ravel().tolist()
    sweeps = 0
    max_move = math.inf
    while True:
        cur = mesh.with_coords(np.array(xy).reshape(-1, d))
        if count_reversals(cur)[0] == 0:
            return cur, sweeps, "SUCCESS"
        if max_move <= STALL_TOL:
            return cur, sweeps, "STALLED"
        if sweeps >= max_sweeps:
            return cur, sweeps, "MAX_SWEEPS"
        max_move = 0.0
        for vid, row, gather, sub in cavities:
            sub.flat = gather(xy)
            new_pos, after, before = maximin_reposition(sub)
            if on_move is not None:
                on_move(vid, before, after)
            move = math.dist(new_pos, xy[row])
            if move > max_move:
                max_move = move
            xy[row] = new_pos
        sweeps += 1


def untangle_warp(mesh, report=None, max_sweeps=50):
    """Untangle ``mesh``; returns the result and its WarpReport.  Given the
    ``report`` of the warp that returned ``mesh``, the result keeps its
    factorizations and steps, or loses to it if it has more reversals."""
    fixed, sweeps, outcome = untangle(mesh, max_sweeps=max_sweeps)
    # untangle's exit check has just counted a SUCCESS mesh's reversals: 0
    nrev = 0 if outcome == "SUCCESS" else count_reversals(fixed)[0]
    if report is None or nrev <= report.reversals:
        cost = (0, ()) if report is None else (report.n_factorizations, report.steps)
        mesh, report = fixed, warp_report(fixed, nrev, *cost)
    return mesh, replace(report, untangle_outcome=outcome, untangle_sweeps=sweeps)


def hybrid_warp(mesh, weights, target_boundary, max_sweeps=50):
    """One-shot warp followed, on reversal, by :func:`untangle_warp` of the
    warped (not the original) mesh."""
    warped, report = femwarp_step(mesh, weights, target_boundary)
    if report.success:
        return warped, report
    return untangle_warp(warped, report, max_sweeps=max_sweeps)
