"""Simplicial mesh container, orientation predicates and quality metrics.

A :class:`Mesh` stores node coordinates, (d+1)-node simplex connectivity
and a boundary marking.  It is immutable after construction; warping
produces new meshes via :meth:`Mesh.with_coords`.
"""

from dataclasses import asdict, dataclass, field
from itertools import combinations
from math import factorial

import numpy as np

from .errors import BadIndexError, ReversedElementError

# Reversal threshold: an element is reversed iff its signed measure is <= 0.
# Thin-but-valid elements must not be misclassified, so no epsilon here; a
# separate near-degenerate warning threshold exists in quality reporting.
ORIENTATION_TOL = 0.0

NEAR_DEGENERATE_FACTOR = 1e-12


def _readonly(a):
    a = np.array(a)  # private copy; callers keep write access to theirs
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Mesh:
    """Triangular (dim 2) or tetrahedral (dim 3) mesh.

    Parameters
    ----------
    coords : (n, dim) float array
        Node coordinates; node ids are dense 0..n-1.
    elements : (ne, dim+1) int array
        Simplex connectivity; each id must lie in [0, n).
    boundary : iterable of int
        Node ids marked as boundary; each must lie in [0, n).
    """

    coords: np.ndarray
    elements: np.ndarray
    boundary: np.ndarray = field(default=None)

    def __post_init__(self):
        coords = _readonly(np.asarray(self.coords, dtype=float))
        elements = _readonly(np.asarray(self.elements, dtype=np.int64))
        if coords.ndim != 2 or coords.shape[1] not in (2, 3):
            raise ValueError("coords must be (n, 2) or (n, 3)")
        if elements.ndim != 2 or elements.shape[1] != coords.shape[1] + 1:
            raise ValueError("elements must be (ne, dim+1)")
        n = coords.shape[0]
        if elements.size and (elements.min() < 0 or elements.max() >= n):
            eid = np.argmax(((elements < 0) | (elements >= n)).any(axis=1))
            raise BadIndexError(f"element {eid} cites a node id outside [0, {n})")
        mask = np.zeros(n, dtype=bool)
        if self.boundary is not None:
            ids = np.fromiter(self.boundary, dtype=np.int64, count=-1)
            if ids.size and (ids.min() < 0 or ids.max() >= n):
                raise BadIndexError(f"boundary node id outside [0, {n})")
            mask[ids] = True
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "boundary", _readonly(mask))

    @property
    def dim(self):
        return self.coords.shape[1]

    @property
    def n_nodes(self):
        return self.coords.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    @property
    def boundary_ids(self):
        return np.flatnonzero(self.boundary)

    @property
    def interior_ids(self):
        return np.flatnonzero(~self.boundary)

    def with_coords(self, coords):
        """New mesh with the same connectivity and boundary marking."""
        return Mesh(coords, self.elements, self.boundary_ids)


def _edge(cols, a, b):
    """Edge from vertex a to vertex b of each simplex, one array per axis."""
    return [c[:, b] - c[:, a] for c in cols]


def _dot(u, v):
    total = u[0] * v[0]
    for ui, vi in zip(u[1:], v[1:]):
        total += ui * vi
    return total


def _cross(u, v):
    return [u[i - 2] * v[i - 1] - u[i - 1] * v[i - 2] for i in range(3)]


def _geometry(cols, quality=False):
    """The element-geometry kernel, on per-axis vertex columns ``cols``
    (d, k, d+1): ``cols[a][:, i]`` is axis a of vertex i of k simplices.

    Mesh-level callers gather them once as ``coords.T[:, elements]``; a
    (k, d+1, d) stack passes in as the view ``np.moveaxis(pts, 2, 0)``.
    Returns ``(meas,)``, the signed measures ``det(edge matrix) / d!``, or
    with ``quality`` ``(meas, longest, aspect, imr)``: longest edges, aspect
    ratios (inf for degenerates) and inverse mean ratios (nan for reversed
    elements).  It builds 1-D edge-component arrays, the d edges of one
    vertex at a time, never a (k, C(d+1, 2), d) stack.  Non-finite geometry,
    or finite coordinates that overflow, give nan or inf without a warning.
    """
    d = len(cols)

    def star(a):  # edges from vertex a to each later vertex
        return [_edge(cols, a, j) for j in range(a + 1, d + 1)]

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        edges = star(0)
        if d == 2:
            meas = 0.5 * (edges[0][0] * edges[1][1] - edges[0][1] * edges[1][0])
        else:  # the triple product
            meas = _dot(edges[0], _cross(edges[1], edges[2])) / 6.0
        if not quality:
            return (meas,)
        # squared edges, summed and maxed, and in 3D the largest squared
        # cross product over the faces {a, b, c}, a < b < c, vertex by vertex
        l2sum = l2max = c2max = 0.0
        for a in range(d):
            for e in edges:
                l2 = _dot(e, e)
                l2sum, l2max = l2sum + l2, np.maximum(l2max, l2)
            for u, v in combinations(edges, 2) if d == 3 else ():
                w = _cross(u, v)
                c2max = np.maximum(c2max, _dot(w, w))
            del edges  # free this vertex's edges before the next one's
            edges = star(a + 1)
        # the altitude over facet i is |meas| / |G_i|, with |G_i| the facet's
        # measure over d: half an edge in 2D, a sixth of a cross product in 3D
        longest = np.sqrt(l2max)
        minalt = np.abs(meas) / (0.5 * longest if d == 2 else np.sqrt(c2max) / 6.0)
        aspect = np.where(minalt > 0.0, longest / minalt, np.inf)
        # T = E inv(E_ref) maps the unit-edge regular simplex onto the element;
        # E_ref^T E_ref = (I + J) / 2 gives ||T||_F^2 = 2/(d+1) sum l_ij^2 and
        # det(T) = d! meas / det(E_ref) with det(E_ref)^2 = (d+1) / 2^d
        det = meas * (factorial(d) * np.sqrt(2.0**d / (d + 1)))
        det = np.where(_reversed(meas), np.nan, det)
        return meas, longest, aspect, 2.0 / (d + 1) * l2sum / (d * det ** (2.0 / d))


def _element(points, quality=False):
    """The kernel's values for one simplex of (d+1, d) ``points``."""
    return [v[0] for v in _geometry(np.asarray(points, dtype=float).T[:, None], quality)]


def _columns(mesh):
    # coords.T[:, elements] by take, which gathers several times faster
    return mesh.coords.T.take(mesh.elements, axis=1)


def signed_measure(points):
    """Signed area (2D) / volume (3D) of one simplex.

    Returns ``det(edge matrix) / d!``; the sign flips under any odd vertex
    permutation and degenerate input yields 0.
    """
    return _element(points)[0]


def signed_measures(mesh):
    """Signed measures of every element, vectorized."""
    return _geometry(_columns(mesh))[0]


def _reversed(meas):
    """Mask of reversed elements: measure not in (ORIENTATION_TOL, inf), so a
    nan or inf measure (non-finite or overflowing geometry) counts too."""
    return ~((meas > ORIENTATION_TOL) & (meas < np.inf))


def count_reversals(mesh):
    """Number of reversed elements and their ids (see :func:`_reversed`)."""
    bad = np.flatnonzero(_reversed(signed_measures(mesh)))
    return len(bad), bad.tolist()


def _gradients(cols):
    """Gradients of the signed measures with respect to each vertex, on the
    per-axis columns of :func:`_geometry`: ``g[a][:, i]`` of the (d, k, d+1)
    result is axis a of ``meas * grad(phi_i)``, phi_i the P1 hat function of
    vertex i.  In 2D it is the edge opposite vertex i (in cyclic order)
    rotated by +90 degrees and halved; in 3D the cross product of the edges
    of the face opposite vertex i, over 6.  Silent like :func:`_geometry`.
    """
    d = len(cols)
    g = np.empty(cols.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(d + 1):
            if d == 2:
                ex, ey = _edge(cols, (i + 1) % 3, (i + 2) % 3)
                g[:, :, i] = (-0.5 * ey, 0.5 * ex)
            else:  # (b - a) x (c - a) points toward vertex i when meas > 0
                a, b, c = ((1, 3, 2), (0, 2, 3), (0, 3, 1), (0, 1, 2))[i]
                g[:, :, i] = _cross(_edge(cols, a, b), _edge(cols, a, c))
        if d == 3:
            g /= 6.0
    return g


def aspect_ratio(points):
    """Max side length over minimum altitude.

    Lower is better; the equilateral triangle scores 2/sqrt(3).  Degenerate
    elements yield +inf.
    """
    return _element(points, quality=True)[2]


def inverse_mean_ratio(points):
    """Shape metric equal to 1 for the regular simplex, larger otherwise.

    Raises for reversed or degenerate elements.
    """
    imr = _element(points, quality=True)[3]
    if np.isnan(imr):
        raise ReversedElementError(
            "inverse mean ratio requires a positively oriented element"
        )
    return imr


def max_edge_length(mesh):
    """Largest edge length over all elements."""
    return _geometry(_columns(mesh), quality=True)[1].max()


@dataclass(frozen=True)
class Violation:
    code: str
    where: int
    detail: str


def validate(mesh):
    """Check Mesh invariants; returns a list of Violation records.  Node ids
    out of range never get here: the Mesh constructor refuses them."""
    violations = []
    ids = np.sort(mesh.elements, axis=1)
    for eid in np.flatnonzero((ids[:, 1:] == ids[:, :-1]).any(axis=1)):
        violations.append(
            Violation("DEGENERATE_ELEMENT", int(eid), "repeated node id in element")
        )
    used = np.zeros(mesh.n_nodes, dtype=bool)
    used[mesh.elements] = True
    for nid in np.flatnonzero(~used):
        violations.append(Violation("UNUSED_NODE", int(nid), "node in no element"))
    meas = signed_measures(mesh)
    for eid in np.flatnonzero(_reversed(meas)):
        violations.append(
            Violation("REVERSED_ELEMENT", int(eid), f"signed measure {meas[eid]:g}")
        )
    return violations


@dataclass(frozen=True)
class QualityReport:
    """Summary statistics over all elements of a mesh."""

    min_measure: float
    max_measure: float
    mean_measure: float
    min_aspect: float
    max_aspect: float
    mean_aspect: float
    min_imr: float
    max_imr: float
    mean_imr: float
    reversal_count: int
    near_degenerate_count: int
    h: float

    def as_dict(self):
        return asdict(self)


def quality_report(mesh):
    """Per-mesh quality summary.

    Aspect ratio and inverse mean ratio are reported as inf/nan for
    reversed elements rather than raising, so tangled intermediate meshes
    can still be summarized; the inverse-mean-ratio fields are nan when no
    element is positively oriented.
    """
    meas, longest, aspects, imrs = _geometry(_columns(mesh), quality=True)
    imrs = imrs[~np.isnan(imrs)]
    h = longest.max()
    # the means and h^d of overflowing geometry are inf or nan, silently
    with np.errstate(over="ignore", invalid="ignore"):
        stats = [
            float(f(v))
            for v in (meas, aspects, imrs if imrs.size else np.array([np.nan]))
            for f in (np.min, np.max, np.mean)
        ]
        tiny = NEAR_DEGENERATE_FACTOR * h**mesh.dim
    return QualityReport(
        *stats,
        reversal_count=int(_reversed(meas).sum()),
        near_degenerate_count=int(((meas > ORIENTATION_TOL) & (meas < tiny)).sum()),
        h=float(h),
    )
