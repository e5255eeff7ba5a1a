"""Simplicial mesh container, orientation predicates and quality metrics.

A :class:`Mesh` stores node coordinates, (d+1)-node simplex connectivity
and a boundary marking.  It is immutable after construction; warping
produces new meshes via :meth:`Mesh.with_coords`, which share its
connectivity and :class:`Topology`, because no warp changes them.
"""

import copy
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import combinations
from math import factorial

import numpy as np

from .errors import BadIndexError, ReversedElementError, ShapeError
from .solve import mmd_order

# Reversal threshold: an element is reversed iff its signed measure is <= 0.
# Thin-but-valid elements must not be misclassified, so no epsilon here; a
# separate near-degenerate warning threshold exists in quality reporting.
ORIENTATION_TOL = 0.0

NEAR_DEGENERATE_FACTOR = 1e-12

# quality_report squares edge components, in 3D their cross products too,
# and forms h**d; while every nonzero per-axis extent of the coordinates lies
# in [2**-QUALITY_SPAN, 2**QUALITY_SPAN] none of these overflows, and the
# report computes on the coordinates as they are
QUALITY_SPAN = 100

# Parts of at most this many interior nodes end the nested dissection.
ND_LEAF_SIZE = 16


def _readonly(a):
    a = np.array(a)  # private copy; callers keep write access to theirs
    a.setflags(write=False)
    return a


def _node_ids(ids, what):
    """The array ``ids`` as int64 node ids; BAD_INDEX naming ``what`` unless
    every entry is an integer.  Integer arrays are cast without a check."""
    if ids.dtype.kind in "iu":
        return ids.astype(np.int64, copy=False)
    refused = BadIndexError(f"{what} must be integer node ids, not {ids.dtype}")
    if ids.dtype.kind == "c":  # a cast to float would drop the imaginary part
        raise refused
    try:
        values = ids.astype(float)
    except (TypeError, ValueError, OverflowError):
        raise refused from None
    with np.errstate(invalid="ignore"):  # nan, inf and huge values cast to junk
        out = values.astype(np.int64)
    bad = np.flatnonzero(out != values)
    if bad.size:
        raise BadIndexError(f"{what}: {values.flat[bad[0]]} is not an integer node id")
    return out


@dataclass(frozen=True, eq=False)
class Mesh:
    """Triangular (dim 2) or tetrahedral (dim 3) mesh.

    Meshes compare and hash by identity: two meshes are equal only when
    they are one object, so a mesh can key a dict or a set.

    Parameters
    ----------
    coords : (n, dim) float array
        Node coordinates; node ids are dense 0..n-1.
    elements : (ne, dim+1) int array
        Simplex connectivity; each id must lie in [0, n).
    boundary : iterable of int, or boolean mask
        Node ids marked as boundary, each in [0, n); or a boolean array of
        length n, such as another mesh's ``boundary``, read as the mask
        itself.  Any other boolean input is refused with BAD_INDEX.
    """

    coords: np.ndarray
    elements: np.ndarray
    boundary: np.ndarray = field(default=None)

    def __post_init__(self):
        coords = _readonly(np.asarray(self.coords, dtype=float))
        elements = _readonly(_node_ids(np.asarray(self.elements), "elements"))
        if coords.ndim != 2 or coords.shape[1] not in (2, 3):
            raise ShapeError("coords must be (n, 2) or (n, 3)")
        if elements.ndim != 2 or elements.shape[1] != coords.shape[1] + 1:
            raise ShapeError("elements must be (ne, dim+1)")
        n = coords.shape[0]
        if elements.size and (elements.min() < 0 or elements.max() >= n):
            eid = np.argmax(((elements < 0) | (elements >= n)).any(axis=1))
            raise BadIndexError(f"element {eid} cites a node id outside [0, {n})")
        mask = np.zeros(n, dtype=bool)
        marks = self.boundary
        if marks is not None:
            if not isinstance(marks, (np.ndarray, bool, np.bool_)):
                try:
                    marks = list(marks)  # any iterable, a generator included
                except TypeError:
                    raise BadIndexError("boundary must be node ids or a boolean mask") from None
            marks = np.asarray(marks)
            if marks.dtype == bool:
                if marks.shape != (n,):
                    raise BadIndexError(
                        f"a boolean boundary mask must have shape ({n},), not {marks.shape}"
                    )
                mask = marks
            else:
                if marks.ndim != 1:
                    raise BadIndexError("boundary must be node ids or a boolean mask")
                ids = _node_ids(marks, "boundary")
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

    @cached_property
    def topology(self):
        """The :class:`Topology` of the connectivity, built on first use."""
        return Topology(self)

    def with_coords(self, coords):
        """New mesh at ``coords`` sharing ``elements``, ``boundary`` and, once
        built, ``topology``; BAD_SHAPE unless ``coords`` keeps the shape."""
        coords = _readonly(np.asarray(coords, dtype=float))
        if coords.shape != self.coords.shape:
            raise ShapeError(f"coords must have the shape {self.coords.shape}")
        moved = copy.copy(self)
        object.__setattr__(moved, "coords", coords)
        return moved


class Topology:
    """Connectivity of a mesh, which a warp never changes.

    Built once from ``mesh.elements`` and ``mesh.boundary``: the interior
    and boundary ids, the node adjacency in CSR form (``adj_indptr``,
    ``adj_indices``; columns ascend within a row, no self loops) and the
    CSR patterns of ``A_I`` (interior x interior, ``ii_*``) and ``A_IB``
    (interior x boundary, ``ib_*``) that every weight scheme fills.  Values
    are written into one data array of length ``nnz`` holding the ``A_I``
    entries followed by the ``A_IB`` entries:

    * ``scatter`` (computed on first use) maps every entry of the
      (ne, d+1, d+1) element-matrix stack, flattened, to its data slot, or
      to the discard slot ``nnz`` when its row is a boundary node;
    * ``diag_slots`` / ``nbr_slots`` are the slots of each interior row's
      diagonal and of its neighbors in adjacency order.

    ``order`` (computed on first use) is the fill-reducing order that the
    warp drivers hand to every factorization of ``A_I``.
    """

    def __init__(self, mesh):
        n = mesh.n_nodes
        # the coordinates the topology was built at; they only place the
        # cuts of the nested-dissection ``order``
        self._coords = mesh.coords
        self.elements = mesh.elements
        self.boundary = mesh.boundary
        self.interior_ids = _readonly(mesh.interior_ids)
        self.boundary_ids = _readonly(mesh.boundary_ids)
        m = len(self.interior_ids)
        # position of each node within its block (interior or boundary)
        pos = np.empty(n, dtype=np.int64)
        pos[self.interior_ids] = np.arange(m)
        pos[self.boundary_ids] = np.arange(len(self.boundary_ids))

        # the full pattern: one sorted key row * n + col per node pair that
        # shares an element, the diagonal included
        self._keys = _sorted_unique(_pair_keys(self.elements, n))
        urow, ucol = np.divmod(self._keys, n)
        off = urow != ucol
        self.adj_indptr = _indptr(urow[off], n)
        self.adj_indices = ucol[off]

        inner = ~self.boundary[urow]
        to_ii = inner & ~self.boundary[ucol]
        to_ib = inner & self.boundary[ucol]
        self.ii_indptr = _indptr(pos[urow[to_ii]], m)
        self.ii_indices = pos[ucol[to_ii]]
        self.ib_indptr = _indptr(pos[urow[to_ib]], m)
        self.ib_indices = pos[ucol[to_ib]]
        nnz_ii = len(self.ii_indices)
        self.nnz = nnz_ii + len(self.ib_indices)
        # data slot of each pattern entry
        self._slot = np.full(len(self._keys), self.nnz, dtype=np.int64)
        self._slot[to_ii] = np.arange(nnz_ii)
        self._slot[to_ib] = np.arange(nnz_ii, self.nnz)
        self.diag_slots = self._slot[inner & ~off]
        self.nbr_slots = self._slot[inner & off]

    @cached_property
    def scatter(self):
        """Data slot of every entry of the flattened element-matrix stack."""
        keys = _pair_keys(self.elements, len(self.boundary))
        return self._slot[np.searchsorted(self._keys, keys)]

    @cached_property
    def incidence(self):
        """Per node, the ascending ids of its elements and its slot in each,
        from one stable argsort of the raveled connectivity."""
        flat = self.elements.ravel()
        first = np.cumsum(np.bincount(flat, minlength=len(self.boundary)))[:-1]
        d1 = self.elements.shape[1]
        eids, slots = np.divmod(np.argsort(flat, kind="stable"), d1)
        return np.split(eids, first), np.split(slots, first)

    def neighbors(self, node):
        """Ascending ids of the nodes sharing an element with ``node``."""
        return self.adj_indices[self.adj_indptr[node] : self.adj_indptr[node + 1]]

    @cached_property
    def order(self):
        """Symmetric fill-reducing order of ``A_I``'s rows: in 3D the
        nested-dissection order of :func:`_nested_dissection` on the
        coordinates the topology was built at; in 2D SuperLU's minimum-degree
        order of the pattern, :func:`~femwarp.solve.mmd_order`."""
        if self._coords.shape[1] != 3:
            return _readonly(mmd_order(self.ii_indptr, self.ii_indices))
        xyz = self._coords[self.interior_ids]
        return _readonly(_nested_dissection(self.ii_indptr, self.ii_indices, xyz))


def _nested_dissection(indptr, indices, xyz):
    """Nested-dissection order (George 1973) of the symmetric CSR pattern
    ``indptr``/``indices`` on nodes at ``xyz`` (m, d).

    Every part of more than ``ND_LEAF_SIZE`` nodes is split at the median
    of its longest coordinate extent; the nodes of the second half that
    neighbour the first half form the part's separator, and the rest of
    each half is split in turn.  The order lists each part's halves, in
    that order, before its separator.  All parts of one level are split
    at once: the live nodes stay grouped by part, each node's path so far
    is a base-4 key (digit 0 first half, 1 second half, 2 separator) whose
    ascending sort is the order, and an edge is dropped once its ends lie
    in different parts.
    """
    m = len(xyz)
    rows = np.repeat(np.arange(m), np.diff(indptr))
    off = rows != indices
    rows, cols = rows[off], indices[off]
    # distinct ranks along each axis: sorting a part by rank sorts it by
    # coordinate, ties broken by node id
    rank = np.argsort(np.argsort(xyz, axis=0, kind="stable"), axis=0)
    key = np.zeros(m, dtype=np.int64)
    part = np.zeros(m, dtype=np.int64)  # -1 once a node is placed
    ids = np.arange(m) if m > ND_LEAF_SIZE else np.arange(0)
    while len(ids):  # the live nodes, grouped by ascending part
        p = part[ids]
        start = np.flatnonzero(np.concatenate(([True], p[1:] != p[:-1])))
        size = np.diff(np.append(start, len(ids)))
        seg = np.repeat(np.arange(len(start)), size)
        pts = xyz[ids]
        extent = np.maximum.reduceat(pts, start) - np.minimum.reduceat(pts, start)
        axis = extent.argmax(axis=1)
        ids = ids[np.argsort(seg * m + rank[ids, axis[seg]])]
        second = np.arange(len(ids)) - start[seg] >= (size // 2)[seg]
        part[ids] = 2 * seg + second
        key *= 4
        key[ids] += second
        pr = part[rows]
        sep = rows[(pr & 1).astype(bool) & (part[cols] == pr - 1)]
        key[sep] += 1  # digit 1 becomes 2; a repeated id adds once
        part[sep] = -1
        ids = ids[part[ids] >= 0]
        p = part[ids]
        leaf = np.bincount(p)[p] <= ND_LEAF_SIZE
        part[ids[leaf]] = -1
        ids = ids[~leaf]
        pr = part[rows]
        keep = (pr >= 0) & (pr == part[cols])
        rows, cols = rows[keep], cols[keep]
    return np.argsort(key, kind="stable")


def _pair_keys(elements, n):
    """Key row * n + col of every entry of the flattened element-matrix stack."""
    return (elements[:, :, None] * n + elements[:, None, :]).ravel()


def _sorted_unique(a):
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def _indptr(rows, n):
    """CSR row pointer of row indices sorted ascending."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))


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


def _boundary_facet_nodes(elements):
    """Ascending ids of the nodes on a facet of exactly one element."""
    d1 = elements.shape[1]
    corners = np.array(list(combinations(range(d1), d1 - 1)))
    facets = np.sort(elements[:, corners].reshape(-1, d1 - 1), axis=1)
    facets, counts = np.unique(facets, axis=0, return_counts=True)
    return np.unique(facets[counts == 1])


@dataclass(frozen=True)
class Violation:
    code: str
    where: int
    detail: str


def validate(mesh):
    """Check Mesh invariants; returns a list of Violation records: repeated
    node ids in an element, nodes in no element, reversed elements, and
    nodes on a facet of exactly one element that are not marked boundary.
    Node ids out of range never get here: the Mesh constructor refuses
    them."""
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
    # FEMWARP prescribes every boundary node, so one left free is an error
    on_facet = _boundary_facet_nodes(mesh.elements)
    for nid in on_facet[~mesh.boundary[on_facet]]:
        violations.append(
            Violation("UNMARKED_BOUNDARY", int(nid), "node on a boundary facet not marked boundary")
        )
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


def _quality_exponent(coords):
    """The k for which :func:`quality_report` computes on ``coords * 2**-k``:
    0 while every nonzero per-axis extent lies in ``2**±QUALITY_SPAN`` or
    one is not finite; else the mean of the largest and the smallest
    extent's exponents, rounded down, which centres the scaled extents on 1,
    but never so low that a coordinate scales past the largest float."""
    with np.errstate(over="ignore", invalid="ignore"):
        extents = np.array([axis.max() - axis.min() for axis in coords.T])
    if not np.isfinite(extents).all():
        return 0
    exps = np.frexp(extents[extents > 0.0])[1]
    if not exps.size or -QUALITY_SPAN <= exps.min() and exps.max() <= QUALITY_SPAN:
        return 0
    k = (int(exps.min()) + int(exps.max())) // 2
    return max(k, int(np.frexp(np.abs(coords).max())[1]) - 1024)


def quality_report(mesh):
    """Per-mesh quality summary.

    Aspect ratio and inverse mean ratio are reported as inf/nan for
    reversed elements rather than raising, so tangled intermediate meshes
    can still be summarized; the inverse-mean-ratio fields are nan when no
    element is positively oriented.

    Aspects, inverse mean ratios, ``h`` and the near-degenerate count come
    from the coordinates scaled by the power of two of
    :func:`_quality_exponent`, which is exact, and ``h`` is scaled back: so
    a valid mesh whose squared edges overflow reports a finite ``h``,
    aspects and ratios, and a mesh and its copies scaled by powers of two
    past ``2**±QUALITY_SPAN`` report the same values.  The measure fields
    and the reversal count are those of :func:`signed_measures`.
    """
    cols = _columns(mesh)
    k = _quality_exponent(mesh.coords)
    scaled, longest, aspects, imrs = _geometry(np.ldexp(cols, -k) if k else cols, quality=True)
    meas = _geometry(cols)[0] if k else scaled
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
        h = np.ldexp(h, k)
    return QualityReport(
        *stats,
        reversal_count=int(_reversed(meas).sum()),
        near_degenerate_count=int(((scaled > ORIENTATION_TOL) & (scaled < tiny)).sum()),
        h=float(h),
    )
