"""Simplicial mesh container, orientation predicates and quality metrics.

A :class:`Mesh` stores node coordinates, (d+1)-node simplex connectivity
and a boundary marking.  It is immutable after construction; warping
produces new meshes via :meth:`Mesh.with_coords`.
"""

from dataclasses import asdict, dataclass, field
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
        Simplex connectivity.
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
        mask = np.zeros(coords.shape[0], dtype=bool)
        if self.boundary is not None:
            ids = np.fromiter(self.boundary, dtype=np.int64, count=-1)
            if ids.size and (ids.min() < 0 or ids.max() >= len(mask)):
                raise BadIndexError(f"boundary node id outside [0, {len(mask)})")
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


def signed_measure(points):
    """Signed area (2D) / volume (3D) of one simplex.

    Returns ``det(edge matrix) / d!``; the sign flips under any odd vertex
    permutation and degenerate input yields 0.
    """
    return simplex_measures(np.asarray(points, dtype=float)[None])[0]


def simplex_measures(pts):
    """Signed measures of stacked simplices, shape (k, d+1, d) -> (k,)."""
    edges = pts[:, 1:, :] - pts[:, :1, :]
    if pts.shape[2] == 2:
        return 0.5 * (edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0])
    return np.linalg.det(edges) / 6.0


def signed_measures(mesh):
    """Signed measures of every element, vectorized."""
    return simplex_measures(mesh.coords[mesh.elements])


def _reversed(meas):
    """Mask of reversed elements: signed measure not above ORIENTATION_TOL,
    so a NaN measure (non-finite geometry) counts as reversed."""
    return ~(meas > ORIENTATION_TOL)


def count_reversals(mesh):
    """Number of reversed elements and their ids (see :func:`_reversed`)."""
    bad = np.flatnonzero(_reversed(signed_measures(mesh)))
    return len(bad), bad.tolist()


# vertices (a, b, c) of the face opposite vertex i, ordered so that
# (b - a) x (c - a) points toward vertex i on a positive tetrahedron
_FACES = np.array([[1, 3, 2], [0, 2, 3], [0, 3, 1], [0, 1, 2]])


def measure_gradients(pts):
    """Gradient of each simplex's signed measure with respect to each of its
    vertices, (k, d+1, d) -> (k, d+1, d).

    Row i is ``meas * grad(phi_i)`` for the P1 hat function phi_i and does
    not depend on vertex i itself; its norm is the measure of the facet
    opposite vertex i over d.  In 2D it is the edge opposite vertex i (in
    cyclic order) rotated by +90 degrees and halved; in 3D the cross
    product of the edges of the face opposite vertex i, over 6.
    """
    if pts.shape[2] == 2:
        e = pts[:, [2, 0, 1]] - pts[:, [1, 2, 0]]
        return np.stack([-0.5 * e[..., 1], 0.5 * e[..., 0]], axis=-1)
    a, b, c = _FACES.T
    return np.cross(pts[:, b] - pts[:, a], pts[:, c] - pts[:, a]) / 6.0


def _edge_lengths(pts):
    """Edge lengths of stacked simplices, (k, d+1, d) -> (k, d(d+1)/2)."""
    i, j = np.triu_indices(pts.shape[1], 1)
    return np.linalg.norm(pts[:, i] - pts[:, j], axis=2)


def _aspect_ratios(pts, meas, longest):
    """Aspect ratios of stacked simplices with signed measures ``meas`` and
    longest edges ``longest`` (inf for degenerates).

    The altitude over facet i is ``|meas| / |G_i|`` with G the measure
    gradients, so the minimum altitude pairs with the largest row of G.
    """
    gmax = np.linalg.norm(measure_gradients(pts), axis=2).max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        minalt = np.abs(meas) / gmax
        return np.where(minalt > 0.0, longest / minalt, np.inf)


def aspect_ratio(points):
    """Max side length over minimum altitude.

    Lower is better; the equilateral triangle scores 2/sqrt(3).  Degenerate
    elements yield +inf.
    """
    pts = np.asarray(points, dtype=float)[None]
    return _aspect_ratios(pts, simplex_measures(pts), _edge_lengths(pts).max(axis=1))[0]


# edge vectors (columns) of the unit-edge regular tetrahedron; its leading
# 2x2 block holds those of the unit-edge regular triangle
_REGULAR_EDGES = np.array(
    [
        [1.0, 0.5, 0.5],
        [0.0, np.sqrt(3.0) / 2.0, np.sqrt(3.0) / 6.0],
        [0.0, 0.0, np.sqrt(6.0) / 3.0],
    ]
)


def _inverse_mean_ratios(pts, meas):
    """Inverse mean ratios of stacked simplices with signed measures
    ``meas`` (nan when not positively oriented).

    ``||T||_F^2 / (d * det(T)^(2/d))`` where T = E inv(E_ref) maps the
    unit-edge regular simplex onto the element, so that
    ``det(T) = d! * meas / det(E_ref)``.
    """
    d = pts.shape[2]
    ref = _REGULAR_EDGES[:d, :d]
    edges = np.transpose(pts[:, 1:] - pts[:, :1], (0, 2, 1))
    t = edges @ np.linalg.inv(ref)
    frob2 = (t * t).sum(axis=(1, 2))
    with np.errstate(invalid="ignore", divide="ignore"):  # nan or inf entries
        det = meas * (factorial(d) / np.linalg.det(ref))
        return frob2 / (d * np.where(det > 0, det, np.nan) ** (2.0 / d))


def inverse_mean_ratio(points):
    """Shape metric equal to 1 for the regular simplex, larger otherwise.

    Raises for reversed or degenerate elements.
    """
    pts = np.asarray(points, dtype=float)[None]
    imr = _inverse_mean_ratios(pts, simplex_measures(pts))[0]
    if np.isnan(imr):
        raise ReversedElementError(
            "inverse mean ratio requires a positively oriented element"
        )
    return imr


def max_edge_length(mesh):
    """Largest edge length over all elements."""
    return _edge_lengths(mesh.coords[mesh.elements]).max()


@dataclass(frozen=True)
class Violation:
    code: str
    where: int
    detail: str


def validate(mesh):
    """Check Mesh invariants; returns a list of Violation records."""
    violations = []
    n = mesh.n_nodes
    bad_idx = (mesh.elements < 0) | (mesh.elements >= n)
    for eid in np.flatnonzero(bad_idx.any(axis=1)):
        violations.append(Violation("BAD_INDEX", int(eid), "element cites missing node"))
    ids = np.sort(mesh.elements, axis=1)
    for eid in np.flatnonzero((ids[:, 1:] == ids[:, :-1]).any(axis=1)):
        violations.append(
            Violation("DEGENERATE_ELEMENT", int(eid), "repeated node id in element")
        )
    if not bad_idx.any():
        used = np.zeros(n, dtype=bool)
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
    pts = mesh.coords[mesh.elements]
    meas = simplex_measures(pts)
    longest = _edge_lengths(pts).max(axis=1)
    h = longest.max()
    aspects = _aspect_ratios(pts, meas, longest)
    imrs = _inverse_mean_ratios(pts, meas)
    imrs = imrs[~np.isnan(imrs)]
    imr = (imrs.min(), imrs.max(), imrs.mean()) if imrs.size else (np.nan,) * 3
    nrev = int(_reversed(meas).sum())
    near = int(
        ((meas > ORIENTATION_TOL) & (meas < NEAR_DEGENERATE_FACTOR * h**mesh.dim)).sum()
    )
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
        reversal_count=nrev,
        near_degenerate_count=near,
        h=float(h),
    )
