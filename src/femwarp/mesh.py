"""Simplicial mesh container, orientation predicates and quality metrics.

A :class:`Mesh` stores node coordinates, (d+1)-node simplex connectivity
and a boundary marking.  It is immutable after construction; warping
produces new meshes via :meth:`Mesh.with_coords`.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BadIndexError, DegenerateElementError, ReversedElementError

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

    def element_coords(self, eid):
        return self.coords[self.elements[eid]]


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


def count_reversals(mesh):
    """Number of reversed elements and their ids.

    An element is reversed iff its signed measure is <= ORIENTATION_TOL.
    """
    bad = np.flatnonzero(signed_measures(mesh) <= ORIENTATION_TOL)
    return len(bad), bad.tolist()


def _edge_lengths(points):
    points = np.asarray(points, dtype=float)
    k = points.shape[0]
    i, j = np.triu_indices(k, 1)
    return np.linalg.norm(points[i] - points[j], axis=1)


def aspect_ratio(points, degenerate_error=False):
    """Max side length over minimum altitude.

    Lower is better; the equilateral triangle scores 2/sqrt(3).  Degenerate
    elements yield +inf, or raise when ``degenerate_error`` is set.
    """
    points = np.asarray(points, dtype=float)
    d = points.shape[1]
    h = _edge_lengths(points).max()
    meas = abs(signed_measure(points))
    if meas == 0.0:
        if degenerate_error:
            raise DegenerateElementError("degenerate element has no altitude")
        return np.inf
    if d == 2:
        # altitude over side i is 2*area/|side i|; min altitude pairs with h
        minalt = 2.0 * meas / h
    else:
        face_areas = []
        for f in range(4):
            face = np.delete(points, f, axis=0)
            e1, e2 = face[1] - face[0], face[2] - face[0]
            face_areas.append(0.5 * np.linalg.norm(np.cross(e1, e2)))
        minalt = 3.0 * meas / max(face_areas)
    return h / minalt


def _reference_edge_matrix(d):
    if d == 2:
        return np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]])
    return np.array(
        [
            [1.0, 0.5, 0.5],
            [0.0, np.sqrt(3.0) / 2.0, np.sqrt(3.0) / 6.0],
            [0.0, 0.0, np.sqrt(6.0) / 3.0],
        ]
    )


def inverse_mean_ratio(points):
    """Shape metric equal to 1 for the regular simplex, larger otherwise.

    Computed as ||T||_F^2 / (d * det(T)^(2/d)) where T maps the unit-edge
    regular simplex onto the element.  Raises for reversed or degenerate
    elements.
    """
    points = np.asarray(points, dtype=float)
    d = points.shape[1]
    edges = (points[1:] - points[0]).T  # columns are edge vectors
    t = edges @ np.linalg.inv(_reference_edge_matrix(d))
    det = np.linalg.det(t)
    if det <= 0.0:
        raise ReversedElementError(
            "inverse mean ratio requires a positively oriented element", det=det
        )
    return (t * t).sum() / (d * det ** (2.0 / d))


def max_edge_length(mesh):
    """Largest edge length over all elements."""
    pts = mesh.coords[mesh.elements]
    d1 = mesh.dim + 1
    h = 0.0
    for i in range(d1):
        for j in range(i + 1, d1):
            h = max(h, np.linalg.norm(pts[:, i] - pts[:, j], axis=1).max())
    return h


def _aspect_ratios(mesh, meas):
    """Vectorized aspect_ratio over all elements (inf for degenerates)."""
    pts = mesh.coords[mesh.elements]
    d1 = mesh.dim + 1
    i, j = np.triu_indices(d1, 1)
    h = np.linalg.norm(pts[:, i] - pts[:, j], axis=2).max(axis=1)
    vol = np.abs(signed_measures(mesh))
    if mesh.dim == 2:
        minalt = np.where(vol > 0.0, 2.0 * vol / np.where(h > 0, h, 1.0), 0.0)
    else:
        areas = np.empty((mesh.n_elements, 4))
        for f in range(4):
            face = np.delete(np.arange(4), f)
            e1 = pts[:, face[1]] - pts[:, face[0]]
            e2 = pts[:, face[2]] - pts[:, face[0]]
            areas[:, f] = 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)
        minalt = np.where(vol > 0.0, 3.0 * vol / areas.max(axis=1), 0.0)
    with np.errstate(divide="ignore"):
        return np.where(minalt > 0.0, h / np.where(minalt > 0, minalt, 1.0), np.inf)


def _inverse_mean_ratios(mesh):
    """Vectorized inverse_mean_ratio over all elements (nan when not
    positively oriented)."""
    d = mesh.dim
    pts = mesh.coords[mesh.elements]
    edges = np.transpose(pts[:, 1:] - pts[:, :1], (0, 2, 1))
    t = edges @ np.linalg.inv(_reference_edge_matrix(d))
    det = np.linalg.det(t)
    frob2 = (t * t).sum(axis=(1, 2))
    with np.errstate(invalid="ignore", divide="ignore"):
        out = frob2 / (d * np.where(det > 0, det, np.nan) ** (2.0 / d))
    return out


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
    for eid, elem in enumerate(mesh.elements):
        if len(set(elem.tolist())) != len(elem):
            violations.append(
                Violation("DEGENERATE_ELEMENT", eid, "repeated node id in element")
            )
    if not bad_idx.any():
        used = np.zeros(n, dtype=bool)
        used[mesh.elements] = True
        for nid in np.flatnonzero(~used):
            violations.append(Violation("UNUSED_NODE", int(nid), "node in no element"))
        meas = signed_measures(mesh)
        for eid in np.flatnonzero(meas <= ORIENTATION_TOL):
            violations.append(
                Violation("REVERSED_ELEMENT", int(eid), f"signed measure {meas[eid]:g}")
            )
    return violations


def is_valid(mesh):
    return not validate(mesh)


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
        return {
            "min_measure": self.min_measure,
            "max_measure": self.max_measure,
            "mean_measure": self.mean_measure,
            "min_aspect": self.min_aspect,
            "max_aspect": self.max_aspect,
            "mean_aspect": self.mean_aspect,
            "min_imr": self.min_imr,
            "max_imr": self.max_imr,
            "mean_imr": self.mean_imr,
            "reversal_count": self.reversal_count,
            "near_degenerate_count": self.near_degenerate_count,
            "h": self.h,
        }


def quality_report(mesh):
    """Per-mesh quality summary.

    Aspect ratio and inverse mean ratio are reported as inf/nan for
    reversed elements rather than raising, so tangled intermediate meshes
    can still be summarized.
    """
    meas = signed_measures(mesh)
    h = max_edge_length(mesh)
    aspects = _aspect_ratios(mesh, meas)
    imrs = _inverse_mean_ratios(mesh)
    imrs = imrs[meas > 0.0]
    if imrs.size == 0:
        imrs = np.array([np.nan])
    nrev = int((meas <= ORIENTATION_TOL).sum())
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
        min_imr=float(np.nanmin(imrs)),
        max_imr=float(np.nanmax(imrs)),
        mean_imr=float(np.nanmean(imrs)),
        reversal_count=nrev,
        near_degenerate_count=near,
        h=float(h),
    )
