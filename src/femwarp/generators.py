"""Structured test-mesh generators: annulus, rectangle and box.

Purpose-built fixtures so the test battery needs no external mesher;
unstructured meshes can still be ingested through the Triangle/TetGen
readers in :mod:`femwarp.io`.  All three are the Kuhn (Freudenthal)
triangulation of a tensor grid, built by :func:`_kuhn_grid`.
"""

import numpy as np

from .errors import InvalidSpecError
from .mesh import Mesh

# Kuhn splits of the unit square and cube into positively oriented
# simplices; corner c of a cell sits at offset (c >> i) & 1 along axis i
_KUHN_2D = ((0, 1, 3), (0, 3, 2))
_KUHN_3D = (
    (0, 1, 3, 7), (0, 1, 7, 5), (0, 5, 7, 4), (0, 3, 2, 7), (0, 2, 6, 7), (0, 6, 4, 7)
)


def _kuhn_grid(shape, table, wrap=False):
    """Simplices and boundary node ids of a tensor grid with ``shape`` nodes
    per axis, node ids running fastest along axis 0.

    Cells are taken in node-id order of their lowest corner and each is split
    into the simplices of ``table``.  With ``wrap`` axis 0 is periodic (its
    last cell closes on the first node layer); the end layers of every other
    axis are the boundary.
    """
    d = len(shape)
    ids = np.arange(np.prod(shape)).reshape(shape[::-1])
    if wrap:
        ids = np.concatenate([ids, ids[..., :1]], axis=-1)
    # flat offset of each cell corner inside ``ids``, which may be padded
    bits = np.arange(2**d)[:, None] >> np.arange(d) & 1
    corner = bits @ np.cumprod((1,) + ids.shape[:0:-1])
    origin = np.arange(ids.size).reshape(ids.shape)[(slice(-1),) * d]
    elements = ids.ravel()[origin.reshape(-1, 1, 1) + corner[np.array(table)]]
    edge = np.zeros(shape[::-1], dtype=bool)
    for axis in range(d - wrap):  # array axis -1 is grid axis 0
        np.moveaxis(edge, axis, 0)[[0, -1]] = True
    return elements.reshape(-1, d + 1), np.flatnonzero(edge)


def gen_annulus(r, n_rings, n_sectors):
    """Structured triangular mesh of the annulus r <= rho <= 1.

    Rings are spaced linearly in radius, each quad cell is split into two
    positively oriented triangles; innermost and outermost rings are marked
    boundary.
    """
    if not (0.0 < r < 1.0):
        raise InvalidSpecError(f"inner radius must lie in (0,1), got {r}")
    if n_rings < 2:
        raise InvalidSpecError("need at least 2 rings")
    if n_sectors < 8:
        raise InvalidSpecError("need at least 8 sectors")
    radii = np.linspace(r, 1.0, n_rings)[:, None]
    angles = 2.0 * np.pi * np.arange(n_sectors) / n_sectors
    coords = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=-1)
    # axis 0 runs along the sectors: the square's table with its axes exchanged
    table = ((0, 2, 3), (0, 3, 1))
    return Mesh(
        coords.reshape(-1, 2), *_kuhn_grid((n_sectors, n_rings), table, wrap=True)
    )


def gen_rectangle(width, height, nx, ny):
    """Structured triangular mesh of [0, width] x [0, height].

    nx, ny are node counts per side; each grid cell is split along one
    diagonal.  Perimeter nodes are boundary.  INVALID_SPEC unless nx and
    ny are at least 2 and width and height are positive and finite.
    """
    if nx < 2 or ny < 2:
        raise InvalidSpecError("need at least 2 nodes per side")
    if not (0.0 < width < np.inf and 0.0 < height < np.inf):
        raise InvalidSpecError(f"width {width} and height {height} must be positive, finite")
    grid = np.meshgrid(np.linspace(0.0, width, nx), np.linspace(0.0, height, ny))
    return Mesh(np.stack(grid, axis=-1).reshape(-1, 2), *_kuhn_grid((nx, ny), _KUHN_2D))


def gen_box_tets(nx, ny, nz, size=1.0):
    """Structured tetrahedral mesh of a cube, six tets per grid cell.

    Surface nodes are boundary.  Used to exercise the 3D code paths and to
    produce .node/.ele fixtures.  INVALID_SPEC unless every count is at
    least 2 and size is positive and finite.
    """
    if min(nx, ny, nz) < 2:
        raise InvalidSpecError("need at least 2 nodes per side")
    if not 0.0 < size < np.inf:
        raise InvalidSpecError(f"size {size} must be positive, finite")
    zyx = np.meshgrid(*(np.linspace(0.0, size, n) for n in (nz, ny, nx)), indexing="ij")
    coords = np.stack(zyx[::-1], axis=-1).reshape(-1, 3)
    return Mesh(coords, *_kuhn_grid((nx, ny, nz), _KUHN_3D))
