"""Shared fixtures: structured meshes and one ingested 3D mesh.

The tetrahedral mesh is round-tripped through .node/.ele files so the 3D
code paths always exercise the file-ingestion route.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import Phase, settings

from femwarp import (
    Mesh,
    TabulatedMotion,
    Topology,
    gen_annulus,
    gen_box_tets,
    gen_rectangle,
    warp_trajectory,
)
from femwarp import io

# every property test draws the same examples on every run and reads no
# example database, so tier-1 and the mutation check (tests/mutants.py) give
# the same verdict each time; a failure reports the first failing example
# unshrunk, since the mutation check fails tests on purpose and shrinking
# takes up to five minutes a test.  The modules' own @settings inherit this.
settings.register_profile(
    "femwarp",
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.generate, Phase.target],
)
settings.load_profile("femwarp")


@pytest.fixture(scope="session")
def annulus_coarse():
    return gen_annulus(0.5, 6, 24)


@pytest.fixture(scope="session")
def annulus_mid():
    # comparable in node/element count to a fine unstructured annulus
    return gen_annulus(0.5, 8, 72)


@pytest.fixture(scope="session")
def annulus_14_64():
    return gen_annulus(0.5, 14, 64)


@pytest.fixture(scope="session")
def rect_mesh():
    return gen_rectangle(2.0, 1.0, 21, 11)


@pytest.fixture(scope="session")
def box_mesh(tmp_path_factory):
    """6x6x6 tetrahedral cube, written out and read back through io."""
    raw = gen_box_tets(6, 6, 6)
    base = tmp_path_factory.mktemp("box3d") / "box"
    io.write_mesh(raw, f"{base}.node", f"{base}.ele")
    return io.read_mesh(f"{base}.node", f"{base}.ele")


@pytest.fixture(scope="session")
def box_mesh_paths(tmp_path_factory):
    """Basename of an on-disk 5x5x5 cube of size 3 for CLI-level 3D tests."""
    raw = gen_box_tets(5, 5, 5, size=3.0)
    base = tmp_path_factory.mktemp("box3d_cli") / "box"
    io.write_mesh(raw, f"{base}.node", f"{base}.ele")
    return str(base)


@pytest.fixture(scope="session")
def reflection_untangle_result(annulus_14_64):
    """Standalone untangler run on the point-reflected boundary fixture.

    Expensive (50 sweeps over a 768-interior-node mesh), so it is computed
    once and shared between the module test and the acceptance criterion.
    """
    from femwarp.untangle import untangle

    coords = np.array(annulus_14_64.coords)
    bid = annulus_14_64.boundary_ids
    coords[bid] = -coords[bid]
    return untangle(annulus_14_64.with_coords(coords))


@pytest.fixture()
def topology_builds(monkeypatch):
    """The meshes that ``Mesh.topology`` builds a Topology for during the
    test.  Count them on fresh meshes: a session fixture keeps the topology
    an earlier test built."""
    built = []

    def counted(mesh):
        built.append(mesh)
        return Topology(mesh)

    monkeypatch.setattr("femwarp.mesh.Topology", counted)
    return built


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@contextmanager
def raises_coded(cls, code, match=None):
    """``pytest.raises(cls, match=match)`` that also checks the error's
    ``code``, the one the CLI prints."""
    with pytest.raises(cls, match=match) as info:
        yield info
    assert info.value.code == code


def jittered_rectangle(nx, ny, seed=7):
    """Rectangle mesh with interior nodes perturbed off the grid lines.

    Axis-aligned right triangles are blind to a pure y-shear (the curvature
    terms cancel exactly), so refinement studies of element reversal under
    the shear map need generic triangle orientations.
    """
    mesh = gen_rectangle(2.0, 1.0, nx, ny)
    rng = np.random.default_rng(seed)
    coords = np.array(mesh.coords)
    cell = min(2.0 / (nx - 1), 1.0 / (ny - 1))
    ii = mesh.interior_ids
    coords[ii] += rng.uniform(-0.25 * cell, 0.25 * cell, size=(len(ii), 2))
    return mesh.with_coords(coords)


def jittered(mesh, seed, frac=0.2):
    """``mesh`` with interior nodes moved by up to ``frac`` of the shortest
    edge per axis; ``seed`` is a seed or a numpy Generator."""
    rng = np.random.default_rng(seed)
    pts = mesh.coords[mesh.elements]
    i, j = np.triu_indices(mesh.dim + 1, 1)
    h = np.linalg.norm(pts[:, i] - pts[:, j], axis=2).min()
    coords = np.array(mesh.coords)
    ii = mesh.interior_ids
    coords[ii] += rng.uniform(-frac * h, frac * h, size=(len(ii), mesh.dim))
    return mesh.with_coords(coords)


def random_affine(rng, dim):
    l = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim))
    while abs(np.linalg.det(l)) < 0.1:
        l = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim))
    return l, rng.standard_normal(dim)


def fixed_step_trajectory(mesh, motion, h):
    """The fixed-step FEM baseline: ``warp_trajectory`` over the frames
    ``motion.evaluate(min(k*h, 1))``, k = 1 .. ceil(1/h), one factorization
    per frame, stopping at the first reversed frame."""
    count = int(np.ceil(1.0 / h - 1e-9))
    frames = [motion.evaluate(min(k * h, 1.0)) for k in range(1, count + 1)]
    return warp_trajectory(mesh, "FEM", TabulatedMotion(mesh, frames))


def flipped_rectangle(seed):
    """``gen_rectangle(2, 1, 11, 7)``'s nodes with each cell split along a
    random diagonal, so that interior cavities hold 4 to 8 triangles, and
    interior nodes jittered by up to two cells, which reverses dozens."""
    nx, ny = 11, 7
    base = gen_rectangle(2.0, 1.0, nx, ny)
    rng = np.random.default_rng(seed)
    elements = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            a, b = j * nx + i, j * nx + i + 1
            c, d = b + nx, a + nx
            elements += [[a, b, c], [a, c, d]] if rng.random() < 0.5 else [[a, b, d], [b, c, d]]
    coords = np.array(base.coords)
    ii = base.interior_ids
    coords[ii] += rng.uniform(-2.0 / (ny - 1), 2.0 / (ny - 1), size=(len(ii), 2))
    return Mesh(coords, np.array(elements), base.boundary_ids)
