"""Structured annulus, rectangle and box fixtures."""

import hashlib

import numpy as np
import pytest

from femwarp import gen_annulus, gen_box_tets, gen_rectangle
from femwarp.assembly import build_weights
from femwarp.errors import InvalidSpecError, NoInteriorError
from femwarp.mesh import count_reversals, max_edge_length, validate

from conftest import raises_coded


def interior_edge_counts(mesh):
    """Multiplicity of every (d-1)-face across elements."""
    faces = {}
    d1 = mesh.dim + 1
    for elem in mesh.elements:
        for drop in range(d1):
            face = tuple(sorted(np.delete(elem, drop)))
            faces[face] = faces.get(face, 0) + 1
    return faces


class TestAnnulus:
    def test_two_rings_all_boundary(self):
        mesh = gen_annulus(0.5, 2, 8)
        assert mesh.n_nodes == 16
        assert mesh.n_elements == 16
        assert len(mesh.interior_ids) == 0
        with pytest.raises(NoInteriorError):
            build_weights(mesh, "FEM")

    def test_standard_fixture_h(self):
        mesh = gen_annulus(0.5, 14, 64)
        h = max_edge_length(mesh)
        expected = max(0.5 / 13.0, 2 * np.pi / 64.0)
        assert abs(h - expected) <= 0.1 * expected
        assert count_reversals(mesh)[0] == 0

    def test_all_outputs_valid(self):
        for args in ((0.5, 3, 8), (0.2, 6, 16), (0.8, 4, 32)):
            mesh = gen_annulus(*args)
            assert not validate(mesh)

    def test_radii_span(self):
        mesh = gen_annulus(0.3, 5, 16)
        radii = np.linalg.norm(mesh.coords, axis=1)
        assert radii.min() == pytest.approx(0.3, abs=1e-12)
        assert radii.max() == pytest.approx(1.0, abs=1e-12)
        boundary_radii = radii[mesh.boundary_ids]
        assert np.all(
            (np.abs(boundary_radii - 0.3) < 1e-12)
            | (np.abs(boundary_radii - 1.0) < 1e-12)
        )

    def test_conforming_edges(self):
        faces = interior_edge_counts(gen_annulus(0.5, 4, 12))
        assert set(faces.values()) <= {1, 2}

    def test_parameter_bounds(self):
        with raises_coded(InvalidSpecError, "INVALID_SPEC"):
            gen_annulus(1.5, 4, 12)
        with raises_coded(InvalidSpecError, "INVALID_SPEC"):
            gen_annulus(0.5, 1, 12)
        with raises_coded(InvalidSpecError, "INVALID_SPEC"):
            gen_annulus(0.5, 4, 4)


class TestRectangle:
    def test_standard_fixture_h(self):
        mesh = gen_rectangle(2.0, 1.0, 21, 11)
        assert max_edge_length(mesh) == pytest.approx(0.1 * np.sqrt(2.0), rel=1e-12)
        assert count_reversals(mesh)[0] == 0

    def test_corner_is_boundary(self):
        mesh = gen_rectangle(2.0, 1.0, 5, 4)
        origin = int(np.argmin(np.abs(mesh.coords).sum(axis=1)))
        assert mesh.boundary[origin]

    def test_valid_and_conforming(self):
        mesh = gen_rectangle(1.0, 1.0, 6, 6)
        assert validate(mesh) == []
        assert set(interior_edge_counts(mesh).values()) <= {1, 2}

    def test_parameter_bounds(self):
        with raises_coded(InvalidSpecError, "INVALID_SPEC"):
            gen_rectangle(1.0, 1.0, 1, 5)

    @pytest.mark.parametrize(
        "width, height", [(-2.0, 1.0), (0.0, 1.0), (1.0, np.nan), (np.inf, 1.0)]
    )
    def test_extent_positive_and_finite(self, width, height):
        # a negative width used to give only reversed triangles, nan or inf
        # nan coordinates
        with raises_coded(InvalidSpecError, "INVALID_SPEC"):
            gen_rectangle(width, height, 5, 4)


class TestBoxTets:
    def test_counts_and_validity(self):
        mesh = gen_box_tets(4, 4, 4)
        assert mesh.n_nodes == 64
        assert mesh.n_elements == 6 * 27
        assert validate(mesh) == []
        assert len(mesh.interior_ids) == 8

    def test_fills_the_cube(self):
        mesh = gen_box_tets(3, 3, 3, size=2.0)
        from femwarp.mesh import signed_measures

        assert signed_measures(mesh).sum() == pytest.approx(8.0, rel=1e-12)

    def test_conforming_faces(self):
        faces = interior_edge_counts(gen_box_tets(3, 3, 3))
        assert set(faces.values()) <= {1, 2}

    def test_surface_nodes_boundary(self):
        mesh = gen_box_tets(4, 4, 4)
        on_surface = (
            (np.abs(mesh.coords) < 1e-12) | (np.abs(mesh.coords - 1.0) < 1e-12)
        ).any(axis=1)
        assert np.array_equal(mesh.boundary, on_surface)

    @pytest.mark.parametrize("size", [-1.0, 0.0, np.nan, np.inf])
    def test_size_positive_and_finite(self, size):
        # size -1 used to give 48 elements on 3x3x3 nodes, all reversed, and
        # nan nan coordinates
        with raises_coded(InvalidSpecError, "INVALID_SPEC"):
            gen_box_tets(3, 3, 3, size=size)


# sha256 of coords, elements and boundary_ids bytes, recorded from the
# per-cell loop generators that the grid builder replaced (numpy 2, x86-64;
# annulus coordinates go through np.cos/np.sin, so another libm may round
# them differently)
PINNED = [
    (gen_annulus, (0.5, 128, 512),
     "8760ae8ea7cfe93b1eb7ad72e483e0d7551d9891a19542f4359e7f2d08082695",
     "851deebdd2ab58859066dc61f5c9a7f0559a4df56c02bc31b1047a9593e27556",
     "adb1051045a44f7268329433c7b476977aa135a28a32a5984823756a7871fb4e"),
    (gen_annulus, (0.5, 8, 60),
     "f4eef9154538e1ecb6e61d5fcf77aa6a948d1b76fad7a1a871abd18b0c4f9ada",
     "6a0ce5729eabf23470fe4fd6831f2bb8da4500485d2ebcf291e514d656647a83",
     "3e9edbaeb7078fc76c1e359d97ca1a8d504017bb53eae3f3d98c5b545ce8c319"),
    (gen_annulus, (0.5, 14, 64),
     "163df00d4e2fd2b286ec3cfd35dc5bd8b44b48f8202bf0751bcea754ebd0096d",
     "8e0d321a6b5183651f5563b11f81eb1e14924015cc6fe69a2f44742b05ce8c63",
     "ffb409389ab8e6fb3c067ecd774a89a8de8f7483082dc4ea8b8f3a532e58bbe8"),
    (gen_annulus, (0.3, 2, 8),
     "9ebe04206422e1e3415b57a3360bf0daec34a429df643cfd81f1d12f2ad33ef4",
     "018636417f34cdd46c3c8abd3bfd57e55661c29a2bd40a1cd5fff2bb0edbb498",
     "f23d672bb9b341f9afa8498423b75deb80e726145969391d4b9392464c2298ee"),
    (gen_rectangle, (2, 1, 21, 11),
     "0fa15ea6bea41edd859af67ff3491b0b7c9fb63e5efebe2fb7992e68202e4eef",
     "e4fba51e8faf601e2dc474a59d3f8680198fc9a841e69e6992d327686f099f59",
     "0acef4c5cd32560b3eeb6556a65192ee0d2e0ac3869f6bf42ab47826a9f36d8c"),
    (gen_rectangle, (1, 3, 2, 5),
     "1a310af4e04299b517d38da41b1db576adb85146084a18765be1061e12880637",
     "9494d9c5f7bc4695640406859ac8da1fb8cfa4cf8d3d82c84f6e15d7c21909c0",
     "23c379d6c0f22ef64cdef873fd530df1f1419b4a3935e9323d5f1d82ca697b6a"),
    (gen_box_tets, (20, 20, 20, 3.0),
     "cc9e4f6c463e2fcb2a50bece062dbbe7eef265f172ae851acec74b93761fd12c",
     "af6fc5b2eadb57511d30e716e08a503cd7eadc62cf96ef17cdcc82dd4fccc517",
     "9e18d1752ea889cbaaedce503cbb9ca1598d036bede2649cde4a0367ea0d85cd"),
    (gen_box_tets, (2, 3, 4),
     "7d95d01f5531d7ed0589e7e34ef4347480b71f8add1d7740a6ce491b20ea6596",
     "d45701700752e78b168ec855e3a0d5a5a17527db4baa78e364c40137a767b4af",
     "088889b8071756d3559dc2172e525644f0be09d4b3fb26a697070bddcb805338"),
    (gen_box_tets, (4, 4, 4),
     "35427d9cd5c20f95ddf27e036ec08f30ef080d4126436a3117e3a766c327d379",
     "fb7670971665e948cd9d8b03541c2ea7897fd53c5a1ee44bb7f937a3ed316e29",
     "1f640700fdb2fee3d4f3c35831f7317ebd2a906c69eb703c4ddb8566d74d7002"),
]


@pytest.mark.parametrize(
    "gen, args, coords_sha, elements_sha, boundary_sha",
    PINNED,
    ids=[f"{gen.__name__}{args}" for gen, args, *_ in PINNED],
)
def test_bytes_pinned(gen, args, coords_sha, elements_sha, boundary_sha):
    mesh = gen(*args)
    digest = [
        hashlib.sha256(a.tobytes()).hexdigest()
        for a in (mesh.coords, mesh.elements, mesh.boundary_ids)
    ]
    assert digest == [coords_sha, elements_sha, boundary_sha]
