"""Structured annulus, rectangle and box fixtures."""

import numpy as np
import pytest

from femwarp import gen_annulus, gen_box_tets, gen_rectangle
from femwarp.assembly import build_weights
from femwarp.errors import NoInteriorError
from femwarp.mesh import count_reversals, is_valid, max_edge_length, validate


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
            assert is_valid(mesh)

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
        with pytest.raises(ValueError):
            gen_annulus(1.5, 4, 12)
        with pytest.raises(ValueError):
            gen_annulus(0.5, 1, 12)
        with pytest.raises(ValueError):
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
        with pytest.raises(ValueError):
            gen_rectangle(1.0, 1.0, 1, 5)


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
