"""Mesh container, orientation predicates and quality metrics."""

import dataclasses
import math
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femwarp import Mesh, gen_annulus, gen_box_tets, gen_rectangle
from femwarp.assembly import _stiffness
from femwarp.errors import BadIndexError, DegenerateElementError, ReversedElementError, ShapeError
from femwarp.mesh import (
    _columns,
    _geometry,
    _gradients,
    _reversed,
    aspect_ratio,
    count_reversals,
    inverse_mean_ratio,
    max_edge_length,
    quality_report,
    signed_measure,
    signed_measures,
    validate,
    Violation,
)
from femwarp.untangle import untangle

from conftest import jittered, raises_coded
from oracles import (
    det_measures,
    face_loop_aspect_ratio,
    inverse_mean_ratio_by_inverse,
    stack_aspect_ratios,
    stack_edge_lengths,
    stack_inverse_mean_ratios,
    stack_measure_gradients,
    stack_measures,
    stack_quality_report,
    stack_stiffness,
)

UNIT_RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
EQUILATERAL = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
UNIT_TET = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)
REGULAR_TET = np.array(
    [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.5, np.sqrt(3.0) / 2.0, 0.0],
        [0.5, np.sqrt(3.0) / 6.0, np.sqrt(6.0) / 3.0],
    ]
)


def nondegenerate_triangles(min_area=1e-3):
    coord = st.floats(-10.0, 10.0)
    return (
        st.tuples(*(st.tuples(coord, coord) for _ in range(3)))
        .map(np.array)
        .filter(lambda p: abs(signed_measure(p)) > min_area)
    )


class TestSignedMeasure:
    def test_unit_right_triangle(self):
        assert signed_measure(UNIT_RIGHT) == 0.5

    def test_swapped_orientation(self):
        assert signed_measure(UNIT_RIGHT[[0, 2, 1]]) == -0.5

    def test_unit_tetrahedron(self):
        assert signed_measure(UNIT_TET) == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_degenerate_returns_zero(self):
        collinear = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert signed_measure(collinear) == 0.0

    @given(nondegenerate_triangles(), st.permutations(range(3)))
    def test_permutation_alternates_sign(self, tri, perm):
        sign = np.sign(np.linalg.det(np.eye(3)[list(perm)]))
        assert signed_measure(tri[list(perm)]) == pytest.approx(
            sign * signed_measure(tri), rel=1e-12
        )

    @given(
        nondegenerate_triangles(),
        st.tuples(*(st.floats(-2.0, 2.0) for _ in range(4))),
        st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    )
    def test_affine_image_scales_by_det(self, tri, lvals, v):
        l = np.array(lvals).reshape(2, 2)
        # det(l) in closed form: LAPACK's det warns on a subnormal pivot
        expected = (lvals[0] * lvals[3] - lvals[1] * lvals[2]) * signed_measure(tri)
        got = signed_measure(tri @ l.T + np.array(v))
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-9)

    def test_vectorized_matches_scalar(self, annulus_coarse):
        meas = signed_measures(annulus_coarse)
        for eid in (0, 7, annulus_coarse.n_elements - 1):
            assert meas[eid] == pytest.approx(
                signed_measure(annulus_coarse.coords[annulus_coarse.elements[eid]]), rel=1e-14
            )


class TestCountReversals:
    def test_fresh_annulus_has_none(self, annulus_coarse):
        assert count_reversals(annulus_coarse) == (0, [])

    def test_reflected_vertex_reverses(self, annulus_coarse):
        mesh = annulus_coarse
        vid = mesh.interior_ids[0]
        eid = int(np.argmax((mesh.elements == vid).any(axis=1)))
        tri = mesh.elements[eid]
        others = mesh.coords[[v for v in tri if v != vid]]
        # reflect the vertex across its opposite edge
        base, direction = others[0], others[1] - others[0]
        direction = direction / np.linalg.norm(direction)
        rel = mesh.coords[vid] - base
        mirrored = base + 2 * (rel @ direction) * direction - rel
        coords = np.array(mesh.coords)
        coords[vid] = mirrored
        n, ids = count_reversals(mesh.with_coords(coords))
        assert n >= 1 and eid in ids

    def test_point_reflection_of_all_nodes_preserves_orientation(self, annulus_coarse):
        flipped = annulus_coarse.with_coords(-annulus_coarse.coords)
        assert count_reversals(flipped)[0] == 0

    def test_zero_reversals_iff_valid(self, annulus_coarse, rng):
        assert not validate(annulus_coarse)
        coords = np.array(annulus_coarse.coords)
        coords[annulus_coarse.interior_ids[3]] += 5.0
        broken = annulus_coarse.with_coords(coords)
        assert count_reversals(broken)[0] > 0
        assert validate(broken)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("where", ["boundary", "interior"])
    def test_nan_node_reverses_its_elements(self, where):
        # a NaN measure is never positive, so it is never taken as valid
        mesh = gen_rectangle(2.0, 1.0, 5, 4)
        vid = getattr(mesh, f"{where}_ids")[0]
        coords = np.array(mesh.coords)
        coords[vid, 0] = np.nan
        broken = mesh.with_coords(coords)
        incident = np.flatnonzero((mesh.elements == vid).any(axis=1)).tolist()
        assert count_reversals(broken) == (len(incident), incident)
        reversed_ids = [v.where for v in validate(broken) if v.code == "REVERSED_ELEMENT"]
        assert reversed_ids == incident
        assert quality_report(broken).reversal_count == len(incident)
        assert untangle(broken)[2] != "SUCCESS"


class TestAspectRatio:
    def test_equilateral(self):
        assert aspect_ratio(EQUILATERAL) == pytest.approx(2.0 / np.sqrt(3.0), rel=1e-12)

    def test_unit_right_triangle(self):
        assert aspect_ratio(UNIT_RIGHT) == pytest.approx(2.0, rel=1e-12)

    def test_needle(self):
        # h = 1, area = 5e-10, min altitude = 2*area/h = 1e-9
        needle = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-9]])
        assert aspect_ratio(needle) == pytest.approx(1e9, rel=1e-6)

    @pytest.mark.parametrize(
        "tet, expected",
        [(REGULAR_TET, np.sqrt(6.0) / 2.0), (UNIT_TET, np.sqrt(6.0))],
        ids=["regular", "unit"],
    )
    def test_tetrahedra(self, tet, expected):
        # regular: h = 1 over altitude sqrt(2/3); unit: h = sqrt(2) over the
        # altitude 1/sqrt(3) onto the slanted face
        assert aspect_ratio(tet) == pytest.approx(expected, rel=1e-12)
        assert aspect_ratio(tet[[0, 2, 1, 3]]) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_inf_or_raise(self):
        flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert aspect_ratio(flat) == np.inf

    @given(
        nondegenerate_triangles(),
        st.floats(0.0, 2 * np.pi),
        st.floats(0.1, 10.0),
        st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    )
    @settings(max_examples=50)
    def test_similarity_invariance(self, tri, angle, scale, shift):
        rot = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        moved = scale * (tri @ rot.T) + np.array(shift)
        assert aspect_ratio(moved) == pytest.approx(aspect_ratio(tri), rel=1e-10)


class TestInverseMeanRatio:
    def test_equilateral_is_one(self):
        assert inverse_mean_ratio(EQUILATERAL) == pytest.approx(1.0, rel=1e-12)

    def test_regular_tet_is_one(self):
        assert inverse_mean_ratio(REGULAR_TET) == pytest.approx(1.0, rel=1e-12)

    def test_unit_right_triangle(self):
        # ||T||_F^2/(2 det T) with T the map from the reference equilateral
        ref = np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]])
        t = (UNIT_RIGHT[1:] - UNIT_RIGHT[0]).T @ np.linalg.inv(ref)
        expected = (t * t).sum() / (2.0 * np.linalg.det(t))
        assert expected == pytest.approx(2.0 / np.sqrt(3.0), rel=1e-12)
        assert inverse_mean_ratio(UNIT_RIGHT) == pytest.approx(expected, rel=1e-12)

    def test_reversed_raises(self):
        with pytest.raises(ReversedElementError):
            inverse_mean_ratio(UNIT_RIGHT[[0, 2, 1]])

    @given(
        nondegenerate_triangles(),
        st.floats(0.0, 2 * np.pi),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=50)
    def test_similarity_invariance(self, tri, angle, scale):
        if signed_measure(tri) < 0:
            tri = tri[[0, 2, 1]]
        rot = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        moved = scale * (tri @ rot.T) + 3.0
        assert inverse_mean_ratio(moved) == pytest.approx(
            inverse_mean_ratio(tri), rel=1e-10
        )

    def test_always_at_least_one(self, rng):
        for _ in range(50):
            tri = rng.uniform(-1, 1, size=(3, 2))
            if signed_measure(tri) <= 1e-6:
                continue
            assert inverse_mean_ratio(tri) >= 1.0 - 1e-12


class TestValidate:
    def test_single_triangle_h(self):
        mesh = Mesh(UNIT_RIGHT, np.array([[0, 1, 2]]), [0, 1, 2])
        assert max_edge_length(mesh) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_boundary_id_out_of_range_rejected(self):
        elements = np.array([[0, 1, 2]])
        for ids in ([-1], [0, 3]):
            with pytest.raises(BadIndexError):
                Mesh(UNIT_RIGHT, elements, ids)

    def test_bad_index_violation(self):
        # an element id outside [0, n) is refused when the mesh is built,
        # naming the first bad element; -1 used to read node n-1 silently
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        for bad in (-1, 4, 7):
            elements = np.array([[0, 1, 2], [0, 2, 3], [1, bad, 2], [3, bad, 0]])
            with pytest.raises(BadIndexError, match="element 2 ") as info:
                Mesh(square, elements, [0, 1, 2, 3])
            assert info.value.code == "BAD_INDEX"

    @pytest.mark.parametrize(
        "elements, boundary, match",
        [
            ([[0, 1.7, 2.2]], [0], "elements: 1.7 "),
            ([[0, 1, 2]], [1.5, 2.9], "boundary: 1.5 "),
            ([[0, 1, 2]], [np.nan], "boundary: nan "),
            ([[0, 1, 2]], [np.inf], "boundary: inf "),
            ([[0, 1, 2]], [1e30], "boundary: 1e\\+30 "),
            ([[0, 1, 2]], 5, "node ids or a boolean mask"),
            ([[0, 1, 2]], np.array(5), "node ids or a boolean mask"),
            ([[0, 1, 2]], [[1, 2]], "node ids or a boolean mask"),
            ([[0, 1, 2]], ["a"], "integer node ids"),
            ([[0, 1, "x"]], [0], "integer node ids"),
            ([[0, 1, 2 + 1j]], [0], "integer node ids"),
        ],
        ids=[
            "fractional_element",
            "fractional_boundary",
            "nan",
            "inf",
            "huge",
            "scalar",
            "zero_d",
            "two_d",
            "text_boundary",
            "text_element",
            "complex_element",
        ],
    )
    def test_non_integral_ids_refused(self, elements, boundary, match):
        # each used to be truncated, or raised an uncoded TypeError or
        # ValueError
        with pytest.raises(BadIndexError, match=match) as info:
            Mesh(UNIT_RIGHT, elements, boundary)
        assert info.value.code == "BAD_INDEX"

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.int64, float])
    def test_integral_ids_of_any_dtype_kept(self, dtype):
        mesh = Mesh(UNIT_RIGHT, np.array([[0, 1, 2]], dtype=dtype), np.array([1, 2], dtype=dtype))
        assert mesh.elements.dtype == np.int64 and mesh.elements.tolist() == [[0, 1, 2]]
        assert mesh.boundary_ids.tolist() == [1, 2]

    def test_duplicate_node_violation(self):
        mesh = Mesh(UNIT_RIGHT, np.array([[0, 1, 1]]), [0])
        codes = [v.code for v in validate(mesh)]
        assert "DEGENERATE_ELEMENT" in codes

    @pytest.mark.parametrize("dim", [2, 3])
    def test_duplicate_nodes_match_loop(self, dim):
        mesh = gen_annulus(0.5, 3, 12) if dim == 2 else gen_box_tets(3, 3, 3)
        elements = np.array(mesh.elements)
        elements[1, 1] = elements[1, 0]  # adjacent repeat
        elements[4, -1] = elements[4, 0]  # first and last
        elements[5] = elements[5, 1]  # every id the same
        elements[-1, 1] = elements[-1, -1]
        bad = Mesh(mesh.coords, elements, mesh.boundary_ids)
        want = [
            Violation("DEGENERATE_ELEMENT", eid, "repeated node id in element")
            for eid, elem in enumerate(elements)
            if len(set(elem.tolist())) != len(elem)
        ]
        got = validate(bad)
        assert len(want) == 4 and got[:4] == want
        assert all(type(v.where) is int for v in got)

    def test_unused_node_violation(self):
        coords = np.vstack([UNIT_RIGHT, [5.0, 5.0]])
        mesh = Mesh(coords, np.array([[0, 1, 2]]), [0])
        assert any(v.code == "UNUSED_NODE" and v.where == 3 for v in validate(mesh))

    def test_clean_mesh_no_violations(self, annulus_coarse):
        assert validate(annulus_coarse) == []

    @pytest.mark.parametrize("dim", [2, 3])
    def test_unmarked_boundary_violation(self, dim):
        mesh = gen_annulus(0.5, 6, 48) if dim == 2 else gen_box_tets(4, 4, 4)
        ids = mesh.boundary_ids
        dropped = ids[[0, len(ids) // 2, -1]].tolist()
        bad = Mesh(mesh.coords, mesh.elements, np.setdiff1d(ids, dropped))
        want = [
            Violation("UNMARKED_BOUNDARY", nid, "node on a boundary facet not marked boundary")
            for nid in dropped
        ]
        assert validate(bad) == want
        assert all(type(v.where) is int for v in validate(bad))
        # an interior node marked boundary is no violation: a caller may
        # prescribe it
        extra = Mesh(mesh.coords, mesh.elements, [*ids, mesh.interior_ids[0]])
        assert validate(extra) == []


def check_against_oracles(mesh):
    q = quality_report(mesh)
    pts = mesh.coords[mesh.elements]
    meas = signed_measures(mesh)
    aspects = [face_loop_aspect_ratio(p) for p in pts]
    imrs = [inverse_mean_ratio_by_inverse(p) for p in pts]
    assert q.min_measure == pytest.approx(meas.min(), rel=1e-12)
    assert q.mean_measure == pytest.approx(meas.mean(), rel=1e-12)
    assert q.min_aspect == pytest.approx(min(aspects), rel=1e-12)
    assert q.max_aspect == pytest.approx(max(aspects), rel=1e-12)
    assert q.mean_aspect == pytest.approx(np.mean(aspects), rel=1e-12)
    assert q.min_imr == pytest.approx(min(imrs), rel=1e-12)
    assert q.mean_imr == pytest.approx(np.mean(imrs), rel=1e-12)
    assert q.reversal_count == 0
    edges = [np.linalg.norm(a - b) for p in pts for a, b in combinations(p, 2)]
    assert q.h == pytest.approx(max(edges), rel=1e-15)
    assert q.h == max_edge_length(mesh)


def assert_same_scale_free_fields(got, want, k):
    """``got`` reports ``want``'s mesh scaled by 2**k: ``h`` times 2**k,
    and the aspects, inverse mean ratios and near-degenerate count bit-equal,
    all finite."""
    fields = ["min_aspect", "max_aspect", "mean_aspect", "min_imr", "max_imr", "mean_imr"]
    values = [getattr(got, f) for f in fields]
    assert np.isfinite([got.h, *values]).all()
    assert got.h == np.ldexp(want.h, k)
    assert repr(values) == repr([getattr(want, f) for f in fields])
    assert got.near_degenerate_count == want.near_degenerate_count


class TestQualityReport:
    def test_matches_per_element_metrics(self, annulus_coarse):
        check_against_oracles(annulus_coarse)

    def test_matches_per_element_metrics_3d(self, box_mesh, rng):
        coords = np.array(box_mesh.coords)
        ii = box_mesh.interior_ids
        coords[ii] += rng.uniform(-0.02, 0.02, size=(len(ii), 3))
        check_against_oracles(box_mesh.with_coords(coords))

    def test_tangled_mesh_still_summarizes(self, annulus_coarse):
        coords = np.array(annulus_coarse.coords)
        coords[annulus_coarse.interior_ids[0]] += 10.0
        q = quality_report(annulus_coarse.with_coords(coords))
        assert q.reversal_count > 0
        assert q.min_measure < 0

    def test_fully_reversed_mesh_reports_nan_imr(self):
        rect = gen_rectangle(1.0, 1.0, 4, 4)
        flipped = rect.with_coords(rect.coords * [-1.0, 1.0])  # x -> -x
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = quality_report(flipped)
        assert q.reversal_count == flipped.n_elements
        assert np.isnan([q.min_imr, q.max_imr, q.mean_imr]).all()

    def test_3d_report(self, box_mesh):
        q = quality_report(box_mesh)
        assert q.reversal_count == 0
        assert q.min_imr >= 1.0 - 1e-12

    @pytest.mark.filterwarnings("error")
    def test_stretched_box_matches_scaled_copy(self):
        # finite measures near 2e198, but squared edges and cross products
        # past the largest float: the report scales by a power of two
        box = gen_box_tets(3, 3, 3)
        stretched = box.with_coords(box.coords * [1e200, 1.0, 1.0])
        got = quality_report(stretched)
        copy = quality_report(stretched.with_coords(np.ldexp(stretched.coords, -600)))
        assert_same_scale_free_fields(got, copy, 600)
        assert got.reversal_count == 0 and got.min_measure > 0.0
        # the longest edge is the x edge of a cell, 1e200 / 2
        assert math.isclose(got.h, 0.5e200, rel_tol=1e-15)
        assert got.near_degenerate_count == stretched.n_elements

    @pytest.mark.filterwarnings("error")
    def test_far_degenerate_line_scales_within_range(self):
        # every node at x = 1e300 with y spread over 2**-200: only the y
        # extent is nonzero, and scaling it to 1 would take x past the
        # largest float, so the scale stops short of that
        rect = gen_rectangle(2.0, 1.0, 3, 3)
        y = np.ldexp(rect.coords[:, 1], -200)
        line = rect.with_coords(np.column_stack([np.full(rect.n_nodes, 1e300), y]))
        q = quality_report(line)
        assert q.reversal_count == line.n_elements and q.h == np.ldexp(0.5, -200)
        # at x = 0 the zero x extent takes no part in the scale either:
        # halfway between it and the y extent, y**2 rounds in the subnormals
        flat = Mesh(np.array([[0.0, 0.0], [0.0, 1e-308], [0.0, 1.5e-308]]), [[0, 1, 2]])
        assert quality_report(flat).h == 1.5e-308

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [-520, -60, -30, 30, 60, 520])
    def test_far_scaled_annulus_matches_unit_scale(self, annulus_coarse, box_mesh, k):
        # each element is computed on its copy scaled by its own power of
        # two, so a jittered annulus or box scaled by 2**k reports the same
        # aspects and ratios, in 3D too, and h times 2**k; its measures, of
        # the coordinates as they are, scale by 2**(d k) while in range
        for mesh in (jittered(annulus_coarse, 5), jittered(box_mesh, 5)):
            got = quality_report(mesh.with_coords(np.ldexp(mesh.coords, k)))
            want = quality_report(mesh)
            assert_same_scale_free_fields(got, want, k)
            if abs(k) <= 60:
                fields = ["min_measure", "max_measure", "mean_measure"]
                scaled = [np.ldexp(getattr(want, f), mesh.dim * k) for f in fields]
                assert [getattr(got, f) for f in fields] == scaled
                assert got.reversal_count == want.reversal_count == 0


class TestMeshContainer:
    def test_immutability(self, annulus_coarse):
        with pytest.raises((ValueError, RuntimeError)):
            annulus_coarse.coords[0, 0] = 99.0

    def test_with_coords_keeps_topology(self, annulus_coarse):
        moved = annulus_coarse.with_coords(annulus_coarse.coords * 2.0)
        assert np.array_equal(moved.elements, annulus_coarse.elements)
        assert np.array_equal(moved.boundary, annulus_coarse.boundary)

    def test_with_coords_shares_connectivity(self):
        mesh = gen_annulus(0.5, 6, 24)
        topology = mesh.topology
        coords = mesh.coords * 2.0
        moved = mesh.with_coords(coords)
        coords[0] = 99.0  # the caller's array stays the caller's
        assert np.array_equal(moved.coords, mesh.coords * 2.0)
        assert not moved.coords.flags.writeable
        assert moved.elements is mesh.elements
        assert moved.boundary is mesh.boundary
        assert moved.topology is topology

    def test_equality_and_hash_by_identity(self):
        mesh = gen_annulus(0.5, 6, 24)
        copy = mesh.with_coords(mesh.coords)
        assert mesh == mesh and not mesh != mesh
        assert mesh != copy and not mesh == copy
        assert hash(mesh) == hash(mesh)
        assert len({mesh, copy, mesh}) == 2
        assert {mesh: 1}[mesh] == 1

    @pytest.mark.parametrize("rows, cols", [(1, 0), (-1, 0), (0, 1)])
    def test_with_coords_refuses_another_shape(self, annulus_coarse, rows, cols):
        n, d = annulus_coarse.coords.shape
        with raises_coded(ShapeError, "BAD_SHAPE", match="shape"):
            annulus_coarse.with_coords(np.zeros((n + rows, d + cols)))

    def test_counts_partition(self, annulus_coarse):
        m = len(annulus_coarse.interior_ids)
        b = len(annulus_coarse.boundary_ids)
        assert m + b == annulus_coarse.n_nodes
        assert m >= 1

    def test_boundary_mask_round_trips(self):
        # the constructor and dataclasses.replace read a mesh's boolean
        # boundary as the mask itself, not as node ids 0 and 1
        mesh = gen_annulus(0.5, 6, 48)
        assert len(mesh.boundary_ids) == 96
        copies = [
            Mesh(mesh.coords, mesh.elements, mesh.boundary),
            dataclasses.replace(mesh, coords=mesh.coords * 2.0),
            Mesh(mesh.coords, mesh.elements, mesh.boundary.tolist()),
        ]
        for copy in copies:
            assert np.array_equal(copy.boundary, mesh.boundary)
            assert len(copy.boundary_ids) == 96

    @pytest.mark.parametrize(
        "bad",
        [
            lambda b: b[:-1],
            lambda b: np.append(b, True),
            lambda b: b.reshape(-1, 1),
            lambda b: [True, False],
            lambda b: True,
            lambda b: np.True_,
        ],
        ids=["short", "long", "column", "short_list", "scalar", "numpy_scalar"],
    )
    def test_other_boolean_boundary_refused(self, bad):
        mesh = gen_annulus(0.5, 6, 48)
        with pytest.raises(BadIndexError, match="boolean boundary mask") as info:
            Mesh(mesh.coords, mesh.elements, bad(mesh.boundary))
        assert info.value.code == "BAD_INDEX"

    def test_caller_array_not_frozen(self):
        coords = np.array(UNIT_RIGHT)
        Mesh(coords, np.array([[0, 1, 2]]), [0, 1, 2])
        coords[0, 0] = 42.0  # caller's buffer must stay writable


UNIT_SIMPLEX = {2: UNIT_RIGHT, 3: UNIT_TET}


def jittered_stack(seed, dim, jitter, k=40):
    """k unit right simplices, each vertex jittered by up to ``jitter`` per
    axis, scaled by 1e-3..1e3 and shifted within [-100, 100]; about a
    third are reflected by swapping their first two vertices."""
    rng = np.random.default_rng(seed)
    base = UNIT_SIMPLEX[dim] + rng.uniform(-jitter, jitter, (k, dim + 1, dim))
    scale = 10.0 ** rng.uniform(-3.0, 3.0, (k, 1, 1))
    pts = rng.uniform(-100.0, 100.0, (k, 1, dim)) + scale * base
    flip = rng.random(k) < 0.3
    pts[flip, :2] = pts[flip, 1::-1]
    return pts


def stack_mesh(pts):
    """A (k, d+1, d) stack as a mesh of k disconnected elements."""
    k, n, d = pts.shape
    return Mesh(pts.reshape(-1, d), np.arange(k * n).reshape(k, n))


STACKS = (st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.floats(0.0, 0.15))


class TestGeometryKernel:
    """The per-axis kernel against the stack kernels it replaced."""

    @given(*STACKS)
    @settings(max_examples=60, deadline=None)
    def test_measures_match_det(self, seed, dim, jitter):
        pts = jittered_stack(seed, dim, jitter)
        want = det_measures(pts)
        edges = pts[:, 1:] - pts[:, :1]
        bound = 1e-14 * np.prod(np.linalg.norm(edges, axis=2), axis=1)
        stack = _geometry(np.moveaxis(pts, 2, 0))[0]
        for got in (stack, signed_measures(stack_mesh(pts))):
            if dim == 2:
                assert np.array_equal(got, want)
            else:
                assert (np.abs(got - want) <= bound).all()

    @given(*STACKS)
    @settings(max_examples=60, deadline=None)
    def test_quality_matches_stack_kernels(self, seed, dim, jitter):
        pts = jittered_stack(seed, dim, jitter)
        meas = det_measures(pts)
        longest = stack_edge_lengths(pts).max(axis=1)
        _, got_longest, aspect, imr, _ = _geometry(np.moveaxis(pts, 2, 0), quality=True)
        np.testing.assert_allclose(got_longest, longest, rtol=1e-13)
        np.testing.assert_allclose(
            aspect, stack_aspect_ratios(pts, meas, longest), rtol=1e-13
        )
        np.testing.assert_allclose(imr, stack_inverse_mean_ratios(pts, meas), rtol=1e-13)
        mesh = stack_mesh(pts)
        got = quality_report(mesh).as_dict()
        # measures of both signs cancel in their mean, so its rounding
        # scales with the mean magnitude
        scale = {"mean_measure": np.abs(meas).mean()}
        for key, want in stack_quality_report(mesh).as_dict().items():
            tol = 1e-13 * abs(scale.get(key, want))
            assert got[key] == pytest.approx(want, rel=0.0, abs=tol, nan_ok=True), key

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3]),
        st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_finite_coordinates(self, seed, dim, value):
        pts = jittered_stack(seed, dim, 0.15)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            pts[rng.integers(len(pts)), rng.integers(dim + 1), rng.integers(dim)] = value
        got = _geometry(np.moveaxis(pts, 2, 0))[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = det_measures(pts)
        assert np.array_equal(_reversed(got), _reversed(want))
        # for a tet holding an inf, LAPACK's LU and the triple product may
        # disagree on nan against +-inf; both are non-finite and reversed
        pattern = np.isnan if dim == 2 or np.isnan(value) else np.isfinite
        assert np.array_equal(pattern(got), pattern(want))

    def test_report_builds_no_edge_stack(self):
        # a (k, 6, 3) edge stack from two gathered (k, 6, 3) operands would
        # take the traced peak of the report past half the stack kernels'
        mesh = gen_box_tets(20, 20, 20, size=3.0)
        peaks = []
        for report in (quality_report, stack_quality_report):
            tracemalloc.start()
            report(mesh)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[0] < 0.5 * peaks[1]


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def degenerate(stiffness, stack):
    """(element, measure bits) of the DEGENERATE_ELEMENT that
    ``stiffness(stack)`` raises, or None."""
    try:
        stiffness(stack)
    except DegenerateElementError as err:
        return err.context["element"], np.float64(err.context["measure"]).tobytes()
    return None


class TestGradientKernel:
    """The per-axis measure gradients and P1 stiffness against the stack
    formulas they replaced, bit for bit."""

    @staticmethod
    def check(pts):
        """The kernels' gradients of the stack ``pts``, the stiffness of its
        simplices with a measure in (0, inf) and the DEGENERATE_ELEMENT of
        the whole stack equal the stack oracles'; the kernels stay silent
        where the oracles warn."""
        cols = np.moveaxis(pts, 2, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            meas = stack_measures(pts)
            good = (meas > 0.0) & (meas < np.inf)
            want_g = stack_measure_gradients(pts)
            want_k = stack_stiffness(pts[good])
            want_error = degenerate(stack_stiffness, pts)
        assert_same_bits(np.moveaxis(_gradients(cols), 0, 2), want_g)
        assert_same_bits(_stiffness(cols[:, good]), want_k)
        assert degenerate(_stiffness, cols) == want_error

    @pytest.mark.parametrize(
        "make", [lambda: gen_annulus(0.5, 16, 64), lambda: gen_box_tets(6, 6, 6)],
        ids=["annulus", "box"],
    )
    def test_jittered_meshes(self, make):
        mesh = jittered(make(), 11, frac=0.2)
        pts = mesh.coords[mesh.elements]
        self.check(pts)
        assert_same_bits(_stiffness(_columns(mesh)), stack_stiffness(pts))

    @given(*STACKS)
    @settings(max_examples=60, deadline=None)
    def test_stacks(self, seed, dim, jitter):
        self.check(jittered_stack(seed, dim, jitter))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3]),
        st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308]),
    )
    @settings(max_examples=80, deadline=None)
    def test_non_finite_or_huge_coordinates(self, seed, dim, value):
        pts = jittered_stack(seed, dim, 0.15)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            pts[rng.integers(len(pts)), rng.integers(dim + 1), rng.integers(dim)] = value
        self.check(pts)
