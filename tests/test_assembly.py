"""Stiffness assembly and the three weight schemes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from femwarp import Mesh, gen_annulus, gen_box_tets, gen_rectangle
from femwarp.assembly import (
    _barrier_newton,
    _stiffness,
    _strictly_inside_hull,
    assemble_stiffness,
    build_weights,
    fem_weights,
    local_stiffness,
    log_barrier_weights,
    row_system,
    uniform_weights,
)
from femwarp.errors import (
    BadIndexError,
    DegenerateElementError,
    InvalidSpecError,
    NodeNotInteriorError,
    NoInteriorError,
    SingularSystemError,
)
from femwarp.solve import factor

from conftest import jittered, raises_coded
from oracles import (
    assembled_blocks,
    barrier_node_weights,
    barrier_weights_dplus1,
    cotangent_stiffness,
    inverse_stiffness,
    node_neighbors,
    random_star,
    strictly_inside_hull_highs,
    weight_residual,
)

UNIT_RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def square_with_center():
    """Unit square, four corners plus one interior node at the centroid."""
    coords = np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]]
    )
    elements = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    return Mesh(coords, elements, [0, 1, 2, 3])


# flat triangles of positive area at x = +-1.5e308: the stack's x extent
# overflows, their own extents do not
FAR_FLATS = [[[x, 0.0], [x + abs(x) * 1e-15, 0.0], [x, 1e-300]] for x in (1.5e308, -1.5e308)]


class TestLocalStiffness:
    def test_unit_right_triangle(self):
        expected = np.array(
            [[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]]
        )
        assert np.allclose(local_stiffness(UNIT_RIGHT), expected, atol=1e-14)

    def test_cotangent_oracle_random_triangles(self, rng):
        for _ in range(30):
            tri = rng.uniform(-2, 2, size=(3, 2))
            area = 0.5 * np.linalg.det(tri[1:] - tri[0])
            if area < 1e-3:
                continue
            assert np.allclose(
                local_stiffness(tri), cotangent_stiffness(tri), atol=1e-10
            )

    def test_row_sums_zero(self, rng):
        tri = rng.uniform(0, 3, size=(3, 2))
        if 0.5 * np.linalg.det(tri[1:] - tri[0]) < 0:
            tri = tri[[0, 2, 1]]
        k = local_stiffness(tri)
        assert np.abs(k.sum(axis=1)).max() < 1e-13
        assert np.allclose(k, k.T, atol=1e-14)

    def test_scale_invariance_2d(self, rng):
        tri = np.array([[0.0, 0.0], [2.0, 0.3], [0.4, 1.7]])
        for c in (0.1, 3.0, 17.0):
            assert np.allclose(
                local_stiffness(c * tri), local_stiffness(tri), atol=1e-12
            )

    def test_3d_element_row_sums(self):
        tet = np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.1, 0.0], [0.2, 1.0, 0.0], [0.1, 0.2, 1.0]]
        )
        k = local_stiffness(tet)
        assert k.shape == (4, 4)
        assert np.abs(k.sum(axis=1)).max() < 1e-13

    @pytest.mark.parametrize(
        "pts, e, others",
        [
            ([[0.0, 0.0], [1e155, 0.0], [0.5e155, 1e-10]], -515, []),
            ([[0.0, 0.0], [1e155, 0.0], [0.5e155, 1e-10]], -515, FAR_FLATS),
            ([[0.0, 0.0, 0.0], [1e300, 0.0, 0.0], [0.0, 1e-5, 0.0], [0.0, 0.0, 1e-5]], -200, []),
            ([[0.0, 0.0, 0.0], [2.0, 0.1, 0.0], [0.2, 1.0, 0.0], [0.1, 0.2, 1.0]], 300, []),
            ([[0.0, 0.0, 0.0], [2.0, 0.1, 0.0], [0.2, 1.0, 0.0], [0.1, 0.2, 1.0]], -300, []),
        ],
        ids=["thin_triangle", "thin_triangle_among_far_flats", "needle_tet", "tet_up", "tet_down"],
    )
    def test_huge_or_tiny_elements_stay_finite(self, pts, e, others):
        # G_i.G_j over- or underflows where K does not, so K is formed on a
        # copy scaled by a power of two: it is finite, and equal to the K of
        # the element scaled by 2^e, scaled back (a 2D K has no units, a 3D
        # K scales with the length); each element has its own power of two,
        # so stacking ``others`` after it changes no bit of its K
        pts = np.array(pts)
        k = local_stiffness(pts)
        assert np.isfinite(k).all()
        back = -e * (pts.shape[1] - 2)
        assert np.array_equal(k, np.ldexp(local_stiffness(np.ldexp(pts, e)), back))
        stack = np.array([pts, *others])
        assert np.array_equal(_stiffness(np.moveaxis(stack, 2, 0))[0], k)

    def test_degenerate_rejected(self):
        flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(DegenerateElementError):
            local_stiffness(flat)

    @pytest.mark.parametrize("where", ["boundary", "interior"])
    def test_nan_node_rejected(self, where):
        # a nan measure is not positive: no weights hold nan
        mesh = gen_rectangle(2.0, 1.0, 5, 4)
        vid = getattr(mesh, f"{where}_ids")[0]
        coords = np.array(mesh.coords)
        coords[vid, 1] = np.nan
        first = int(np.flatnonzero((mesh.elements == vid).any(axis=1))[0])
        with pytest.raises(DegenerateElementError) as info:
            build_weights(mesh.with_coords(coords), "FEM")
        assert info.value.code == "DEGENERATE_ELEMENT"
        assert info.value.context["element"] == first


class TestAssemble:
    def test_two_triangle_square_pattern(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        mesh = Mesh(coords, np.array([[0, 1, 2], [0, 2, 3]]), [0, 1, 2, 3])
        a_sp = assemble_stiffness(mesh)
        a = a_sp.toarray()
        assert np.abs(a.sum(axis=1)).max() < 1e-13
        assert np.allclose(a, a.T, atol=1e-14)
        # nodes 1 and 3 share no element edge
        assert a[1, 3] == 0.0 and a[3, 1] == 0.0
        # the shared diagonal 0-2 is in the pattern (its value is 0 here:
        # both opposite angles are right angles)
        row0 = a_sp.indices[a_sp.indptr[0] : a_sp.indptr[1]]
        assert 2 in row0

    def test_single_element_equals_local(self):
        mesh = Mesh(UNIT_RIGHT, np.array([[0, 1, 2]]), [0, 1, 2])
        assert np.allclose(
            assemble_stiffness(mesh).toarray(), local_stiffness(UNIT_RIGHT), atol=1e-14
        )

    def test_interior_rows_identity(self, annulus_coarse):
        a = assemble_stiffness(annulus_coarse)
        res = (a @ annulus_coarse.coords)[annulus_coarse.interior_ids]
        assert np.abs(res).max() < 1e-12

    def test_row_sums_zero_3d(self, box_mesh):
        a = assemble_stiffness(box_mesh)
        assert np.abs(np.asarray(a.sum(axis=1))).max() < 1e-12

    def test_spsd_rayleigh(self, annulus_coarse, rng):
        a = assemble_stiffness(annulus_coarse)
        nrm = np.abs(a).max()
        for _ in range(20):
            x = rng.standard_normal(annulus_coarse.n_nodes)
            assert x @ (a @ x) >= -1e-12 * nrm * (x @ x)


class TestPartition:
    def test_square_center_1x1(self):
        mesh = square_with_center()
        w = build_weights(mesh, "FEM")
        assert w.a_ii.shape == (1, 1)
        assert w.a_ii.toarray()[0, 0] > 0.0

    def test_annulus_residual(self, annulus_coarse):
        w = build_weights(annulus_coarse, "FEM")
        res = weight_residual(w, annulus_coarse.coords)
        assert res.max() < 1e-10 * np.abs(annulus_coarse.coords).max()

    def test_two_interior_components_spd(self):
        # wall of boundary nodes down the middle splits the interior in two
        mesh = gen_rectangle(2.0, 1.0, 9, 5)
        mid = [n for n in range(mesh.n_nodes) if abs(mesh.coords[n, 0] - 1.0) < 1e-12]
        boundary = sorted(set(mesh.boundary_ids.tolist()) | set(mid))
        split = Mesh(mesh.coords, mesh.elements, boundary)
        w = build_weights(split, "FEM")
        factor(w.a_ii)  # must not raise

    def test_no_interior_error(self):
        mesh = gen_annulus(0.5, 2, 8)
        with pytest.raises(NoInteriorError):
            build_weights(mesh, "FEM")

    def test_spd_factorizes_everywhere(self, annulus_mid, rect_mesh, box_mesh):
        for mesh in (annulus_mid, rect_mesh, box_mesh):
            w = build_weights(mesh, "FEM")
            factor(w.a_ii)


class TestUniformWeights:
    def test_weights_are_reciprocal_degree(self, annulus_coarse):
        w = uniform_weights(annulus_coarse)
        neighbors = node_neighbors(annulus_coarse)
        full = np.hstack([w.a_ii.toarray(), w.a_ib.toarray()])
        cols = np.concatenate([w.interior_ids, w.boundary_ids])
        for row, nid in enumerate(w.interior_ids):
            offdiag = full[row].copy()
            offdiag[row] = 0.0
            nz = np.flatnonzero(offdiag)
            assert sorted(cols[nz].tolist()) == neighbors[nid].tolist()
            assert np.allclose(offdiag[nz], -1.0 / len(neighbors[nid]))

    def test_interior_six_neighbors(self, rect_mesh):
        neighbors = node_neighbors(rect_mesh)
        w = uniform_weights(rect_mesh)
        row = 0
        nid = w.interior_ids[row]
        assert len(neighbors[nid]) == 6
        assert np.isclose(-w.a_ii[row].toarray().min(), 1.0 / 6.0) or np.isclose(
            -w.a_ib[row].toarray().min(), 1.0 / 6.0
        )

    def test_ones_identity(self, annulus_coarse):
        w = uniform_weights(annulus_coarse)
        rowsum = w.a_ii @ np.ones(len(w.interior_ids)) + w.a_ib @ np.ones(len(w.boundary_ids))
        # exact up to the rounding of 1/|N(i)| summed |N(i)| times
        assert np.abs(rowsum).max() < 1e-14

    def test_diagonal_dominance_structure(self, annulus_coarse):
        for scheme in ("UNIFORM", "LOG_BARRIER"):
            w = build_weights(annulus_coarse, scheme)
            aii = w.a_ii.toarray()
            assert np.allclose(np.diag(aii), 1.0)
            off = aii - np.diag(np.diag(aii))
            assert off.max() <= 1e-14
            rowsums = aii.sum(axis=1)
            assert rowsums.min() >= -1e-12
            touching = np.flatnonzero(np.abs(w.a_ib.toarray()).sum(axis=1) > 0)
            assert (rowsums[touching] > 1e-12).all()


class TestLogBarrierWeights:
    def test_centroid_of_three(self):
        nbrs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        coords = np.vstack([nbrs, nbrs.mean(axis=0)])
        mesh = Mesh(coords, np.array([[0, 1, 3], [1, 2, 3], [2, 0, 3]]), [0, 1, 2])
        w = log_barrier_weights(mesh)
        vals = -np.sort(w.a_ib.toarray()[0])[::-1]
        assert np.allclose(np.sort(vals), 1.0 / 3.0, atol=1e-9)

    def test_centroid_of_square(self):
        mesh = square_with_center()
        w = log_barrier_weights(mesh)
        assert np.allclose(w.a_ib.toarray()[0], -0.25, atol=1e-9)

    def test_three_neighbor_linear_system(self):
        nbrs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        center = np.array([0.25, 0.25])
        coords = np.vstack([nbrs, center])
        mesh = Mesh(coords, np.array([[0, 1, 3], [1, 2, 3], [2, 0, 3]]), [0, 1, 2])
        w = log_barrier_weights(mesh)
        got = -w.a_ib.toarray()[0]
        expected = barrier_weights_dplus1(center, nbrs)
        assert np.allclose(expected, [0.5, 0.25, 0.25], atol=1e-12)
        assert np.allclose(got, expected, atol=1e-9)

    def test_infeasible_node_raises(self):
        nbrs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        outside = np.array([2.0, 2.0])  # outside the hull of its neighbors
        coords = np.vstack([nbrs, outside])
        mesh = Mesh(coords, np.array([[0, 1, 3], [1, 2, 3], [2, 0, 3]]), [0, 1, 2])
        with pytest.raises(NodeNotInteriorError):
            log_barrier_weights(mesh)

    def test_kkt_constraints_hold(self, annulus_coarse):
        w = log_barrier_weights(annulus_coarse)
        # weights sum to 1 per row and reproduce the node coordinates
        ones = w.a_ii @ np.ones(len(w.interior_ids)) + w.a_ib @ np.ones(len(w.boundary_ids))
        assert np.abs(ones).max() < 1e-9
        res = weight_residual(w, annulus_coarse.coords)
        assert res.max() < 1e-9

    def test_weights_strictly_positive(self, annulus_coarse, box_mesh):
        for mesh in (annulus_coarse, box_mesh):
            w = log_barrier_weights(mesh)
            offdiag_ii = w.a_ii.toarray() - np.eye(len(w.interior_ids))
            weights = np.concatenate(
                [-offdiag_ii[offdiag_ii != 0.0], -w.a_ib.toarray()[w.a_ib.toarray() != 0.0]]
            )
            assert weights.min() > 0.0

    def test_3d_constraints(self, box_mesh):
        w = log_barrier_weights(box_mesh)
        res = weight_residual(w, box_mesh.coords)
        assert res.shape == (3,)
        assert res.max() < 1e-9


class TestBuildWeights:
    def test_dispatch(self, annulus_coarse):
        # the scheme name is case-insensitive
        builders = (fem_weights, uniform_weights, log_barrier_weights)
        for scheme, build in zip(("fem", "Uniform", "LOG_BARRIER"), builders):
            got, want = build_weights(annulus_coarse, scheme), build(annulus_coarse)
            for a, b in ((got.a_ii, want.a_ii), (got.a_ib, want.a_ib)):
                assert np.array_equal(a.data, b.data)

    def test_unknown_scheme(self, annulus_coarse):
        with raises_coded(InvalidSpecError, "INVALID_SPEC"):
            build_weights(annulus_coarse, "SPRING")

    def test_scaled_unscaled_same_solution(self):
        # normalizing FEM rows by the diagonal must not change the solve
        mesh = square_with_center()
        w = build_weights(mesh, "FEM")
        rhs = -(w.a_ib @ (2.0 * mesh.coords[mesh.boundary_ids]))
        direct = np.linalg.solve(w.a_ii.toarray(), rhs)
        d = w.a_ii.diagonal()
        scaled = np.linalg.solve(w.a_ii.toarray() / d[:, None], rhs / d[:, None])
        assert np.allclose(direct, scaled, atol=1e-12)


class TestTopology:
    @pytest.mark.parametrize(
        "mesh, oracle",
        [
            (jittered(gen_annulus(0.5, 6, 24), 3), cotangent_stiffness),
            (jittered(gen_box_tets(4, 4, 4), 4), inverse_stiffness),
        ],
        ids=["annulus", "box"],
    )
    def test_fem_matches_element_oracle(self, mesh, oracle):
        w = build_weights(mesh, "FEM")
        a_ii, a_ib = assembled_blocks(mesh, oracle)
        scale = np.abs(a_ii).max()
        assert np.abs(w.a_ii.toarray() - a_ii).max() <= 1e-12 * scale
        assert np.abs(w.a_ib.toarray() - a_ib).max() <= 1e-12 * scale

    def test_reused_topology_matches_fresh(self):
        base = gen_annulus(0.5, 6, 24)
        topology = base.topology  # built before the move, so shared by it
        moved = jittered(base, 5)
        assert moved.topology is topology
        fresh_mesh = Mesh(moved.coords, moved.elements, moved.boundary_ids)
        for scheme in ("FEM", "UNIFORM", "LOG_BARRIER"):
            fresh = build_weights(fresh_mesh, scheme)
            reused = build_weights(moved, scheme)
            for a, b in ((fresh.a_ii, reused.a_ii), (fresh.a_ib, reused.a_ib)):
                assert (a != b).nnz == 0
                assert np.array_equal(a.indptr, b.indptr)
                assert np.array_equal(a.indices, b.indices)

    def test_element_id_out_of_range_rejected(self):
        # a Topology reads a Mesh, whose constructor refuses ids outside
        # [0, n), so no out-of-range id reaches the pattern
        for bad in (-1, 3):
            with pytest.raises(BadIndexError, match="element 0 "):
                Mesh(UNIT_RIGHT, np.array([[0, 1, bad]]), [0, 1])


def split_one_triangle(mesh):
    """``mesh`` with its first all-interior triangle split at its centroid:
    the new node has degree 3 and its three corners gain one neighbor."""
    inner = ~mesh.boundary[mesh.elements].any(axis=1)
    e = int(np.flatnonzero(inner)[0])
    a, b, c = mesh.elements[e]
    new = mesh.n_nodes
    coords = np.vstack([mesh.coords, mesh.coords[[a, b, c]].mean(axis=0)])
    elements = np.vstack(
        [np.delete(mesh.elements, e, axis=0), [[a, b, new], [b, c, new], [c, a, new]]]
    )
    return Mesh(coords, elements, mesh.boundary_ids)


class TestBatchedBarrier:
    """The degree-batched Newton against the one-node-at-a-time loop."""

    @pytest.mark.parametrize(
        "mesh, degrees",
        [
            (jittered(gen_box_tets(5, 5, 5), 11), [14]),
            (jittered(gen_annulus(0.5, 6, 24), 12), [6]),
            (split_one_triangle(jittered(gen_annulus(0.5, 6, 24), 13)), [3, 6, 7]),
        ],
        ids=["box", "annulus", "mixed_degree"],
    )
    def test_matches_oracle_loop(self, mesh, degrees):
        topology = mesh.topology
        rows = [
            barrier_node_weights(mesh.coords[i], mesh.coords[topology.neighbors(i)])
            for i in topology.interior_ids
        ]
        assert sorted({len(r) for r in rows}) == degrees
        expected = row_system(topology, np.concatenate(rows))
        got = log_barrier_weights(mesh)
        for a, b in ((got.a_ii, expected.a_ii), (got.a_ib, expected.a_ib)):
            assert np.array_equal(a.indices, b.indices)
            assert np.abs(a.data - b.data).max() <= 1e-12 * np.abs(b.data).max()

    def test_row_keeps_its_first_converged_iterate(self):
        # at a coarse tolerance, rows stop at different iterations and
        # further Newton steps would still move their weights
        mesh = split_one_triangle(jittered(gen_annulus(0.5, 6, 24), 13))
        topology = mesh.topology
        rows = [
            barrier_node_weights(
                mesh.coords[i], mesh.coords[topology.neighbors(i)], tol=1e-3
            )
            for i in topology.interior_ids
        ]
        expected = row_system(topology, np.concatenate(rows))
        got = log_barrier_weights(mesh, tol=1e-3)
        tight = log_barrier_weights(mesh)
        assert np.abs(got.a_ib.data - tight.a_ib.data).max() > 1e-6
        for a, b in ((got.a_ii, expected.a_ii), (got.a_ib, expected.a_ib)):
            assert np.abs(a.data - b.data).max() <= 1e-12 * np.abs(b.data).max()

    @staticmethod
    def grid_with_pushed(nodes):
        """An 11x6 grid whose ``nodes`` are pushed past their right neighbor,
        out of their neighbors' hull."""
        mesh = gen_rectangle(1.0, 0.5, 11, 6)
        coords = np.array(mesh.coords)
        coords[nodes, 0] += 0.25
        return mesh.with_coords(coords)

    def test_lowest_failing_node_is_named(self):
        low, high = 13, 42
        assert not (self.grid_with_pushed([low, high]).boundary[[low, high]]).any()
        for pushed, named in (([high], high), ([low, high], low), ([high, low], low)):
            with pytest.raises(NodeNotInteriorError) as err:
                log_barrier_weights(self.grid_with_pushed(pushed))
            assert err.value.context["node"] == named

    def test_never_converging_is_singular_at_first_interior_node(self, annulus_coarse):
        with pytest.raises(SingularSystemError) as err:
            log_barrier_weights(annulus_coarse, tol=-1.0)
        assert err.value.context["node"] == annulus_coarse.interior_ids[0]

    @pytest.mark.filterwarnings("error")
    def test_singular_system_fails_only_its_row(self):
        # column 2's ten neighbors lie on the x axis through its node, so the
        # y row of its Newton matrix is exactly zero; every other column is a
        # random 2D star whose node is inside its neighbors' hull
        rng = np.random.default_rng(3333)
        stars = [random_star(rng, 2, 10, "inside") for _ in range(5)]
        rel = np.stack([nbrs - center for center, nbrs in stars], axis=2)  # (n, d, g)
        rel[:, 0, 2], rel[:, 1, 2] = np.linspace(-1.0, 2.0, 10) + 0.05, 0.0
        w, failed = _barrier_newton(list(rel.transpose(1, 0, 2)), 1e-10)
        assert failed.tolist() == [False, False, True, False, False]
        assert np.isnan(w[:, 2]).all()
        for r in (0, 1, 3, 4):
            alone, bad = _barrier_newton(list(rel[:, :, r].T[:, :, None]), 1e-10)
            assert not bad[0] and np.array_equal(alone[:, 0], w[:, r])


class TestHullDiagnosis:
    """A failed LOG_BARRIER node is told NODE_NOT_INTERIOR from
    SINGULAR_SYSTEM by the package's simplex, in any units."""

    def test_matches_highs_at_unit_scale_and_is_scale_free(self):
        rng = np.random.default_rng(2929)
        seen = set()
        for dim in (2, 3):
            for kind in ("inside", "outside", "vertex", "edge"):
                for _ in range(150):
                    center, nbrs = random_star(rng, dim, int(rng.integers(2, 14)), kind)
                    want = strictly_inside_hull_highs(center, nbrs)
                    assert _strictly_inside_hull(center, nbrs) == want
                    for k in (-60, -40, 40, 60):
                        scaled = np.ldexp(center, k), np.ldexp(nbrs, k)
                        assert _strictly_inside_hull(*scaled) == want
                    seen.add((kind, bool(want)))
        # every kind but "inside" draws both verdicts
        assert len(seen) == 7

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_neighbor_is_not_interior(self, bad):
        mesh = gen_annulus(0.5, 3, 12)
        coords = np.array(mesh.coords)
        coords[0, 0] = bad
        first = min(i for i in mesh.interior_ids if 0 in mesh.topology.neighbors(i))
        with pytest.raises(NodeNotInteriorError) as err:
            log_barrier_weights(mesh.with_coords(coords))
        assert err.value.context["node"] == first

    @pytest.mark.parametrize(
        "mesh",
        [gen_annulus(0.5, 8, 60), jittered(gen_box_tets(5, 5, 5), 33)],
        ids=["annulus", "box"],
    )
    def test_weights_do_not_depend_on_units(self, mesh):
        # the Newton scales each node's offsets by a power of two, so an exact
        # rescaling of the mesh leaves every weight's bits as they are
        w = log_barrier_weights(mesh)
        for k in (-30, 30, 60):
            scaled = log_barrier_weights(mesh.with_coords(np.ldexp(mesh.coords, k)))
            assert np.array_equal(scaled.a_ii.data, w.a_ii.data)
            assert np.array_equal(scaled.a_ib.data, w.a_ib.data)

    def test_diagnosis_imports_no_optimizer(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from femwarp import Mesh\n"
            "from femwarp.assembly import log_barrier_weights\n"
            "from femwarp.errors import NodeNotInteriorError\n"
            "coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])\n"
            "mesh = Mesh(coords, np.array([[0, 1, 3], [1, 2, 3], [2, 0, 3]]), [0, 1, 2])\n"
            "try:\n"
            "    log_barrier_weights(mesh)\n"
            "except NodeNotInteriorError:\n"
            "    print('scipy.optimize' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False"]
