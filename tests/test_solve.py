"""Direct factorization, ordering reuse and Gauss-Seidel backends."""

import weakref
from itertools import product

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as spla

from femwarp import cli, gen_annulus, gen_box_tets, gen_rectangle, io, warp
from femwarp import mesh as mesh_module
from femwarp.assembly import SCHEMES, build_weights
from femwarp.errors import (
    DivergedError,
    NotPositiveDefiniteError,
    SingularSystemError,
)
from femwarp.solve import factor, gauss_seidel, mmd_order, solve_multi

from conftest import flipped_rectangle

SPD_2X2 = sparse.csc_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
# the flipped rectangle's connectivity on its unjittered grid nodes
IRREGULAR_GRID = flipped_rectangle(0).with_coords(gen_rectangle(2.0, 1.0, 11, 7).coords)


def jittered(mesh, rng, amount=0.02):
    """Copy of ``mesh`` with each interior coordinate moved by up to
    ``amount``."""
    coords = np.array(mesh.coords)
    ii = mesh.interior_ids
    coords[ii] += rng.uniform(-amount, amount, (len(ii), mesh.dim))
    return mesh.with_coords(coords)


class TestFactor:
    def test_2x2_analytic(self):
        f = factor(SPD_2X2)
        assert np.allclose(f.solve(np.array([1.0, 1.0])), [1.0, 1.0], atol=1e-14)

    def test_indefinite_rejected(self):
        a = sparse.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigs 3, -1
        with pytest.raises(NotPositiveDefiniteError):
            factor(a)

    def test_nonsymmetric_takes_lu_path(self):
        # a negative pivot refutes only a symmetric matrix's definiteness
        a = sparse.csc_matrix(np.array([[-2.0, 1.0], [0.0, 2.0]]))
        assert np.array_equal(factor(a).solve(np.array([0.0, 4.0])), [1.0, 2.0])
        with pytest.raises(NotPositiveDefiniteError):
            factor(a + a.T)

    @pytest.mark.parametrize("k", [-60, -40, 0, 40])
    def test_symmetry_test_is_relative(self, k):
        # the asymmetry is half the largest entry at every scale: the
        # matrix is not symmetric, and its negative pivot refutes nothing
        a = sparse.csc_matrix(2.0**k * np.array([[-1.0, 1.0], [2.0, 1.0]]))
        x = factor(a).solve(a @ np.array([1.0, -1.0]))
        assert np.array_equal(x, [1.0, -1.0])

    def test_annulus_residual(self, annulus_coarse, rng):
        w = build_weights(annulus_coarse, "FEM")
        f = factor(w.a_ii)
        for _ in range(5):
            b = rng.standard_normal(len(w.interior_ids))
            x = f.solve(b)
            assert np.abs(w.a_ii @ x - b).max() < 1e-10 * (
                np.abs(w.a_ii).max() * np.abs(x).max() + np.abs(b).max()
            )

    def test_order_reuses_given_order(self, annulus_coarse, rng):
        first = build_weights(annulus_coarse, "FEM")
        f0 = factor(first.a_ii)
        coords = np.array(annulus_coarse.coords)
        coords[first.interior_ids] += rng.uniform(-0.01, 0.01, (len(first.interior_ids), 2))
        w = build_weights(annulus_coarse.with_coords(coords), "FEM")
        fresh = factor(w.a_ii)
        reused = factor(w.a_ii, order=f0.order)
        # both paths hand SuperLU a pre-permuted matrix in natural order;
        # the default order is the pattern's MMD order, not the natural one
        natural = np.arange(len(w.interior_ids))
        for f in (fresh, reused):
            assert np.array_equal(f._lu.perm_c, natural)
            assert np.array_equal(f._lu.perm_r, natural)
        assert not np.array_equal(fresh.order, natural)
        assert np.array_equal(reused.order, f0.order)
        assert np.array_equal(fresh.order, f0.order)
        assert reused._lu.nnz == fresh._lu.nnz
        b = rng.standard_normal((len(w.interior_ids), 2))
        x = fresh.solve(b)
        assert np.abs(reused.solve(b) - x).max() <= 1e-12 * np.abs(x).max()

    def test_order_must_be_a_permutation(self, annulus_coarse, rng):
        w = build_weights(annulus_coarse, "FEM")
        fresh = factor(w.a_ii)
        # any permutation yields a correct factorization, only fill differs
        shuffled = rng.permutation(len(w.interior_ids))
        b = rng.standard_normal(len(w.interior_ids))
        x = fresh.solve(b)
        f = factor(w.a_ii, order=shuffled)
        assert np.abs(f.solve(b) - x).max() <= 1e-12 * np.abs(x).max()
        repeated = np.array(shuffled)
        repeated[0] = repeated[1]
        for bad in (fresh.order[:-1], np.append(fresh.order, len(w.interior_ids)), repeated):
            with pytest.raises(ValueError):
                factor(w.a_ii, order=bad)

    @pytest.mark.parametrize("scheme", ["UNIFORM", "LOG_BARRIER"])
    @pytest.mark.parametrize(
        "mesh",
        [gen_annulus(0.5, 6, 24), gen_box_tets(5, 5, 5), IRREGULAR_GRID],
        ids=["annulus", "box", "irregular"],
    )
    def test_nonsymmetric_schemes_pivot_on_the_diagonal(self, mesh, scheme, rng):
        # A_I = I - W_II is a row diagonally dominant M-matrix, so neither
        # path takes an off-diagonal pivot.  UNIFORM's A_I is symmetric on
        # the annulus and the box; the irregular grid's node degrees of 4 to
        # 8 make it nonsymmetric, so it takes LU there.
        w = build_weights(jittered(mesh, rng), scheme)
        if mesh is IRREGULAR_GRID:
            assert abs(w.a_ii - w.a_ii.T).max() > 0.1
        f = factor(w.a_ii)
        assert np.array_equal(f._lu.perm_r, f._lu.perm_c)
        b = rng.standard_normal(len(w.interior_ids))
        x = f.solve(b)
        assert np.abs(w.a_ii @ x - b).max() <= 1e-12 * np.abs(b).max()

    @pytest.mark.parametrize("order", [None, [2, 0, 1]])
    def test_singular_nonsymmetric_rejected(self, order):
        # the third row is the sum of the first two
        a = sparse.csc_matrix(
            np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 3.0, 1.0]])
        )
        with pytest.raises(SingularSystemError):
            factor(a, order=order)

    def test_zero_diagonal_pivots_off_it(self):
        a = sparse.csc_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        f = factor(a)
        assert np.array_equal(f.solve(np.array([2.0, 3.0])), [1.5, 2.0])

    def test_log_barrier_small_step_reuses_order(self, annulus_coarse, monkeypatch):
        # every factorization receives the topology's order, and the warp
        # takes the steps it takes when each orders afresh
        motion = warp.annulus_rotation_motion(annulus_coarse, 1.5)
        runs = []
        for reuse in (True, False):
            orders = []

            def recording(a, order=None):
                orders.append(order)
                return factor(a, order=order if reuse else None)

            monkeypatch.setattr(warp, "factor", recording)
            _, report = warp.small_step_femwarp(annulus_coarse, "LOG_BARRIER", motion)
            runs.append(report)
            assert len(orders) == report.n_factorizations
            assert all(order is annulus_coarse.topology.order for order in orders)
        reused, fresh = runs
        assert reused.n_factorizations == fresh.n_factorizations > 1
        assert reused.steps == fresh.steps
        assert reused.outcome == fresh.outcome

    def test_small_step_releases_old_factorization(self, annulus_coarse, monkeypatch):
        # every refactorization starts with no earlier factors alive, so at
        # most one set of L and U is held at a time
        made = []

        def tracked(*args, **kwargs):
            assert all(ref() is None for ref in made)
            f = factor(*args, **kwargs)
            made.append(weakref.ref(f))
            return f

        monkeypatch.setattr(warp, "factor", tracked)
        motion = warp.annulus_rotation_motion(annulus_coarse, 1.5)
        _, report = warp.small_step_femwarp(annulus_coarse, "FEM", motion)
        assert report.success
        assert len(made) == report.n_factorizations > 2

    def test_one_shot_releases_factorization_before_reporting(
        self, annulus_coarse, monkeypatch
    ):
        # the LU is dead before the reversal count and the quality report
        # run, so their temporaries never coexist with it
        made = []

        def tracked(*args, **kwargs):
            f = factor(*args, **kwargs)
            made.append(weakref.ref(f))
            return f

        def after_release(fn):
            def wrapped(*args, **kwargs):
                assert made and all(ref() is None for ref in made)
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(warp, "factor", tracked)
        for name in ("count_reversals", "quality_report"):
            monkeypatch.setattr(warp, name, after_release(getattr(warp, name)))
        w = build_weights(annulus_coarse, "FEM")
        motion = warp.annulus_rotation_motion(annulus_coarse, 0.3)
        _, report = warp.femwarp_step(annulus_coarse, w, motion.evaluate(1.0))
        assert report.success
        assert len(made) == report.n_factorizations == 1


@pytest.fixture()
def factor_orders(monkeypatch):
    """The ``order`` of every ``factor`` call the warp drivers make."""
    orders = []

    def recording(a, order=None):
        orders.append(order)
        return factor(a, order=order)

    monkeypatch.setattr(warp, "factor", recording)
    return orders


class TestNestedDissectionOrder:
    """``Topology.order``: nested dissection of A_I's rows in 3D, SuperLU's
    MMD order in 2D; every factorization takes it."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: gen_box_tets(3, 3, 3),  # one interior node
            lambda rng: gen_box_tets(5, 5, 5, size=3.0),
            lambda rng: jittered(gen_box_tets(8, 8, 8), rng),
        ],
        ids=["box3", "box5", "box8_jittered"],
    )
    def test_permutes_interior_rows(self, make, rng):
        mesh = make(rng)
        order = mesh.topology.order
        assert np.array_equal(np.sort(order), np.arange(len(mesh.interior_ids)))
        assert not order.flags.writeable

    def test_permutes_box_fixture_rows(self, box_mesh):
        order = box_mesh.topology.order
        assert np.array_equal(np.sort(order), np.arange(len(box_mesh.interior_ids)))

    def test_mmd_in_2d(self, annulus_coarse, rect_mesh):
        # the order SuperLU itself chooses for each scheme's matrix
        for mesh, scheme in product((annulus_coarse, rect_mesh), SCHEMES):
            a = sparse.csc_matrix(build_weights(mesh, scheme).a_ii)
            lu = spla.splu(a, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
            assert np.array_equal(mesh.topology.order, np.argsort(lu.perm_c))
            assert not mesh.topology.order.flags.writeable

    def test_mmd_built_once_in_2d(self, monkeypatch, tmp_path):
        # a small-step warp, and a sweep of three small-step warps, order once
        calls, build = [], mesh_module.mmd_order

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(mesh_module, "mmd_order", counted)
        mesh = gen_annulus(0.5, 6, 24)
        _, report = warp.small_step_femwarp(
            mesh, "FEM", warp.annulus_rotation_motion(mesh, 1.5)
        )
        assert report.n_factorizations > 1 and len(calls) == 1
        base = str(tmp_path / "ann")
        io.write_mesh(gen_annulus(0.5, 6, 24), base + ".node", base + ".ele")
        spec = tmp_path / "rot.spec"
        spec.write_text("motion = annulus\ntheta_outer = 1.5\nalgorithm = small_step\n")
        argv = ["sweep", "--mesh", base, "--spec", str(spec), "--param-grid", "0:1:0.5"]
        assert cli.main(argv + ["--out", str(tmp_path / "sweep.csv")]) == 0
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 4
        assert len(calls) == 2

    def test_built_once_and_shared(self, monkeypatch, rng):
        calls, build = [], mesh_module._nested_dissection

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(mesh_module, "_nested_dissection", counted)
        mesh = gen_box_tets(5, 5, 5, size=3.0)
        order = mesh.topology.order
        moved = jittered(mesh, rng)
        assert moved.topology.order is order
        motion = warp.nonlinear3d_motion(moved, 12.0)
        _, report = warp.small_step_femwarp(moved, "FEM", motion)
        assert report.n_factorizations > 1
        assert mesh.topology.order is order and len(calls) == 1

    @pytest.mark.parametrize("scheme", ["FEM", "LOG_BARRIER"])
    def test_fill_below_mmd(self, scheme, rng):
        # below about 1,000 interior rows MMD fills less (1.12x on the 8^3
        # box); from 14^3 on the dissection wins
        mesh = jittered(gen_box_tets(14, 14, 14), rng, amount=0.01)
        w = build_weights(mesh, scheme)
        nd = factor(w.a_ii, order=mesh.topology.order)
        mmd = factor(w.a_ii)
        assert nd._lu.nnz < 0.95 * mmd._lu.nnz

    @pytest.mark.parametrize("scheme", ["FEM", "LOG_BARRIER"])
    def test_one_shot_matches_mmd(self, scheme, rng, monkeypatch, factor_orders):
        mesh = jittered(gen_box_tets(8, 8, 8), rng)
        w = build_weights(mesh, scheme)
        target = warp.nonlinear3d_motion(mesh, 4.0).evaluate(1.0)
        nd, _ = warp.femwarp_step(mesh, w, target)
        assert len(factor_orders) == 1 and factor_orders[0] is mesh.topology.order
        monkeypatch.setattr(warp, "factor", lambda a, order: factor(a))
        mmd, _ = warp.femwarp_step(mesh, w, target)
        ii = mesh.interior_ids
        scale = np.abs(mmd.coords[ii]).max()
        assert np.abs(nd.coords[ii] - mmd.coords[ii]).max() <= 1e-13 * scale

    @pytest.mark.parametrize(
        "scheme, alpha, make, motion",
        [
            ("FEM", 12.0, lambda: gen_box_tets(5, 5, 5, size=3.0), warp.nonlinear3d_motion),
            ("LOG_BARRIER", 16.0, lambda: gen_box_tets(5, 5, 5, size=3.0),
             warp.nonlinear3d_motion),
            ("FEM", 1.5, lambda: gen_annulus(0.5, 6, 24), warp.annulus_rotation_motion),
        ],
        ids=["FEM-12.0", "LOG_BARRIER-16.0", "annulus-FEM-1.5"],
    )
    def test_small_step_hands_every_factorization_one_order(
        self, scheme, alpha, make, motion, factor_orders
    ):
        mesh = make()
        motion = motion(mesh, alpha)
        _, report = warp.small_step_femwarp(mesh, scheme, motion)
        assert len(factor_orders) == report.n_factorizations > 1
        assert all(order is mesh.topology.order for order in factor_orders)


class TestMmdOrder:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("fixture", ["annulus_coarse", "rect_mesh", "box_mesh"])
    def test_matches_splu(self, request, fixture, scheme):
        # the order is SuperLU's own MMD choice for the matrix, 3D included
        a = sparse.csc_matrix(build_weights(request.getfixturevalue(fixture), scheme).a_ii)
        lu = spla.splu(a, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
        assert np.array_equal(mmd_order(a.indptr, a.indices), np.argsort(lu.perm_c))


class TestSolveMulti:
    def test_zero_rhs(self):
        f = factor(SPD_2X2)
        assert np.all(solve_multi(f, np.zeros((2, 3))) == 0.0)

    def test_a_times_ones(self):
        f = factor(SPD_2X2)
        e = np.ones(2)
        assert np.allclose(solve_multi(f, SPD_2X2 @ e), e, atol=1e-10)

    def test_columns_independent(self, annulus_coarse, rng):
        # bitwise equal under some OpenBLAS kernels only (SkylakeX, not
        # Haswell, Zen or Prescott, where this mesh's columns differ by up to
        # 3 ulps of their largest entry and a 40x160 annulus's by up to 6)
        w = build_weights(annulus_coarse, "FEM")
        f = factor(w.a_ii)
        b = rng.standard_normal((len(w.interior_ids), 3))
        multi = solve_multi(f, b)
        for j in range(3):
            single = solve_multi(f, b[:, j])
            assert np.abs(multi[:, j] - single).max() <= 8 * np.spacing(np.abs(single).max())

    def test_dimension_mismatch(self):
        f = factor(SPD_2X2)
        with pytest.raises(ValueError):
            solve_multi(f, np.ones((5, 2)))


class TestGaussSeidel:
    def test_2x2_from_zero(self):
        # A_I x = -A_B x_B with A_B = -I and x_B chosen so x = (1, 1)
        a_ib = sparse.csc_matrix(-np.eye(2))
        xb = np.array([1.0, 1.0])
        x, sweeps = gauss_seidel(SPD_2X2, a_ib, xb, np.zeros(2), tol=1e-10)
        assert np.allclose(x, [1.0, 1.0], atol=1e-8)
        assert sweeps < 60

    def test_start_at_solution(self):
        a_ib = sparse.csc_matrix(-np.eye(2))
        xb = np.array([1.0, 1.0])
        x, sweeps = gauss_seidel(SPD_2X2, a_ib, xb, np.array([1.0, 1.0]))
        assert sweeps <= 1
        assert np.allclose(x, [1.0, 1.0], atol=1e-12)

    def test_matches_direct_on_annulus(self, annulus_coarse):
        w = build_weights(annulus_coarse, "FEM")
        xb = annulus_coarse.coords[w.boundary_ids] * 1.3 + 0.2
        f = factor(w.a_ii)
        direct = solve_multi(f, -(w.a_ib @ xb))
        gs, _ = gauss_seidel(w.a_ii, w.a_ib, xb, np.zeros((len(w.interior_ids), 2)), tol=1e-10)
        assert np.abs(gs - direct).max() < 1e-6

    def test_uniform_sweep_is_laplacian_smoothing(self, annulus_coarse):
        # one sweep with UNIFORM weights = sequentially move each interior
        # node to the mean of its neighbors' current positions
        from oracles import node_neighbors

        w = build_weights(annulus_coarse, "UNIFORM")
        mesh = annulus_coarse
        xb = mesh.coords[w.boundary_ids]
        start = np.zeros((len(w.interior_ids), 2))
        one_sweep, _ = gauss_seidel(
            w.a_ii, w.a_ib, xb, start, tol=0.0, max_sweeps=1
        )
        neighbors = node_neighbors(mesh)
        coords = np.array(mesh.coords)
        coords[w.interior_ids] = 0.0
        for row, nid in enumerate(w.interior_ids):
            coords[nid] = coords[neighbors[nid]].mean(axis=0)
        assert np.abs(one_sweep - coords[w.interior_ids]).max() < 1e-12

    def test_diverges_on_bad_system(self):
        a = sparse.csc_matrix(np.array([[0.1, 1.0], [1.0, 0.1]]))
        a_ib = sparse.csc_matrix(-np.eye(2))
        with pytest.raises(DivergedError):
            gauss_seidel(a, a_ib, np.ones(2), np.zeros(2), tol=1e-12)
