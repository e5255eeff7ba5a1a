"""Direct factorization, ordering reuse and Gauss-Seidel backends."""

import weakref

import numpy as np
import pytest
from scipy import sparse

from femwarp import gen_annulus, gen_box_tets, warp
from femwarp.assembly import build_weights
from femwarp.errors import (
    DivergedError,
    NotPositiveDefiniteError,
    SingularSystemError,
)
from femwarp.solve import factor, gauss_seidel, solve_multi

SPD_2X2 = sparse.csc_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))


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

    def test_nonsymmetric_rejected_in_spd_mode(self):
        a = sparse.csc_matrix(np.array([[2.0, -1.0], [0.0, 2.0]]))
        with pytest.raises(NotPositiveDefiniteError):
            factor(a, spd=True)
        factor(a, spd=False)  # general LU path accepts it

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
        # the reused path hands SuperLU a pre-permuted matrix in natural order
        assert np.array_equal(reused._lu.perm_c, np.arange(len(w.interior_ids)))
        assert not np.array_equal(fresh._lu.perm_c, np.arange(len(w.interior_ids)))
        assert np.array_equal(reused.order, f0.order)
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
        # the nonsymmetric schemes take the same path, so an order serves
        # them too
        general = factor(w.a_ii, spd=False, order=fresh.order)
        assert np.abs(general.solve(b) - x).max() <= 1e-12 * np.abs(x).max()

    @pytest.mark.parametrize("scheme", ["UNIFORM", "LOG_BARRIER"])
    @pytest.mark.parametrize(
        "mesh", [gen_annulus(0.5, 6, 24), gen_box_tets(5, 5, 5)], ids=["annulus", "box"]
    )
    def test_nonsymmetric_schemes_pivot_on_the_diagonal(self, mesh, scheme, rng):
        # A_I = I - W_II is a row diagonally dominant M-matrix, so the
        # symmetric-mode threshold never takes an off-diagonal pivot
        w = build_weights(jittered(mesh, rng), scheme)
        assert not w.symmetric
        f = factor(w.a_ii, spd=w.symmetric)
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
            factor(a, spd=False, order=order)

    def test_zero_diagonal_pivots_off_it(self):
        a = sparse.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        f = factor(a, spd=False)
        assert np.array_equal(f.solve(np.array([2.0, 3.0])), [3.0, 2.0])

    def test_log_barrier_small_step_reuses_order(self, annulus_coarse, monkeypatch):
        # every factorization after the first reuses the first one's order,
        # and the warp takes the steps it takes when each orders afresh
        motion = warp.annulus_rotation_motion(annulus_coarse, 1.5)
        runs = []
        for reuse in (True, False):
            orders = []

            def recording(a, spd=True, order=None):
                orders.append(order)
                return factor(a, spd=spd, order=order if reuse else None)

            monkeypatch.setattr(warp, "factor", recording)
            _, report = warp.small_step_femwarp(annulus_coarse, "LOG_BARRIER", motion)
            runs.append(report)
            assert orders[0] is None and len(orders) == report.n_factorizations
            if reuse:
                assert all(order is not None for order in orders[1:])
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


class TestSolveMulti:
    def test_zero_rhs(self):
        f = factor(SPD_2X2)
        assert np.all(solve_multi(f, np.zeros((2, 3))) == 0.0)

    def test_a_times_ones(self):
        f = factor(SPD_2X2)
        e = np.ones(2)
        assert np.allclose(solve_multi(f, SPD_2X2 @ e), e, atol=1e-10)

    def test_columns_bitwise_independent(self, annulus_coarse, rng):
        w = build_weights(annulus_coarse, "FEM")
        f = factor(w.a_ii)
        b = rng.standard_normal((len(w.interior_ids), 3))
        multi = solve_multi(f, b)
        for j in range(3):
            single = solve_multi(f, b[:, j])
            assert np.array_equal(multi[:, j], single)

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
