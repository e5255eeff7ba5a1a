"""One-shot warping, small-step homotopy and trajectory replay."""

import math

import numpy as np
import pytest

from femwarp import (
    AffineMotion,
    TabulatedMotion,
    annulus_rotation_motion,
    femwarp_step,
    gen_annulus,
    nonlinear3d_motion,
    shear_motion,
    small_step_femwarp,
    warp_trajectory,
)
from femwarp import warp
from femwarp.assembly import build_weights
from femwarp.mesh import count_reversals, quality_report

from conftest import fixed_step_trajectory, random_affine
from oracles import (
    affine_blend,
    affine_by_point,
    annulus_for_h,
    nonlinear3d_blend,
    shear_blend,
)


def reflection(mesh):
    """Blending toward a reflection passes through a degenerate
    configuration at t = 0.5."""
    return AffineMotion(mesh, np.diag([1.0, -1.0]), np.zeros(2))


class TestMotions:
    def test_affine_endpoints(self, annulus_coarse, rng):
        l, v = random_affine(rng, 2)
        motion = AffineMotion(annulus_coarse, l, v)
        base = annulus_coarse.coords[annulus_coarse.boundary_ids]
        assert np.allclose(motion.evaluate(0.0), base)
        assert np.allclose(motion.evaluate(1.0), base @ l.T + v)
        mid = motion.evaluate(0.5)
        assert np.allclose(mid, 0.5 * base + 0.5 * (base @ l.T + v))

    def test_annulus_rotation_classifies_rings(self, annulus_coarse):
        theta = 0.7
        motion = annulus_rotation_motion(annulus_coarse, theta)
        out = motion.evaluate(1.0)
        base = annulus_coarse.coords[annulus_coarse.boundary_ids]
        radii = np.linalg.norm(base, axis=1)
        inner = radii < 0.75
        assert np.allclose(out[inner], base[inner], atol=1e-12)
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        assert np.allclose(out[~inner], base[~inner] @ rot.T, atol=1e-12)

    @staticmethod
    def outer_rotation_fixes(mesh):
        """Mask of the boundary rows that rotating the outer ring leaves in
        place: the inner ring, as the motion's radius split sees it."""
        motion = annulus_rotation_motion(mesh, np.pi / 2)
        return (motion.evaluate(1.0) == motion.base_coords).all(axis=1)

    @pytest.mark.parametrize("k", [-1000, -600, 512, 1000])
    def test_annulus_split_at_any_scale(self, annulus_coarse, k):
        scaled = annulus_coarse.with_coords(np.ldexp(annulus_coarse.coords, k))
        want = self.outer_rotation_fixes(annulus_coarse)
        assert 0 < want.sum() < len(want)
        assert np.array_equal(self.outer_rotation_fixes(scaled), want)

    @pytest.mark.parametrize("k", [-500, -123, -1, 1, 77, 500])
    def test_annulus_rotation_scales_exactly(self, annulus_coarse, k):
        scaled = annulus_coarse.with_coords(np.ldexp(annulus_coarse.coords, k))
        for s, s_scaled in ((None, None), (0.6, np.ldexp(0.6, k))):
            motion = annulus_rotation_motion(annulus_coarse, 0.7, -0.4, s=s)
            big = annulus_rotation_motion(scaled, 0.7, -0.4, s=s_scaled)
            for t in (0.3, 1.0):
                want = np.ldexp(motion.evaluate(t), k)
                assert big.evaluate(t).tobytes() == want.tobytes()

    def test_tabulated_interpolation(self, annulus_coarse):
        base = annulus_coarse.coords[annulus_coarse.boundary_ids]
        motion = TabulatedMotion(annulus_coarse, [base + 1.0, base + 3.0])
        assert np.allclose(motion.evaluate(0.0), base)
        assert np.allclose(motion.evaluate(0.5), base + 1.0)
        assert np.allclose(motion.evaluate(0.75), base + 2.0)
        assert np.allclose(motion.evaluate(1.0), base + 3.0)

    @pytest.mark.parametrize("kind", ["affine", "affine3d", "shear", "nonlinear3d"])
    def test_straight_lines_match_blends(self, kind, request, rng):
        # each straight-line motion is one tabulated frame, the image of the
        # boundary; it equals the blend it replaced bit for bit at t = 0 and
        # 1 (affine: at every t), and within rounding in between.  No blend
        # makes a BLAS call, so this holds under every OpenBLAS kernel.
        if kind.startswith("affine"):
            mesh = request.getfixturevalue("box_mesh" if kind == "affine3d" else "annulus_coarse")
            l, v = random_affine(rng, mesh.dim)
            motion, blend, args = AffineMotion(mesh, l, v), affine_blend, (l, v)
        elif kind == "shear":
            mesh = request.getfixturevalue("rect_mesh")
            motion, blend, args = shear_motion(mesh, 3.0), shear_blend, (3.0,)
        else:
            mesh = request.getfixturevalue("box_mesh")
            motion, blend, args = nonlinear3d_motion(mesh, 4.0), nonlinear3d_blend, (4.0,)
        assert isinstance(motion, TabulatedMotion) and len(motion.frames) == 1
        base = mesh.coords[mesh.boundary_ids]
        for t in (0.0, 0.3, 0.5, 1.0):
            got, want = motion.evaluate(t), blend(base, *args, t)
            if kind.startswith("affine") or t in (0.0, 1.0):
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_annulus_rotation_by_point(self, annulus_coarse):
        # no BLAS call: each target equals a per-point evaluation in Python
        # floats bit for bit, whatever the OpenBLAS kernel
        base = annulus_coarse.coords[annulus_coarse.boundary_ids]
        radii = np.hypot(*base.T)
        r = float(radii.min())
        inner = radii < 0.5 * (r + radii.max())
        motion = annulus_rotation_motion(annulus_coarse, 0.7, -0.4, s=0.6)
        for t in (0.3, 1.0):
            want = []
            for (x, y), is_inner in zip(base.tolist(), inner):
                a = t * (-0.4 if is_inner else 0.7)
                c, sn = math.cos(a), math.sin(a)
                p = [c * x - sn * y, sn * x + c * y]
                if is_inner:
                    scale = (r + t * (0.6 - r)) / r
                    p = [q * scale for q in p]
                want.append(p)
            assert motion.evaluate(t).tobytes() == np.array(want).tobytes()

    def test_motion_of_the_wrong_dimension(self, annulus_coarse, box_mesh):
        with pytest.raises(ValueError):
            annulus_rotation_motion(box_mesh, 0.5)
        with pytest.raises(ValueError):
            nonlinear3d_motion(annulus_coarse, 1.0)
        with pytest.raises(ValueError):
            AffineMotion(annulus_coarse, np.eye(3)[:2], np.zeros(2))

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle_refused(self, annulus_coarse, theta):
        # math.cos of an infinite angle raised a bare math domain error
        for args in ((theta,), (0.5, theta)):
            with pytest.raises(ValueError, match="finite"):
                annulus_rotation_motion(annulus_coarse, *args)

    def test_tabulated_shape_check(self, annulus_coarse):
        with pytest.raises(ValueError):
            TabulatedMotion(annulus_coarse, [np.zeros((3, 2))])
        # with no frame every t would give the base coordinates
        with pytest.raises(ValueError):
            TabulatedMotion(annulus_coarse, [])


class TestFemwarpStep:
    def test_identity_target_fixed_point(self, annulus_coarse):
        w = build_weights(annulus_coarse, "FEM")
        target = annulus_coarse.coords[annulus_coarse.boundary_ids]
        warped, rep = femwarp_step(annulus_coarse, w, target)
        assert rep.success
        assert np.abs(warped.coords - annulus_coarse.coords).max() < 1e-10

    @pytest.mark.parametrize("scheme", ["FEM", "LOG_BARRIER"])
    def test_affine_exactness(self, annulus_coarse, rng, scheme):
        w = build_weights(annulus_coarse, scheme)
        for _ in range(5):
            l, v = random_affine(rng, 2)
            target = annulus_coarse.coords[annulus_coarse.boundary_ids] @ l.T + v
            warped, _ = femwarp_step(annulus_coarse, w, target)
            exact = annulus_coarse.coords @ l.T + v
            scale = np.linalg.norm(l) * 2.0 + np.linalg.norm(v)
            assert np.abs(warped.coords - exact).max() <= 1e-8 * scale

    def test_uniform_affine_exact_on_grid(self, rect_mesh, rng):
        # the centroid constraints hold exactly on a uniform grid, so the
        # UNIFORM scheme is affine-exact there (not on curved structured
        # meshes, where its row constraints fail by construction)
        w = build_weights(rect_mesh, "UNIFORM")
        l, v = random_affine(rng, 2)
        target = rect_mesh.coords[rect_mesh.boundary_ids] @ l.T + v
        warped, _ = femwarp_step(rect_mesh, w, target)
        exact = rect_mesh.coords @ l.T + v
        assert np.abs(warped.coords - exact).max() < 1e-10

    def test_rotation_threshold_on_fine_mesh(self):
        mesh = annulus_for_h(0.5, 0.0283)
        w = build_weights(mesh, "FEM")
        ok = annulus_rotation_motion(mesh, np.deg2rad(51.0))
        _, rep = femwarp_step(mesh, w, ok.evaluate(1.0))
        assert rep.success
        bad = annulus_rotation_motion(mesh, np.deg2rad(52.0))
        _, rep = femwarp_step(mesh, w, bad.evaluate(1.0))
        assert not rep.success and rep.reversals >= 1

    def test_reversed_mesh_still_returned(self, annulus_coarse):
        w = build_weights(annulus_coarse, "FEM")
        motion = annulus_rotation_motion(annulus_coarse, np.pi)
        warped, rep = femwarp_step(annulus_coarse, w, motion.evaluate(1.0))
        assert not rep.success
        assert warped.n_nodes == annulus_coarse.n_nodes
        assert rep.quality is not None and rep.quality.reversal_count == rep.reversals

    def test_target_shape_checked(self, annulus_coarse):
        w = build_weights(annulus_coarse, "FEM")
        with pytest.raises(ValueError):
            femwarp_step(annulus_coarse, w, np.zeros((3, 2)))


class TestSmallStep:
    @pytest.mark.parametrize("scheme", ["FEM", "LOG_BARRIER"])
    def test_builds_one_topology(self, scheme, topology_builds):
        mesh = gen_annulus(0.5, 6, 24)
        motion = annulus_rotation_motion(mesh, 1.2)
        _, rep = small_step_femwarp(mesh, scheme, motion)
        assert rep.n_factorizations > 1  # weights built on several meshes
        assert len(topology_builds) == 1 and topology_builds[0] is mesh

    def test_affine_single_step(self, annulus_coarse, rng):
        l, v = random_affine(rng, 2)
        motion = AffineMotion(annulus_coarse, l, v)
        final, rep = small_step_femwarp(annulus_coarse, "FEM", motion)
        assert rep.success
        assert rep.n_factorizations == 1
        assert len([s for s in rep.steps if s.accepted]) == 1
        exact = annulus_coarse.coords @ l.T + v
        assert np.abs(final.coords - exact).max() < 1e-8 * (np.abs(exact).max() + 1)

    def test_outlasts_one_shot(self, annulus_mid):
        theta = np.deg2rad(120.0)  # far beyond the one-shot cutoff
        w = build_weights(annulus_mid, "FEM")
        motion = annulus_rotation_motion(annulus_mid, theta)
        _, one = femwarp_step(annulus_mid, w, motion.evaluate(1.0))
        assert not one.success
        final, rep = small_step_femwarp(annulus_mid, "FEM", motion)
        assert rep.success
        assert rep.n_factorizations > 1

    def test_failure_reports_best_t(self, annulus_coarse):
        # the halving search must bottom out before the degenerate t = 0.5;
        # the REVERSED report is of the last accepted (valid) mesh
        motion = reflection(annulus_coarse)
        final, rep = small_step_femwarp(annulus_coarse, "FEM", motion)
        assert rep.outcome == "REVERSED" and rep.reversals > 0
        assert 0.0 <= rep.t_reached < 0.5
        assert rep.steps[-1].accepted is False
        assert rep.quality == quality_report(final)
        assert count_reversals(final)[0] == 0

    def test_fixed_steps_failure_reports_best_t(self, annulus_coarse):
        # the fixed-step baseline stops at its first reversed frame, before
        # t = 0.5; the frame before it is the last valid mesh
        h = warp.DEFAULT_MIN_STEP
        meshes, reports = fixed_step_trajectory(
            annulus_coarse, reflection(annulus_coarse), h
        )
        assert reports[-1].outcome == "REVERSED" and reports[-1].reversals > 0
        assert 0.0 < (len(reports) - 1) * h < 0.5
        assert reports[-1].steps[-1].accepted is False
        final, rep = meshes[-2], reports[-2]
        assert rep.quality == quality_report(final)
        assert count_reversals(final)[0] == 0

    def test_fixed_steps_cost_more(self, annulus_coarse):
        motion = annulus_rotation_motion(annulus_coarse, 1.2)
        _, var = small_step_femwarp(annulus_coarse, "FEM", motion)
        _, fixed = fixed_step_trajectory(annulus_coarse, motion, 1.0 / 64.0)
        assert var.success and all(r.success for r in fixed)
        assert var.n_factorizations < sum(r.n_factorizations for r in fixed)

    def test_determinism(self, annulus_coarse):
        motion = annulus_rotation_motion(annulus_coarse, 1.0)
        a, _ = small_step_femwarp(annulus_coarse, "FEM", motion)
        b, _ = small_step_femwarp(annulus_coarse, "FEM", motion)
        assert np.array_equal(a.coords, b.coords)

    def test_min_step_validation(self, monkeypatch):
        # refused before the first factorization: a nan min_step never ends
        # the halving of a warp that reverses, as this one does
        def factor(*args, **kwargs):
            raise AssertionError("factor called")

        monkeypatch.setattr(warp, "factor", factor)
        mesh = gen_annulus(0.5, 4, 16)
        motion = annulus_rotation_motion(mesh, 0.0, 0.0, s=1.5)
        for min_step in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                small_step_femwarp(mesh, "FEM", motion, min_step=min_step)

    def test_composition_consistency(self, annulus_coarse, rng):
        # warping through an intermediate affine configuration equals the
        # direct warp for affine motions
        l, v = random_affine(rng, 2)
        exact = annulus_coarse.coords @ l.T + v
        base = annulus_coarse.coords[annulus_coarse.boundary_ids]
        half = 0.5 * base + 0.5 * (base @ l.T + v)

        w = build_weights(annulus_coarse, "FEM")
        mid, _ = femwarp_step(annulus_coarse, w, half)
        w2 = build_weights(mid, "FEM")
        two_step, _ = femwarp_step(mid, w2, base @ l.T + v)
        assert np.abs(two_step.coords - exact).max() < 1e-8 * (np.abs(exact).max() + 1)


class TestTrajectory:
    def test_identical_frames_idempotent(self, annulus_coarse):
        base = annulus_coarse.coords[annulus_coarse.boundary_ids]
        motion = TabulatedMotion(annulus_coarse, [base, base])
        meshes, reports = warp_trajectory(annulus_coarse, "FEM", motion)
        assert all(r.success for r in reports)
        assert np.abs(meshes[1].coords - meshes[0].coords).max() < 1e-10

    def test_affine_split_exact(self, annulus_coarse, rng):
        l, v = random_affine(rng, 2)
        base = annulus_coarse.coords[annulus_coarse.boundary_ids]
        full = base @ l.T + v
        frames = [base + t * (full - base) for t in (1.0 / 3.0, 2.0 / 3.0, 1.0)]
        motion = TabulatedMotion(annulus_coarse, frames)
        meshes, reports = warp_trajectory(annulus_coarse, "FEM", motion)
        assert all(r.success for r in reports)
        exact = annulus_coarse.coords @ l.T + v
        assert np.abs(meshes[-1].coords - exact).max() < 1e-8 * (np.abs(exact).max() + 1)

    def test_many_frames_beat_type1_cutoff(self, annulus_mid):
        # rotation split into 32 frames succeeds well beyond the one-shot
        # threshold, approaching the infinitesimal-step continuum behavior
        theta = np.deg2rad(120.0)
        base = annulus_mid.coords[annulus_mid.boundary_ids]
        radii = np.linalg.norm(base, axis=1)
        outer = radii > 0.75
        frames = []
        for k in range(1, 33):
            a = theta * k / 32.0
            rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
            f = base.copy()
            f[outer] = base[outer] @ rot.T
            frames.append(f)
        motion = TabulatedMotion(annulus_mid, frames)
        meshes, reports = warp_trajectory(annulus_mid, "FEM", motion)
        assert len(reports) == 32
        assert all(r.success for r in reports)

    def test_stops_at_failure(self, annulus_coarse):
        base = annulus_coarse.coords[annulus_coarse.boundary_ids]
        rot = np.array([[-1.0, 0.0], [0.0, -1.0]])
        radii = np.linalg.norm(base, axis=1)
        bad = base.copy()
        bad[radii > 0.75] = base[radii > 0.75] @ rot
        motion = TabulatedMotion(annulus_coarse, [bad, bad])
        meshes, reports = warp_trajectory(annulus_coarse, "FEM", motion)
        assert not reports[0].success
        assert len(reports) == 1  # later frames not attempted

    def test_builds_one_topology(self, rng, topology_builds):
        mesh = gen_annulus(0.5, 6, 24)
        l, v = random_affine(rng, 2)
        base = mesh.coords[mesh.boundary_ids]
        frames = [base + t * (base @ l.T + v - base) for t in (0.25, 0.5, 1.0)]
        motion = TabulatedMotion(mesh, frames)
        _, reports = warp_trajectory(mesh, "FEM", motion)
        assert len(reports) == 3 and all(r.success for r in reports)
        assert len(topology_builds) == 1 and topology_builds[0] is mesh

    def test_requires_tabulated(self, annulus_coarse):
        with pytest.raises(TypeError):
            motion = annulus_rotation_motion(annulus_coarse, 1.0)
            warp_trajectory(annulus_coarse, "FEM", motion)
