"""Acceptance battery: ten end-to-end criteria with stated tolerances.

Each test prints a single machine-readable PASS/FAIL line.  The UNIFORM
scheme cannot satisfy the affine-exactness identities on curved structured
meshes (its rows are not coordinate-reproducing there); those legs are
marked strict-xfail and documented as such rather than weakened.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from femwarp import (
    AffineMotion,
    annulus_rotation_motion,
    femwarp_step,
    gen_annulus,
    rectangle_shear_map,
    reversal_bound_check,
    small_step_femwarp,
)
from femwarp.analytic import (
    AnnulusSpec,
    annulus_coeffs,
    rotation_gradient,
    rotation_hessian_norm_bound,
    shear_gradient,
    shear_hessian_norm,
    type1_predicate,
)
from femwarp.assembly import build_weights
from femwarp.generators import annulus_for_h
from femwarp.mesh import count_reversals, signed_measure
from femwarp.solve import factor, gauss_seidel, solve_multi
from femwarp.untangle import hybrid_warp, local_submesh, maximin_reposition, untangle

from conftest import jittered_rectangle
from oracles import grid_maximin, tri_measures


def report(n, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n:2d} {name}: {status} {detail}".rstrip())


@pytest.fixture(scope="module")
def annulus_fine():
    """Annulus with max edge length below 0.04."""
    return annulus_for_h(0.5, 0.0283)


def random_affine(rng, dim):
    l = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim))
    while abs(np.linalg.det(l)) < 0.1:
        l = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim))
    return l, rng.standard_normal(dim)


def affine_error(mesh, scheme, rng, n_maps=20):
    w = build_weights(mesh, scheme)
    worst = 0.0
    for _ in range(n_maps):
        l, v = random_affine(rng, mesh.dim)
        target = mesh.coords[mesh.boundary_ids] @ l.T + v
        warped, _ = femwarp_step(mesh, w, target)
        exact = mesh.coords @ l.T + v
        scale = max(np.abs(exact).max(), 1.0)
        worst = max(worst, np.abs(warped.coords - exact).max() / scale)
    return worst


class TestCriterion01AffineExactness:
    @pytest.mark.parametrize("scheme", ["FEM", "LOG_BARRIER"])
    def test_annulus(self, annulus_14_64, rng, scheme):
        err = affine_error(annulus_14_64, scheme, rng)
        report(1, f"affine exactness 2D {scheme}", err <= 1e-8, f"err={err:.2e}")
        assert err <= 1e-8

    @pytest.mark.xfail(
        strict=True,
        reason="UNIFORM weights are not coordinate-reproducing on the curved "
        "annulus mesh, so affine exactness is unattainable for this scheme "
        "there; see the per-scheme constraint analysis in the docs",
    )
    def test_annulus_uniform(self, annulus_14_64, rng):
        err = affine_error(annulus_14_64, "UNIFORM", rng)
        report(1, "affine exactness 2D UNIFORM", err <= 1e-8, f"err={err:.2e}")
        assert err <= 1e-8

    @pytest.mark.parametrize("scheme", ["FEM", "UNIFORM", "LOG_BARRIER"])
    def test_ingested_3d(self, box_mesh, rng, scheme):
        err = affine_error(box_mesh, scheme, rng)
        report(1, f"affine exactness 3D {scheme}", err <= 1e-8, f"err={err:.2e}")
        assert err <= 1e-8


class TestCriterion02Type1Threshold:
    def test_pure_rotation_cutoff(self, annulus_fine):
        from femwarp.mesh import max_edge_length

        assert max_edge_length(annulus_fine) <= 0.04
        w = build_weights(annulus_fine, "FEM")
        outcomes = {}
        for deg in (51, 52):
            motion = annulus_rotation_motion(annulus_fine, np.deg2rad(deg))
            _, rep = femwarp_step(annulus_fine, w, motion.evaluate(1.0))
            outcomes[deg] = rep.success
        ok = outcomes[51] and not outcomes[52]
        report(2, "type-1 cutoff 51.4 deg", ok, f"{outcomes}")
        assert ok

    def test_expansion_cutoff_bracket(self, annulus_fine):
        w = build_weights(annulus_fine, "FEM")
        transition = None
        prev = True
        for deg in range(17, 25):
            motion = annulus_rotation_motion(
                annulus_fine, np.deg2rad(deg), r=0.5, s=0.75
            )
            _, rep = femwarp_step(annulus_fine, w, motion.evaluate(1.0))
            if prev and not rep.success:
                transition = deg - 0.5
                break
            prev = rep.success
        ok = transition is not None and abs(transition - 20.4) <= 2.0
        report(2, "type-1 cutoff 20.4 deg (s=0.75)", ok, f"transition={transition}")
        assert ok


class TestCriterion03PredicateVsGrid:
    def test_fifty_random_specs(self, rng):
        agree = checked = 0
        while checked < 50:
            r = rng.uniform(0.1, 0.9)
            s = rng.uniform(r, 0.95)
            theta = rng.uniform(0.0, np.pi)
            spec = AnnulusSpec(r, s, theta)
            a, b, c, d = annulus_coeffs(spec)
            rhos = np.linspace(r, 1.0, 400)
            phis = np.linspace(0.0, 2 * np.pi, 400)
            # determinant is radial, but evaluate the full polar grid anyway
            dets = (a * a + c * c - (b * b + d * d) / rhos[:, None] ** 4) + 0.0 * phis
            margin = dets.min()
            if abs(margin) < 1e-8:
                continue
            checked += 1
            agree += type1_predicate(spec) == (margin < 0)
        ok = agree == 50
        report(3, "predicate vs 400x400 grid", ok, f"{agree}/50")
        assert ok


class TestCriterion04SmallStepSuperiority:
    def test_table_trends(self):
        theta_total = 4.0
        rows = []
        for h in (0.2, 0.11, 0.06, 0.03):
            mesh = annulus_for_h(0.5, h)
            motion = annulus_rotation_motion(mesh, theta_total)
            _, var = small_step_femwarp(mesh, "FEM", motion)
            _, const = small_step_femwarp(
                mesh,
                "FEM",
                motion,
                min_step=(np.pi / 128.0) / theta_total,
                constant_step=True,
            )
            rows.append(
                (h, var.t_reached * theta_total, var.n_factorizations,
                 const.n_factorizations)
            )
        alphas = [row[1] for row in rows]
        nondecreasing = all(a2 >= a1 - 1e-9 for a1, a2 in zip(alphas, alphas[1:]))
        cheaper = all(row[2] < row[3] for row in rows)
        survives = alphas[-1] >= 2.7
        ok = nondecreasing and cheaper and survives
        report(
            4,
            "small-step superiority",
            ok,
            f"alpha_max={['%.2f' % a for a in alphas]} "
            f"nchol={[(r[2], r[3]) for r in rows]}",
        )
        assert nondecreasing
        assert cheaper
        assert survives

    def test_fine_mesh_cost(self):
        # rotation 2.7 rad on the finest mesh within twice the reference
        # factorization count
        mesh = annulus_for_h(0.5, 0.03)
        motion = annulus_rotation_motion(mesh, 2.7)
        _, rep = small_step_femwarp(mesh, "FEM", motion)
        ok = rep.success and rep.n_factorizations <= 68
        report(4, "fine-mesh cost", ok, f"nchol={rep.n_factorizations}")
        assert ok


class TestCriterion05ShearRefinementTrend:
    def test_alpha_fail_monotone(self):
        levels = ((15, 8), (21, 11), (41, 21), (129, 65))
        fails = []
        for nx, ny in levels:
            mesh = jittered_rectangle(nx, ny)
            coords = mesh.coords
            alpha = 1.0
            while alpha <= 150.0:
                mapped = coords.copy()
                mapped[:, 1] += alpha * coords[:, 0] * (2.0 - coords[:, 0])
                if count_reversals(mesh.with_coords(mapped))[0] > 0:
                    break
                alpha += 1.0
            fails.append(alpha)
        nondecreasing = all(b >= a for a, b in zip(fails, fails[1:]))
        ratio_ok = fails[-1] >= 3.0 * fails[0]
        ok = nondecreasing and ratio_ok
        report(5, "shear refinement trend", ok, f"alpha_fail={fails}")
        assert nondecreasing
        assert ratio_ok

    def test_vectorized_map_matches_pointwise(self, rng):
        # the sweep above applies the shear formula in bulk; spot-check it
        # against the map function
        for _ in range(10):
            p = rng.uniform(0, 2, size=2)
            alpha = rng.uniform(0, 50)
            bulk = np.array([p[0], p[1] + alpha * p[0] * (2.0 - p[0])])
            assert np.array_equal(rectangle_shear_map(alpha, p), bulk)


class TestCriterion06BoundSoundness:
    def test_thousand_fixtures(self, rng):
        unsound = 0
        positives = 0
        checked = 0
        while checked < 500:  # shear fixtures
            size = 10.0 ** rng.uniform(-2.5, -0.7)
            base = np.array([rng.uniform(0, 2), rng.uniform(0, 1)])
            tri = base + size * rng.uniform(-1, 1, size=(3, 2))
            if signed_measure(tri) <= 1e-12 * size * size:
                continue
            alpha = 10.0 ** rng.uniform(-2, 1.5)
            checked += 1
            safe = reversal_bound_check(
                tri, shear_gradient(alpha, tri[0]), shear_hessian_norm(alpha)
            )
            if safe:
                positives += 1
                mapped = np.array([rectangle_shear_map(alpha, p) for p in tri])
                if signed_measure(mapped) <= 0:
                    unsound += 1
        while checked < 1000:  # concentric-rotation fixtures
            size = 10.0 ** rng.uniform(-3, -0.8)
            rho0 = rng.uniform(0.55, 0.9)
            phi0 = rng.uniform(0, 2 * np.pi)
            center = rho0 * np.array([np.cos(phi0), np.sin(phi0)])
            tri = center + size * rng.uniform(-1, 1, size=(3, 2))
            radii = np.linalg.norm(tri, axis=1)
            if radii.min() < 0.51 or radii.max() > 0.99:
                continue
            if signed_measure(tri) <= 1e-12 * size * size:
                continue
            theta = 10.0 ** rng.uniform(-1.3, 0.8)
            checked += 1
            m = rotation_hessian_norm_bound(0.5, theta, tri, samples=6)
            safe = reversal_bound_check(tri, rotation_gradient(0.5, theta, tri[0]), m)
            if safe:
                positives += 1
                from femwarp.analytic import infinitesimal_rotation_map

                mapped = np.array(
                    [infinitesimal_rotation_map(0.5, theta, p) for p in tri]
                )
                if signed_measure(mapped) <= 0:
                    unsound += 1
        ok = unsound == 0 and positives > 0
        report(6, "bound soundness", ok, f"positives={positives} unsound={unsound}")
        assert unsound == 0
        assert positives > 0


def random_cavity(rng):
    """Star polygon around the origin with a free central vertex."""
    n = int(rng.integers(4, 11))
    gaps = rng.dirichlet(np.ones(n))
    angles = 2 * np.pi * (np.cumsum(gaps) - gaps[0] * rng.uniform())
    radii = rng.uniform(0.5, 1.5, size=n)
    ring = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    free = rng.uniform(-0.3, 0.3, size=2)
    others = np.array(
        [[ring[i], ring[(i + 1) % n], free] for i in range(n)]
    )
    slots = np.full(n, 2)
    return ring, free, others, slots


class TestCriterion07UntanglerLp:
    def test_hundred_cavities_vs_grid(self, rng):
        from femwarp import Mesh

        worst = 0.0
        for _ in range(100):
            ring, free, others, slots = random_cavity(rng)
            n = len(ring)
            coords = np.vstack([ring, free])
            elements = np.array([[i, (i + 1) % n, n] for i in range(n)])
            mesh = Mesh(coords, elements, list(range(n)))
            sub = local_submesh(mesh, n, list(range(n)))
            _, lp_val = maximin_reposition(sub)
            _, grid_val = grid_maximin(others, slots, [0.0, 0.0], 3.2)
            worst = max(worst, abs(lp_val - grid_val))
        ok = worst <= 1e-4
        report(7, "LP vs grid oracle", ok, f"worst={worst:.2e}")
        assert ok

    def test_sweep_move_monotonicity(self):
        mesh = gen_annulus(0.5, 6, 40)
        motion = annulus_rotation_motion(mesh, np.deg2rad(110.0), np.deg2rad(20.0))
        coords = np.array(mesh.coords)
        coords[mesh.boundary_ids] = motion.evaluate(1.0)
        moves = []
        untangle(
            mesh.with_coords(coords),
            max_sweeps=10,
            on_move=lambda vid, before, after: moves.append(after - before),
        )
        violations = sum(1 for d in moves if d < -1e-12)
        ok = moves and violations == 0
        report(7, "per-move monotonicity", ok, f"moves={len(moves)} bad={violations}")
        assert ok


class TestCriterion08HybridDominance:
    def test_grid_pattern(self, annulus_mid):
        mesh = annulus_mid
        w = build_weights(mesh, "FEM")
        degs = list(range(0, 181, 15))
        femwarp_ok = {}
        targets = {}
        for to in degs:
            for ti in degs:
                motion = annulus_rotation_motion(
                    mesh, np.deg2rad(to), np.deg2rad(ti)
                )
                target = motion.evaluate(1.0)
                targets[(to, ti)] = target
                _, rep = femwarp_step(mesh, w, target)
                femwarp_ok[(to, ti)] = rep.success

        # (a) hybrid succeeds wherever one-shot does
        dominance = True
        for cell, success in femwarp_ok.items():
            if success:
                _, hrep = hybrid_warp(mesh, w, targets[cell])
                dominance &= hrep.success
        report(8, "hybrid dominance", dominance,
               f"femwarp wins={sum(femwarp_ok.values())}/169")
        assert dominance

        # (b) at least three cells where only the hybrid wins
        candidates = [(120, 45), (135, 45), (60, 120), (90, 150), (135, 30)]
        h_cells = []
        for cell in candidates:
            if len(h_cells) >= 3:
                break
            if femwarp_ok[cell]:
                continue
            _, hrep = hybrid_warp(mesh, w, targets[cell])
            if not hrep.success:
                continue
            coords = np.array(mesh.coords)
            coords[mesh.boundary_ids] = targets[cell]
            _, _, outcome = untangle(mesh.with_coords(coords))
            if outcome != "SUCCESS":
                h_cells.append(cell)
        ok = len(h_cells) >= 3
        report(8, "hybrid-only cells", ok, f"cells={h_cells}")
        assert ok

    def test_point_reflection_untangler_fails(self, reflection_untangle_result):
        out, sweeps, outcome = reflection_untangle_result
        ok = outcome != "SUCCESS" and sweeps <= 50
        report(8, "reflection untangle fails", ok, f"{outcome} sweeps={sweeps}")
        assert ok


class TestCriterion09SystemIdentities:
    MESHES = ["annulus_coarse", "annulus_14_64", "rect_mesh", "box_mesh"]

    @pytest.mark.parametrize("mesh_name", MESHES)
    @pytest.mark.parametrize("scheme", ["FEM", "UNIFORM", "LOG_BARRIER"])
    def test_coordinate_identity(self, request, mesh_name, scheme):
        if scheme == "UNIFORM" and mesh_name.startswith("annulus"):
            pytest.xfail(
                "UNIFORM rows are not coordinate-reproducing on curved "
                "structured meshes (same defect as the affine-exactness leg)"
            )
        mesh = request.getfixturevalue(mesh_name)
        w = build_weights(mesh, scheme)
        res = w.residual(mesh.coords).max()
        bound = 1e-10 * np.abs(mesh.coords).max()
        ok = res <= bound
        report(9, f"[A_I,A_B]x identity {scheme}/{mesh_name}", ok, f"res={res:.2e}")
        assert ok

    @pytest.mark.parametrize("mesh_name", MESHES)
    def test_fem_row_sums(self, request, mesh_name):
        from femwarp.assembly import assemble_stiffness

        mesh = request.getfixturevalue(mesh_name)
        a = assemble_stiffness(mesh)
        res = np.abs(np.asarray(a.sum(axis=1))).max() / np.abs(a).max()
        ok = res <= 1e-10
        report(9, f"FEM row sums {mesh_name}", ok, f"res={res:.2e}")
        assert ok

    @pytest.mark.parametrize("mesh_name", MESHES)
    def test_gauss_seidel_matches_direct(self, request, mesh_name):
        mesh = request.getfixturevalue(mesh_name)
        w = build_weights(mesh, "FEM")
        xb = mesh.coords[w.boundary_ids] * 1.1 + 0.05
        direct = solve_multi(factor(w.a_ii), -(w.a_ib @ xb))
        gs, sweeps = gauss_seidel(
            w.a_ii, w.a_ib, xb, np.zeros((w.m, mesh.dim)), tol=1e-10
        )
        err = np.abs(gs - direct).max()
        ok = err <= 1e-6
        report(9, f"Gauss-Seidel vs direct {mesh_name}", ok,
               f"err={err:.2e} sweeps={sweeps}")
        assert ok


class TestCriterion10Sweep3d:
    def test_cli_sweep_protocol(self, box_mesh_paths, tmp_path):
        # the subprocess imports femwarp from this checkout's src
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        spec = tmp_path / "n3d.spec"
        alpha_max = {}
        nchol = {}
        for alg in ("femwarp", "small_step", "hybrid"):
            spec.write_text(
                f"motion = nonlinear3d\nalpha = 1.0\nalgorithm = {alg}\n"
            )
            out = tmp_path / f"{alg}.csv"
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "femwarp.cli",
                    "sweep",
                    "--mesh",
                    box_mesh_paths,
                    "--spec",
                    str(spec),
                    "--param-grid",
                    "0:10:0.1",
                    "--out",
                    str(out),
                ],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            rows = out.read_text().strip().split("\n")[1:]
            best = -np.inf
            for row in rows:
                param, outcome, _, nfact = row.split(",")
                if outcome == "SUCCESS":
                    best = max(best, float(param))
                if alg == "small_step":
                    nchol[float(param)] = int(nfact)
            alpha_max[alg] = best
        ok = (
            alpha_max["hybrid"] >= alpha_max["femwarp"]
            and alpha_max["small_step"] >= alpha_max["femwarp"]
            and alpha_max["femwarp"] > 0
            and max(nchol.values()) >= 1
        )
        report(10, "3D sweep protocol", ok, f"alpha_max={alpha_max}")
        assert ok
