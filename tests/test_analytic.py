"""Closed-form annulus maps, reversal predicates and the sufficient bound."""

import numpy as np
import pytest

from femwarp.analytic import (
    AnnulusSpec,
    annulus_coeffs,
    annulus_jac_det,
    annulus_map,
    infinitesimal_rotation_map,
    nonlinear3d_map,
    rectangle_shear_map,
    reversal_bound_check,
    type1_predicate,
)
from femwarp.errors import DomainError, InvalidBoundError, InvalidSpecError
from femwarp.mesh import signed_measure

from oracles import (
    NONLINEAR3D_L,
    fd_jacobian,
    rotation_hessian_norm_bound,
    shear_gradient,
    shear_hessian_norm,
)


class TestAnnulusCoeffs:
    def test_identity_spec(self):
        assert np.allclose(annulus_coeffs(AnnulusSpec(0.5, 0.5, 0.0)), [1, 0, 0, 0])

    def test_quarter_turn(self):
        a, b, c, d = annulus_coeffs(AnnulusSpec(0.5, 0.5, np.pi / 2))
        assert a == pytest.approx(-1.0 / 3.0, rel=1e-12)
        assert b == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert c == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert d == pytest.approx(-1.0 / 3.0, rel=1e-12)

    def test_boundary_conditions(self, rng):
        for _ in range(20):
            r = rng.uniform(0.05, 0.9)
            s = rng.uniform(r, 0.95)
            theta = rng.uniform(0, 2 * np.pi)
            spec = AnnulusSpec(r, s, theta)
            a, b, c, d = annulus_coeffs(spec)
            assert a + b == pytest.approx(np.cos(theta), abs=1e-12)
            assert c + d == pytest.approx(np.sin(theta), abs=1e-12)
            assert a + b / r**2 == pytest.approx(s / r, abs=1e-11)
            assert c + d / r**2 == pytest.approx(0.0, abs=1e-11)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpecError):
            AnnulusSpec(1.5, 0.5, 0.0)
        with pytest.raises(InvalidSpecError):
            AnnulusSpec(0.5, 0.4, 0.0)

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle_refused(self, theta):
        # its coefficients were nan, with reversal_predicate false
        with pytest.raises(InvalidSpecError):
            AnnulusSpec(0.5, 0.5, theta)


class TestAnnulusMap:
    def test_identity_everywhere(self, rng):
        spec = AnnulusSpec(0.5, 0.5, 0.0)
        for _ in range(10):
            rho = rng.uniform(0.5, 1.0)
            phi = rng.uniform(0, 2 * np.pi)
            p = rho * np.array([np.cos(phi), np.sin(phi)])
            assert np.allclose(annulus_map(spec, p), p, atol=1e-13)
            assert annulus_jac_det(spec, p) == pytest.approx(1.0, abs=1e-13)

    def test_boundary_images_on_circles(self, rng):
        spec = AnnulusSpec(0.5, 0.7, 1.1)
        for phi in rng.uniform(0, 2 * np.pi, size=10):
            outer = np.array([np.cos(phi), np.sin(phi)])
            inner = 0.5 * outer
            assert np.linalg.norm(annulus_map(spec, outer)) == pytest.approx(
                1.0, abs=1e-12
            )
            assert np.linalg.norm(annulus_map(spec, inner)) == pytest.approx(
                0.7, abs=1e-12
            )

    def test_det_matches_finite_differences(self, rng):
        spec = AnnulusSpec(0.5, 0.6, 0.8)
        for _ in range(10):
            rho = rng.uniform(0.55, 0.95)
            phi = rng.uniform(0, 2 * np.pi)
            p = rho * np.array([np.cos(phi), np.sin(phi)])
            jac = fd_jacobian(lambda q: annulus_map(spec, q), p)
            assert annulus_jac_det(spec, p) == pytest.approx(
                np.linalg.det(jac), abs=1e-6
            )

    def test_det_minimized_on_inner_circle(self, rng):
        spec = AnnulusSpec(0.5, 0.5, 1.0)
        det_inner = annulus_jac_det(spec, (0.5, 0.0))
        for rho in rng.uniform(0.5, 1.0, size=20):
            assert annulus_jac_det(spec, (rho, 0.0)) >= det_inner - 1e-12

    def test_domain_errors(self):
        spec = AnnulusSpec(0.5, 0.5, 0.3)
        with pytest.raises(DomainError):
            annulus_map(spec, (0.0, 0.0))
        with pytest.raises(DomainError):
            annulus_map(spec, (0.1, 0.0))
        with pytest.raises(DomainError):
            annulus_jac_det(spec, (2.0, 0.0))


class TestType1Predicate:
    def test_cutoff_51_4_degrees(self):
        assert not type1_predicate(AnnulusSpec(0.5, 0.5, np.deg2rad(51.0)))
        assert type1_predicate(AnnulusSpec(0.5, 0.5, np.deg2rad(52.0)))

    def test_cutoff_20_4_degrees(self):
        assert not type1_predicate(AnnulusSpec(0.5, 0.75, np.deg2rad(20.0)))
        assert type1_predicate(AnnulusSpec(0.5, 0.75, np.deg2rad(21.0)))

    def test_identity_never_reverses(self, rng):
        for r in rng.uniform(0.05, 0.95, size=20):
            assert not type1_predicate(AnnulusSpec(r, r, 0.0))

    def test_agrees_with_grid_min(self, rng):
        # sign of (min det over annulus) vs the closed-form inequality
        for _ in range(20):
            r = rng.uniform(0.2, 0.8)
            s = rng.uniform(r, 0.9)
            theta = rng.uniform(0, np.pi)
            spec = AnnulusSpec(r, s, theta)
            a, b, c, d = annulus_coeffs(spec)
            rhos = np.linspace(r, 1.0, 400)
            dets = a * a + c * c - (b * b + d * d) / rhos**4
            margin = dets.min()
            if abs(margin) < 1e-8:
                continue
            assert type1_predicate(spec) == (margin < 0)


class TestInfinitesimalRotation:
    def test_inner_boundary_fixed(self):
        p = np.array([0.5, 0.0])
        assert np.allclose(infinitesimal_rotation_map(0.5, 2.0, p), p, atol=1e-13)

    def test_outer_boundary_full_rotation(self):
        theta = 1.3
        p = np.array([1.0, 0.0])
        expected = np.array([np.cos(theta), np.sin(theta)])
        assert np.allclose(infinitesimal_rotation_map(0.5, theta, p), expected, atol=1e-12)

    def test_intermediate_angle(self):
        # rho = 0.75: alpha = (1 - 0.25/0.5625) * theta / 0.75 = 0.74074... * theta
        p = np.array([0.75, 0.0])
        out = infinitesimal_rotation_map(0.5, np.pi, p)
        angle = np.arctan2(out[1], out[0])
        assert angle == pytest.approx(
            (1.0 - 0.25 / 0.5625) * np.pi / 0.75, rel=1e-12
        )

    def test_bijective_composition(self, rng):
        r, theta = 0.5, 5.0
        for _ in range(20):
            rho = rng.uniform(r, 1.0)
            phi = rng.uniform(0, 2 * np.pi)
            p = rho * np.array([np.cos(phi), np.sin(phi)])
            fwd = infinitesimal_rotation_map(r, theta, p)
            back = infinitesimal_rotation_map(r, -theta, fwd)
            assert np.allclose(back, p, atol=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            infinitesimal_rotation_map(0.5, 1.0, (0.2, 0.0))


class TestRectangleShear:
    def test_alpha_zero_identity(self, rng):
        for p in rng.uniform(-2, 2, size=(5, 2)):
            assert np.allclose(rectangle_shear_map(0.0, p), p)

    def test_peak_displacement(self):
        assert np.allclose(rectangle_shear_map(10.0, (1.0, 0.0)), [1.0, 10.0])

    def test_unit_jacobian(self, rng):
        for _ in range(10):
            p = rng.uniform(0, 2, size=2)
            alpha = rng.uniform(-20, 20)
            jac = fd_jacobian(lambda q: rectangle_shear_map(alpha, q), p)
            assert np.linalg.det(jac) == pytest.approx(1.0, abs=1e-8)
            assert np.allclose(shear_gradient(alpha, p), jac, atol=1e-6)

    def test_fixes_left_right_edges(self):
        for y in (0.0, 0.5, 1.0):
            assert np.allclose(rectangle_shear_map(7.0, (0.0, y)), [0.0, y])
            assert np.allclose(rectangle_shear_map(7.0, (2.0, y)), [2.0, y])


class TestNonlinear3d:
    def test_alpha_zero_is_linear(self, rng):
        for p in rng.uniform(-1, 1, size=(5, 3)):
            assert np.allclose(nonlinear3d_map(0.0, p), NONLINEAR3D_L @ p)

    def test_batch_maps_each_row_alone(self, rng):
        # a matrix product rounds by row count on some BLAS builds
        rows = rng.uniform(-3, 3, size=(1000, 3))
        for alpha in (0.0, 4.0):
            alone = np.array([nonlinear3d_map(alpha, p) for p in rows])
            assert nonlinear3d_map(alpha, rows).tobytes() == alone.tobytes()

    def test_sample_point(self):
        assert np.allclose(nonlinear3d_map(1.0, (1.0, 1.0, 1.0)), [1.1, 3.5, 1.1])

    def test_origin_fixed(self):
        for alpha in (0.0, 1.0, 13.0):
            assert np.allclose(nonlinear3d_map(alpha, (0.0, 0.0, 0.0)), 0.0)


class TestReversalBound:
    TRI = np.array([[0.3, 0.2], [0.45, 0.2], [0.35, 0.33]])

    def test_affine_always_safe(self, rng):
        for _ in range(10):
            tri = rng.uniform(0, 1, size=(3, 2))
            if abs(signed_measure(tri)) < 1e-3:
                continue
            grad = np.eye(2) + 0.2 * rng.standard_normal((2, 2))
            assert reversal_bound_check(tri, grad, 1e-300)

    def test_small_shear_safe_and_not_reversed(self):
        alpha = 0.05
        grad = shear_gradient(alpha, self.TRI[0])
        assert reversal_bound_check(self.TRI, grad, shear_hessian_norm(alpha))
        mapped = np.array([rectangle_shear_map(alpha, p) for p in self.TRI])
        assert signed_measure(mapped) > 0

    def test_table_regime_no_guarantee(self):
        # coarse element, large alpha: sigma_min/M is tiny, condition fails
        alpha = 10.0
        tri = np.array([[0.9, 0.4], [1.105, 0.4], [1.0, 0.5]])
        grad = shear_gradient(alpha, tri[0])
        m = shear_hessian_norm(alpha)
        sigma_min = np.linalg.svd(grad, compute_uv=False)[-1]
        assert sigma_min / m < 0.05  # same order as the coarse-mesh regime
        assert not reversal_bound_check(tri, grad, m)

    def test_invalid_bound(self):
        with pytest.raises(InvalidBoundError):
            reversal_bound_check(self.TRI, np.eye(2), 0.0)

    def test_rotation_hessian_bound_positive(self):
        tri = np.array([[0.6, 0.0], [0.7, 0.05], [0.62, 0.09]])
        m = rotation_hessian_norm_bound(0.5, 2.0, tri, samples=4)
        assert m > 0.0
