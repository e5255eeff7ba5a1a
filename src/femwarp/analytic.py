"""Closed-form maps and predicates used as oracles and test fixtures.

The annulus (outer radius 1, inner radius r) under inner-radius motion
r -> s plus an outer rotation theta admits a closed-form harmonic map,
its Jacobian determinant, and an if-and-only-if reversal predicate.  Also
here: the concentric-rotation limit map, a divergence-free rectangle
shear, a nonlinear 3D stress deformation, and a sufficient no-reversal
bound for mapped triangles.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidBoundError, InvalidSpecError
from .mesh import _element


@dataclass(frozen=True)
class AnnulusSpec:
    """Annulus deformation: inner radius r moved to s, outer rotated by theta."""

    r: float
    s: float
    theta: float

    def __post_init__(self):
        if not (0.0 < self.r < 1.0):
            raise InvalidSpecError(f"inner radius must lie in (0,1), got {self.r}")
        if not (self.r <= self.s < 1.0):
            raise InvalidSpecError(f"deformed radius must lie in [r,1), got {self.s}")


def annulus_coeffs(spec):
    """Coefficients (a, b, c, d) of the harmonic annulus map.

    They satisfy the four boundary conditions a+b = cos(theta),
    c+d = sin(theta), a+b/r^2 = s/r, c+d/r^2 = 0.
    """
    r, s, theta = spec.r, spec.s, spec.theta
    denom = 1.0 - r * r
    a = (np.cos(theta) - r * s) / denom
    b = (r * s - r * r * np.cos(theta)) / denom
    c = np.sin(theta) / denom
    d = -r * r * np.sin(theta) / denom
    return a, b, c, d


def annulus_map(spec, point):
    """Harmonic map of the annulus: (x, y) -> (Ax + By, -Bx + Ay)
    with A = a + b/rho^2, B = c + d/rho^2."""
    x, y = _check_annulus_point(spec.r, point)
    a, b, c, d = annulus_coeffs(spec)
    rho2 = x * x + y * y
    big_a = a + b / rho2
    big_b = c + d / rho2
    return np.array([big_a * x + big_b * y, -big_b * x + big_a * y])


def annulus_jac_det(spec, point):
    """Jacobian determinant of the annulus map, a^2+c^2 - (b^2+d^2)/rho^4.

    Minimized on the inner circle rho = r.
    """
    x, y = _check_annulus_point(spec.r, point)
    a, b, c, d = annulus_coeffs(spec)
    rho2 = x * x + y * y
    return a * a + c * c - (b * b + d * d) / (rho2 * rho2)


def _check_annulus_point(r, point):
    x, y = float(point[0]), float(point[1])
    rho = np.hypot(x, y)
    if rho == 0.0:
        raise DomainError("annulus map undefined at the origin")
    if rho < r - 1e-9 or rho > 1.0 + 1e-9:
        raise DomainError(f"point at radius {rho:g} outside annulus [{r}, 1]")
    return x, y


def type1_predicate(spec):
    """True iff the continuum annulus map reverses orientation somewhere,
    i.e. 2 r cos(theta) - r^2 s - s < 0."""
    r, s, theta = spec.r, spec.s, spec.theta
    return 2.0 * r * np.cos(theta) - r * r * s - s < 0.0


def infinitesimal_rotation_map(r, theta, point):
    """Limit of the annulus rotation taken in infinitely many small steps.

    A point at radius rho is rotated by (1 - r^2/rho^2) * theta / (1 - r^2);
    the inner boundary stays fixed, the outer rotates by theta.  Bijective
    for every theta.
    """
    x, y = _check_annulus_point(r, point)
    rho = np.hypot(x, y)
    alpha = (1.0 - (r * r) / (rho * rho)) * theta / (1.0 - r * r)
    ca, sa = np.cos(alpha), np.sin(alpha)
    return np.array([ca * x - sa * y, sa * x + ca * y])


def rectangle_shear_map(alpha, points):
    """(x, y) -> (x, y + alpha*x*(2-x)) of one point or of rows of points;
    unit Jacobian determinant everywhere, so only finite elements (never the
    continuum) can reverse under it."""
    out = np.array(points, dtype=float)
    x = out[..., 0]
    out[..., 1] += alpha * x * (2.0 - x)
    return out


def nonlinear3d_map(alpha, points):
    """3D stress deformation of one point or of rows of points: the linear
    map (2x - y, -2x + 5y, z) plus alpha times a quadratic perturbation
    (0.1xy, 0.5yz, 0.1x^2).  Written column by column, not as a matrix
    product, so a row maps to the same bits alone as in any batch."""
    p = np.asarray(points, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    linear = (2.0 * x - y, -2.0 * x + 5.0 * y, z)
    quad = (0.1 * x * y, 0.5 * y * z, 0.1 * x * x)
    return np.stack([a + alpha * b for a, b in zip(linear, quad)], axis=-1)


def reversal_bound_check(triangle, grad_at_v1, hessian_bound):
    """Sufficient no-reversal condition for a mapped triangle.

    Given the map's gradient at the first vertex and an upper bound M on the
    Hessian norm over the triangle, the image cannot be reversed when
    sigma_min(grad) / M > 2 * h * asp(T).  One-sided: False carries no
    information (the bound is conservative in practice).
    """
    if hessian_bound <= 0.0:
        raise InvalidBoundError(f"hessian bound must be positive, got {hessian_bound}")
    triangle = np.asarray(triangle, dtype=float)
    sigma_min = np.linalg.svd(np.asarray(grad_at_v1, dtype=float), compute_uv=False)[-1]
    _, h, aspect, _ = _element(triangle, quality=True)
    return sigma_min / hessian_bound > 2.0 * h * aspect
