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
from .mesh import aspect_ratio, _edge_lengths


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
    x, y = _check_annulus_point(spec, point)
    a, b, c, d = annulus_coeffs(spec)
    rho2 = x * x + y * y
    big_a = a + b / rho2
    big_b = c + d / rho2
    return np.array([big_a * x + big_b * y, -big_b * x + big_a * y])


def annulus_jac_det(spec, point):
    """Jacobian determinant of the annulus map, a^2+c^2 - (b^2+d^2)/rho^4.

    Minimized on the inner circle rho = r.
    """
    x, y = _check_annulus_point(spec, point)
    a, b, c, d = annulus_coeffs(spec)
    rho2 = x * x + y * y
    return a * a + c * c - (b * b + d * d) / (rho2 * rho2)


def _check_annulus_point(spec, point, slack=1e-9):
    x, y = float(point[0]), float(point[1])
    rho = np.hypot(x, y)
    if rho == 0.0:
        raise DomainError("annulus map undefined at the origin")
    if rho < spec.r - slack or rho > 1.0 + slack:
        raise DomainError(f"point at radius {rho:g} outside annulus [{spec.r}, 1]")
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
    x, y = float(point[0]), float(point[1])
    rho = np.hypot(x, y)
    if rho < r - 1e-9 or rho > 1.0 + 1e-9:
        raise DomainError(f"point at radius {rho:g} outside annulus [{r}, 1]")
    alpha = (1.0 - (r * r) / (rho * rho)) * theta / (1.0 - r * r)
    ca, sa = np.cos(alpha), np.sin(alpha)
    return np.array([ca * x - sa * y, sa * x + ca * y])


def rectangle_shear_map(alpha, point):
    """(x, y) -> (x, y + alpha*x*(2-x)); unit Jacobian determinant everywhere,
    so only finite elements (never the continuum) can reverse under it."""
    x, y = float(point[0]), float(point[1])
    return np.array([x, y + alpha * x * (2.0 - x)])


def nonlinear3d_map(alpha, point):
    """3D stress deformation: a fixed linear map plus alpha times a
    quadratic perturbation (0.1xy, 0.5yz, 0.1x^2)."""
    x, y, z = (float(v) for v in point[:3])
    linear = np.array([2.0 * x - y, -2.0 * x + 5.0 * y, z])
    return linear + alpha * np.array([0.1 * x * y, 0.5 * y * z, 0.1 * x * x])


NONLINEAR3D_LINEAR = np.array([[2.0, -1.0, 0.0], [-2.0, 5.0, 0.0], [0.0, 0.0, 1.0]])


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
    h = _edge_lengths(triangle[None]).max()
    return sigma_min / hessian_bound > 2.0 * h * aspect_ratio(triangle)


# numeric helpers for the analytic maps (used as oracles in tests and by
# the soundness checks)

def numeric_jacobian(fn, point, eps=1e-6):
    """Central-difference Jacobian of a 2D/3D map at a point."""
    point = np.asarray(point, dtype=float)
    d = point.size
    cols = []
    for j in range(d):
        step = np.zeros(d)
        step[j] = eps
        cols.append((np.asarray(fn(point + step)) - np.asarray(fn(point - step))) / (2 * eps))
    return np.column_stack(cols)


def shear_gradient(alpha, point):
    x = float(point[0])
    return np.array([[1.0, 0.0], [alpha * (2.0 - 2.0 * x), 1.0]])


def shear_hessian_norm(alpha):
    # second derivatives: only d2y/dx2 = -2*alpha
    return 2.0 * abs(alpha)


def rotation_gradient(r, theta, point):
    return numeric_jacobian(lambda p: infinitesimal_rotation_map(r, theta, p), point)


def rotation_hessian_norm_bound(r, theta, triangle, samples=10):
    """Upper bound on the rotation map's Hessian norm over a triangle,
    estimated from a barycentric sample of finite-difference Hessians."""
    triangle = np.asarray(triangle, dtype=float)
    best = 0.0
    for i in range(samples + 1):
        for j in range(samples + 1 - i):
            k = samples - i - j
            p = (i * triangle[0] + j * triangle[1] + k * triangle[2]) / samples
            best = max(best, _hessian_norm(lambda q: infinitesimal_rotation_map(r, theta, q), p))
    return best


def _hessian_norm(fn, point, eps=1e-5):
    point = np.asarray(point, dtype=float)
    d = point.size
    total = 0.0
    for comp in range(d):
        h = np.zeros((d, d))
        for a in range(d):
            for b in range(d):
                pa, pb = np.zeros(d), np.zeros(d)
                pa[a] = eps
                pb[b] = eps
                h[a, b] = (
                    fn(point + pa + pb)[comp]
                    - fn(point + pa - pb)[comp]
                    - fn(point - pa + pb)[comp]
                    + fn(point - pa - pb)[comp]
                ) / (4 * eps * eps)
        total += np.linalg.norm(h, 2) ** 2
    return np.sqrt(total)
