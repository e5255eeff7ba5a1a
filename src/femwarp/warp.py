"""Warping drivers: one-shot solves, small-step homotopy with stepsize
halving, and multi-frame trajectory replay.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import analytic
from .assembly import build_weights
from .errors import InvalidSpecError, ShapeError
from .mesh import _dot, count_reversals, quality_report
from .solve import factor, solve_multi

DEFAULT_MIN_STEP = 1.0 / 128.0


class BoundaryMotion:
    """Target boundary coordinates as a function of a motion fraction t.

    ``fn(base, t)`` maps the original boundary coordinates ``base_coords``
    (rows in ascending boundary id order) to their position at fraction t:
    ``evaluate(0)`` returns them unchanged and ``evaluate(1)`` gives the
    full deformation.
    """

    def __init__(self, mesh, fn):
        self.base_coords = np.array(mesh.coords[mesh.boundary_ids], dtype=float)
        self._fn = fn

    def evaluate(self, t):
        return self._fn(self.base_coords, t)


def _apply(matrix, base):
    """``base @ matrix.T`` written axis by axis, not as a matrix product, so
    its bits do not depend on the BLAS build."""
    return _dot(np.asarray(matrix, dtype=float).T[..., None], base.T[:, None]).T


def annulus_rotation_motion(mesh, theta_outer, theta_inner=0.0, s=None):
    """Rotate the outer boundary by theta_outer and the inner by theta_inner,
    optionally moving the inner radius r (the smallest boundary radius) to
    s, all proportionally in t.

    Boundary nodes are classified inner/outer by radius against the midpoint
    of the two boundary radii; ``np.hypot`` takes the radii without squaring
    the coordinates, so the split holds at any scale.  A mesh that is not 2D,
    a non-finite angle, or a given ``s`` with ``r`` not positive, raises
    INVALID_SPEC.
    """
    if mesh.dim != 2:
        raise InvalidSpecError(f"an annulus rotation needs a 2D mesh, not {mesh.dim}D")
    if not (math.isfinite(theta_outer) and math.isfinite(theta_inner)):
        raise InvalidSpecError(f"rotation angles must be finite, not {theta_outer}, {theta_inner}")
    radii = np.hypot(*mesh.coords[mesh.boundary_ids].T)
    r = radii.min()
    if s is not None and not r > 0.0:
        raise InvalidSpecError(f"moving the inner radius to s needs a positive radius, not {r}")
    inner = radii < 0.5 * (r + radii.max())

    def fn(base, t):
        out = np.empty_like(base)
        for mask, theta in ((inner, theta_inner), (~inner, theta_outer)):
            c, sn = math.cos(t * theta), math.sin(t * theta)
            out[mask] = _apply([[c, -sn], [sn, c]], base[mask])
        if s is not None and s != r:
            scale = (r + t * (s - r)) / r
            out[inner] *= scale
        return out

    return BoundaryMotion(mesh, fn)


class TabulatedMotion(BoundaryMotion):
    """Piecewise-linear motion through explicit per-frame boundary coordinates.

    ``frames`` excludes the initial configuration and holds at least one
    frame; t=1 lands on the last frame.  A straight-line motion
    (``AffineMotion``, ``shear_motion``, ``nonlinear3d_motion``) is one
    frame, the image of the boundary.
    """

    def __init__(self, mesh, frames):
        super().__init__(mesh, self._interpolate)
        self.frames = [np.asarray(f, dtype=float) for f in frames]
        if not self.frames:
            raise InvalidSpecError("a tabulated motion needs at least one frame")
        if any(f.shape != self.base_coords.shape for f in self.frames):
            raise ShapeError("frame shape does not match boundary")

    def _interpolate(self, base, t):
        pts = [base] + self.frames
        pos = t * (len(pts) - 1)
        lo = min(int(np.floor(pos)), len(pts) - 2)
        frac = pos - lo
        return (1.0 - frac) * pts[lo] + frac * pts[lo + 1]


def _image(mesh, fn):
    """The one frame ``[fn(boundary coordinates)]`` of a straight-line
    motion.  It is built without numpy warnings: a target that overflows is
    refused where a driver reads it (``cli._finite_target``)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [fn(mesh.coords[mesh.boundary_ids])]


class AffineMotion(TabulatedMotion):
    """The straight line toward L x + v, one tabulated frame; every
    intermediate configuration is itself affine."""

    def __init__(self, mesh, matrix, shift):
        if np.shape(matrix) != (mesh.dim, mesh.dim):
            raise ShapeError(f"matrix must be {mesh.dim}x{mesh.dim}")
        shift = np.asarray(shift, dtype=float)
        super().__init__(mesh, _image(mesh, lambda base: _apply(matrix, base) + shift))


def shear_motion(mesh, alpha):
    """The straight line toward the rectangle shear
    ``analytic.rectangle_shear_map(alpha, .)`` of the boundary."""
    frames = _image(mesh, partial(analytic.rectangle_shear_map, alpha))
    return TabulatedMotion(mesh, frames)


def nonlinear3d_motion(mesh, alpha):
    """The straight line toward the 3D stress deformation
    ``analytic.nonlinear3d_map(alpha, .)`` of the boundary.  A mesh that is
    not 3D raises INVALID_SPEC."""
    if mesh.dim != 3:
        raise InvalidSpecError(f"a nonlinear3d motion needs a 3D mesh, not {mesh.dim}D")
    frames = _image(mesh, partial(analytic.nonlinear3d_map, alpha))
    return TabulatedMotion(mesh, frames)


@dataclass(frozen=True)
class StepRecord:
    t_start: float
    t_end: float
    accepted: bool
    reversals: int


@dataclass(frozen=True)
class WarpReport:
    """Outcome of a warp: reversal status, step history, solver cost and the
    quality of the returned mesh, and the outcome and sweep count of the
    untangle run that followed it, None when none ran."""

    outcome: str  # SUCCESS | REVERSED
    reversals: int
    n_factorizations: int
    steps: tuple
    t_reached: float
    quality: object
    untangle_outcome: str | None = None  # SUCCESS | STALLED | MAX_SWEEPS
    untangle_sweeps: int | None = None

    @property
    def success(self):
        return self.outcome == "SUCCESS"


def warp_report(mesh, reversals, n_factorizations, steps, t_reached=1.0):
    """The WarpReport of a returned mesh: SUCCESS iff ``reversals`` is 0,
    with the mesh's quality report."""
    return WarpReport(
        outcome="SUCCESS" if reversals == 0 else "REVERSED",
        reversals=reversals,
        n_factorizations=n_factorizations,
        steps=tuple(steps),
        t_reached=t_reached,
        quality=quality_report(mesh),
    )


def _place(mesh, weights, x_i, target):
    """``mesh`` with interior rows ``x_i`` and boundary rows ``target``, and
    its number of reversed elements."""
    coords = np.array(mesh.coords)
    coords[weights.interior_ids] = x_i
    coords[weights.boundary_ids] = target
    new_mesh = mesh.with_coords(coords)
    return new_mesh, count_reversals(new_mesh)[0]


def femwarp_step(mesh, weights, target_boundary):
    """One-shot warp: solve A_I X_I = -A_B X_B for the target boundary.

    The warped mesh is returned even when reversed; the caller decides what
    to do with it.
    """
    target_boundary = np.asarray(target_boundary, dtype=float)
    if target_boundary.shape != (len(weights.boundary_ids), mesh.dim):
        raise ShapeError("target must cover every boundary node")
    f = factor(weights.a_ii, order=mesh.topology.order)
    x_i = solve_multi(f, -(weights.a_ib @ target_boundary))
    del f  # free the LU before the reversal count and the quality report
    warped, nrev = _place(mesh, weights, x_i, target_boundary)
    return warped, warp_report(warped, nrev, 1, [StepRecord(0.0, 1.0, nrev == 0, nrev)])


def small_step_femwarp(mesh, scheme, motion, min_step=DEFAULT_MIN_STEP):
    """Homotopy warp with greedy stepsize halving.

    From the current fraction t, attempt the full remaining motion; on
    reversal halve the increment, reusing the same factorization (weights
    depend only on the current mesh, not the trial target).  After an
    accepted step the weights are rebuilt and refactored.  Every accepted
    mesh shares ``mesh.topology``, and every factorization takes its
    ``order``; a refactorization reruns all of SuperLU, its symbolic
    analysis included.  Fails with outcome REVERSED once the increment
    drops below ``min_step``, returning the last accepted mesh and the
    fraction t it reached.  The fixed-step baseline is ``warp_trajectory``
    over the frames ``motion.evaluate(min(k*h, 1))``.
    """
    if not min_step > 0.0:
        raise InvalidSpecError("min_step must be positive")
    cur, t, nrev, nchol, steps = mesh, 0.0, 0, 0, []
    while t < 1.0 - 1e-12:
        f = None  # release the old factors before computing the next ones
        weights = build_weights(cur, scheme)
        f = factor(weights.a_ii, order=mesh.topology.order)
        nchol += 1
        dt = 1.0 - t
        while True:
            target = motion.evaluate(min(t + dt, 1.0))
            trial, nrev = _place(
                cur, weights, solve_multi(f, -(weights.a_ib @ target)), target
            )
            steps.append(StepRecord(t, t + dt, nrev == 0, nrev))
            if nrev == 0 or 0.5 * dt < min_step:
                break
            dt *= 0.5
        if nrev:
            break
        cur = trial
        t = min(t + dt, 1.0)
    # a success stops within 1e-12 of t = 1 and reports t = 1 exactly
    return cur, warp_report(cur, nrev, nchol, steps, t if nrev else 1.0)


def warp_trajectory(mesh, scheme, motion):
    """Replay a tabulated motion one-shot, frame by frame.

    Each frame warps the previous frame's mesh with weights rebuilt on it;
    all frames share ``mesh.topology``.  Stops at the first reversed frame.
    """
    if not isinstance(motion, TabulatedMotion):
        raise TypeError("warp_trajectory needs a TabulatedMotion")
    meshes = []
    reports = []
    cur = mesh
    for frame in motion.frames:
        weights = build_weights(cur, scheme)
        cur, rep = femwarp_step(cur, weights, frame)
        meshes.append(cur)
        reports.append(rep)
        if not rep.success:
            break
    return meshes, reports
