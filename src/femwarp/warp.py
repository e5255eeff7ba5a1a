"""Warping drivers: one-shot solves, small-step homotopy with stepsize
halving, and multi-frame trajectory replay.
"""

from dataclasses import dataclass, field

import numpy as np

from . import analytic
from .assembly import Topology, build_weights
from .mesh import Mesh, count_reversals, quality_report
from .solve import factor, solve_multi

DEFAULT_MIN_STEP = 1.0 / 128.0


class BoundaryMotion:
    """Target boundary coordinates as a function of a motion fraction t.

    ``evaluate(0)`` returns the original boundary coordinates and
    ``evaluate(1)`` the full deformation; rows follow ``ids`` (ascending
    boundary node ids of the originating mesh).
    """

    def __init__(self, ids, base_coords):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.base_coords = np.array(base_coords, dtype=float)

    def evaluate(self, t):
        raise NotImplementedError


class AffineMotion(BoundaryMotion):
    """Linear interpolation toward L x + v; every intermediate configuration
    is itself affine."""

    def __init__(self, mesh, matrix, shift):
        super().__init__(mesh.boundary_ids, mesh.coords[mesh.boundary_ids])
        self.matrix = np.asarray(matrix, dtype=float)
        self.shift = np.asarray(shift, dtype=float)

    def evaluate(self, t):
        target = self.base_coords @ self.matrix.T + self.shift
        return (1.0 - t) * self.base_coords + t * target


class ParametricMotion(BoundaryMotion):
    """Named closed-form motion; the map's scalar parameter is scaled by t."""

    def __init__(self, mesh, fn):
        super().__init__(mesh.boundary_ids, mesh.coords[mesh.boundary_ids])
        self._fn = fn

    def evaluate(self, t):
        return self._fn(self.base_coords, t)


def annulus_rotation_motion(mesh, theta_outer, theta_inner=0.0, r=None, s=None):
    """Rotate the outer boundary by theta_outer and the inner by theta_inner,
    optionally moving the inner radius from r to s, all proportionally in t.

    Boundary nodes are classified inner/outer by radius against the midpoint
    of the two boundary radii.
    """
    ids = mesh.boundary_ids
    pts = mesh.coords[ids]
    radii = np.linalg.norm(pts, axis=1)
    if r is None:
        r = radii.min()
    cut = 0.5 * (radii.min() + radii.max())
    inner = radii < cut

    def fn(base, t):
        out = np.empty_like(base)
        for mask, theta in ((inner, theta_inner), (~inner, theta_outer)):
            a = t * theta
            rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
            out[mask] = base[mask] @ rot.T
        if s is not None and s != r:
            scale = (r + t * (s - r)) / r
            out[inner] *= scale
        return out

    return ParametricMotion(mesh, lambda base, t: fn(base, t))


def shear_motion(mesh, alpha):
    """Rectangle shear (x, y) -> (x, y + t*alpha*x*(2-x)) on the boundary."""

    def fn(base, t):
        out = base.copy()
        out[:, 1] += t * alpha * base[:, 0] * (2.0 - base[:, 0])
        return out

    return ParametricMotion(mesh, fn)


def nonlinear3d_motion(mesh, alpha):
    """Homotopy from identity to the 3D stress deformation: the linear part
    is blended (1-t)I + tL while the quadratic part is scaled by t*alpha."""
    lin = analytic.NONLINEAR3D_LINEAR

    def fn(base, t):
        blend = (1.0 - t) * np.eye(3) + t * lin
        x, y, z = base[:, 0], base[:, 1], base[:, 2]
        quad = np.column_stack([0.1 * x * y, 0.5 * y * z, 0.1 * x * x])
        return base @ blend.T + (t * alpha) * quad

    return ParametricMotion(mesh, fn)


class TabulatedMotion(BoundaryMotion):
    """Piecewise-linear motion through explicit per-frame boundary coordinates.

    ``frames`` excludes the initial configuration; t=1 lands on the last
    frame.
    """

    def __init__(self, mesh, frames):
        super().__init__(mesh.boundary_ids, mesh.coords[mesh.boundary_ids])
        self.frames = [np.asarray(f, dtype=float) for f in frames]
        for f in self.frames:
            if f.shape != self.base_coords.shape:
                raise ValueError("frame shape does not match boundary")

    def evaluate(self, t):
        pts = [self.base_coords] + self.frames
        pos = t * (len(pts) - 1)
        lo = min(int(np.floor(pos)), len(pts) - 2)
        frac = pos - lo
        return (1.0 - frac) * pts[lo] + frac * pts[lo + 1]


@dataclass(frozen=True)
class StepRecord:
    t_start: float
    t_end: float
    accepted: bool
    reversals: int


@dataclass(frozen=True)
class WarpReport:
    """Outcome of a warp: reversal status, step history and solver cost."""

    outcome: str  # SUCCESS | REVERSED
    reversals: int
    n_factorizations: int
    steps: tuple = field(default_factory=tuple)
    t_reached: float = 1.0
    quality: object = None

    @property
    def success(self):
        return self.outcome == "SUCCESS"


def femwarp_step(mesh, weights, target_boundary):
    """One-shot warp: solve A_I X_I = -A_B X_B for the target boundary.

    The warped mesh is returned even when reversed; the caller decides what
    to do with it.
    """
    target_boundary = np.asarray(target_boundary, dtype=float)
    if target_boundary.shape != (weights.b, mesh.dim):
        raise ValueError("target must cover every boundary node")
    f = factor(weights.a_ii, spd=weights.symmetric)
    return _step_with_factor(
        mesh, weights, f, target_boundary, n_factorizations=1, with_quality=True
    )


def _step_with_factor(
    mesh, weights, f, target_boundary, n_factorizations, with_quality=False
):
    x_i = solve_multi(f, -(weights.a_ib @ target_boundary))
    coords = np.array(mesh.coords)
    coords[weights.interior_ids] = x_i
    coords[weights.boundary_ids] = target_boundary
    new_mesh = mesh.with_coords(coords)
    nrev, _ = count_reversals(new_mesh)
    outcome = "SUCCESS" if nrev == 0 else "REVERSED"
    report = WarpReport(
        outcome=outcome,
        reversals=nrev,
        n_factorizations=n_factorizations,
        steps=(StepRecord(0.0, 1.0, nrev == 0, nrev),),
        quality=quality_report(new_mesh) if with_quality else None,
    )
    return new_mesh, report


def small_step_femwarp(
    mesh, scheme, motion, min_step=DEFAULT_MIN_STEP, constant_step=False
):
    """Homotopy warp with greedy stepsize halving.

    From the current fraction t, attempt the full remaining motion; on
    reversal halve the increment, reusing the same factorization (weights
    depend only on the current mesh, not the trial target).  After an
    accepted step the weights are rebuilt and refactored.  Connectivity, the
    sparsity pattern of A_I and its fill-reducing order are computed once
    per warp; each rebuild and refactorization redoes only values.  Fails
    with outcome REVERSED once the increment drops below ``min_step``.

    ``constant_step`` disables the halving search and advances by
    ``min_step`` each time, stopping at the first reversal.
    """
    if min_step <= 0.0:
        raise ValueError("min_step must be positive")
    cur = mesh
    t = 0.0
    nchol = 0
    steps = []
    topology = Topology(mesh)
    weights = build_weights(cur, scheme, topology=topology)
    f = factor(weights.a_ii, spd=weights.symmetric)
    order = f.order
    nchol += 1
    while t < 1.0 - 1e-12:
        dt = min(min_step, 1.0 - t) if constant_step else 1.0 - t
        accepted = None
        while True:
            target = motion.evaluate(min(t + dt, 1.0))
            trial, rep = _step_with_factor(cur, weights, f, target, nchol)
            steps.append(StepRecord(t, t + dt, rep.reversals == 0, rep.reversals))
            if rep.reversals == 0:
                accepted = trial
                break
            if constant_step:
                break
            dt *= 0.5
            if dt < min_step:
                break
        if accepted is None:
            return cur, WarpReport(
                outcome="REVERSED",
                reversals=rep.reversals,
                n_factorizations=nchol,
                steps=tuple(steps),
                t_reached=t,
                quality=quality_report(cur),
            )
        cur = accepted
        t = min(t + dt, 1.0)
        if t < 1.0 - 1e-12:
            f = None  # release the old factors before computing the next ones
            weights = build_weights(cur, scheme, topology=topology)
            f = factor(weights.a_ii, spd=weights.symmetric, order=order)
            nchol += 1
    return cur, WarpReport(
        outcome="SUCCESS",
        reversals=0,
        n_factorizations=nchol,
        steps=tuple(steps),
        t_reached=1.0,
        quality=quality_report(cur),
    )


def warp_trajectory(mesh, scheme, motion, small_steps=False, continue_on_failure=False):
    """Replay a tabulated motion frame by frame.

    Each frame warps from the previous frame's mesh with freshly built
    weights; one-shot solves by default, per-frame small steps on request.
    Stops at the first reversed frame unless ``continue_on_failure``.
    """
    if not isinstance(motion, TabulatedMotion):
        raise TypeError("warp_trajectory needs a TabulatedMotion")
    meshes = []
    reports = []
    cur = mesh
    n = len(motion.frames)
    for k, frame in enumerate(motion.frames):
        if small_steps:
            frame_motion = TabulatedMotion(cur, [frame])
            cur, rep = small_step_femwarp(cur, scheme, frame_motion)
        else:
            weights = build_weights(cur, scheme)
            cur, rep = femwarp_step(cur, weights, frame)
        meshes.append(cur)
        reports.append(rep)
        if not rep.success and not continue_on_failure:
            break
    return meshes, reports
