"""Command line drivers.

Subcommands: ``warp``, ``sweep``, ``quality``, ``oracle``, ``genmesh``.
Exit codes: 0 success, 2 warp completed with reversals, 1 usage/parse or
internal error.  Error paths print a single machine-parsable line to
stderr: ``error code=<CODE> message=<text>``.
"""

import argparse
import sys

import numpy as np

from . import io
from .analytic import AnnulusSpec, annulus_coeffs, annulus_jac_det, type1_predicate
from .assembly import SCHEMES, build_weights
from .errors import FemwarpError, InvalidSpecError, UsageError
from .generators import gen_annulus, gen_rectangle
from .mesh import quality_report
from .untangle import hybrid_warp, untangle_warp
from .warp import (
    DEFAULT_MIN_STEP,
    AffineMotion,
    TabulatedMotion,
    annulus_rotation_motion,
    femwarp_step,
    nonlinear3d_motion,
    shear_motion,
    small_step_femwarp,
)

ALGORITHMS = ("femwarp", "small_step", "untangle", "hybrid")
# the spec keys every run reads, and those each motion kind adds
RUN_KEYS = ("motion", "algorithm", "scheme", "min_step", "max_sweeps")
MOTION_KEYS = {
    "affine": ("l", "v"),
    "annulus": ("theta_outer", "theta_inner", "s"),
    "shear": ("alpha",),
    "nonlinear3d": ("alpha",),
    "tabulated": ("frames",),
}


def _read_mesh(base):
    return io.read_mesh(base + ".node", base + ".ele")


def _spec_number(spec, key, default, kind=float):
    """``spec[key]`` parsed as ``kind``, or ``default`` when absent;
    INVALID_SPEC when it does not parse or is not finite."""
    if key not in spec:
        return default
    try:
        value = io.number(kind)(spec[key])
    except ValueError:
        raise InvalidSpecError(f"{key} = {spec[key]!r} is not a valid {kind.__name__}")
    if kind is float and not np.isfinite(value):
        raise InvalidSpecError(f"{key} = {spec[key]!r} is not finite")
    return value


def build_motion(mesh, spec, scale=1.0):
    """Construct the BoundaryMotion described by a spec dict.

    ``scale`` multiplies the motion's scalar parameter (used by sweeps); a
    tabulated motion has none.
    """
    kind = spec.get("motion")
    if kind is None:
        raise InvalidSpecError("spec is missing 'motion'")
    if kind not in MOTION_KEYS:
        raise InvalidSpecError(f"unknown motion kind {kind!r}")
    for key in spec:
        if key in MOTION_KEYS[kind] or key in RUN_KEYS:
            continue
        if any(key in keys for keys in MOTION_KEYS.values()):
            raise InvalidSpecError(f"a {kind} motion does not read {key!r}")
        raise InvalidSpecError(f"unknown spec key {key!r}")
    if kind == "affine":
        if "l" not in spec:
            raise InvalidSpecError("affine motion needs 'l'")
        matrix = io.parse_matrix(spec["l"], mesh.dim)
        shift = (
            io.parse_vector(spec["v"], mesh.dim)
            if "v" in spec
            else np.zeros(mesh.dim)
        )
        if scale != 1.0:
            eye = np.eye(mesh.dim)
            # an overflow is refused with the target (``_finite_target``)
            with np.errstate(over="ignore", invalid="ignore"):
                matrix = eye + scale * (matrix - eye)
                shift = scale * shift
        return AffineMotion(mesh, matrix, shift)
    if kind == "shear":
        return shear_motion(mesh, scale * _spec_number(spec, "alpha", 0.0))
    if kind == "annulus":
        theta_outer = scale * _spec_number(spec, "theta_outer", 0.0)
        theta_inner = scale * _spec_number(spec, "theta_inner", 0.0)
        s = _spec_number(spec, "s", None)
        return annulus_rotation_motion(mesh, theta_outer, theta_inner, s=s)
    if kind == "nonlinear3d":
        return nonlinear3d_motion(mesh, scale * _spec_number(spec, "alpha", 0.0))
    if kind == "tabulated":
        paths = [p.strip() for p in spec.get("frames", "").split(",")]
        return TabulatedMotion(mesh, [io.read_boundary_frame(mesh, p) for p in paths if p])


def run_algorithm(mesh, spec, motion):
    """Run the spec's algorithm against one motion; returns (mesh, report)."""
    algorithm = spec.get("algorithm", "femwarp")
    scheme = spec.get("scheme", "fem")
    if scheme.upper() not in SCHEMES:
        raise InvalidSpecError(f"unknown scheme {scheme!r}; want one of {SCHEMES}")
    min_step = _spec_number(spec, "min_step", DEFAULT_MIN_STEP)
    if not min_step > 0.0:
        raise InvalidSpecError(f"min_step must be positive, got {min_step!r}")
    max_sweeps = _spec_number(spec, "max_sweeps", 50, kind=int)
    if max_sweeps < 0:
        raise InvalidSpecError(f"max_sweeps must not be negative, got {max_sweeps}")
    if algorithm not in ALGORITHMS:
        raise InvalidSpecError(f"unknown algorithm {algorithm!r}")
    target = _finite_target(motion)
    if algorithm == "femwarp":
        return femwarp_step(mesh, build_weights(mesh, scheme), target)
    if algorithm == "small_step":
        return small_step_femwarp(mesh, scheme, motion, min_step=min_step)
    if algorithm == "hybrid":
        return hybrid_warp(mesh, build_weights(mesh, scheme), target, max_sweeps=max_sweeps)
    coords = np.array(mesh.coords)
    coords[mesh.boundary_ids] = target
    # built on ``mesh`` before the copy, so one sweep's runs share it
    mesh.topology
    return untangle_warp(mesh.with_coords(coords), max_sweeps=max_sweeps)


def _finite_target(motion):
    """The motion's full boundary target; INVALID_SPEC when a finite spec
    value overflows it to inf or nan.  The small-step homotopy's targets
    scale toward this one, so checking it covers theirs."""
    with np.errstate(over="ignore", invalid="ignore"):
        target = motion.evaluate(1.0)
    if not np.isfinite(target).all():
        raise InvalidSpecError("the motion's boundary target is not finite")
    return target


def _report_lines(report):
    lines = [
        f"outcome = {report.outcome}",
        f"reversals = {report.reversals}",
        f"n_factorizations = {report.n_factorizations}",
        f"t_reached = {report.t_reached:.17g}",
    ]
    if report.untangle_outcome is not None:
        lines.append(f"untangle_outcome = {report.untangle_outcome}")
        lines.append(f"untangle_sweeps = {report.untangle_sweeps}")
    for key, val in report.quality.as_dict().items():
        lines.append(f"quality_{key} = {val:.17g}")
    return lines


def cmd_warp(args):
    mesh = _read_mesh(args.mesh)
    spec = io.read_spec(args.spec)
    motion = build_motion(mesh, spec)
    warped, report = run_algorithm(mesh, spec, motion)
    io.write_mesh(warped, args.out + ".node", args.out + ".ele")
    with open(args.out + ".report", "w") as fh:
        fh.write("\n".join(_report_lines(report)) + "\n")
    print("\n".join(_report_lines(report)))
    return 0 if report.success else 2


# the most points a --param-grid may hold; each point is a warp, and the
# grid is built in full before the first one runs
MAX_GRID_POINTS = 100_000


def _param_grid(text):
    """The values ``start + k*step`` of a ``start:stop:step`` grid, up to
    ``stop`` inclusive; indexing avoids the drift of repeated addition.  A
    grid of more than ``MAX_GRID_POINTS`` points is refused before any is
    built."""
    try:
        start, stop, step = map(io.number(float), text.split(":"))
    except ValueError:
        raise InvalidSpecError(f"bad --param-grid {text!r}; want a:b:step")
    if not (np.isfinite([start, stop, step]).all() and step > 0):
        raise InvalidSpecError("param-grid values must be finite, step positive")
    # the span or the ratio may overflow, as in 0:1e308:1e-308
    count = np.floor((stop - start) / step + 1e-9) + 1
    if not np.isfinite(count):
        raise InvalidSpecError(f"--param-grid {text!r} has no finite point count")
    if count > MAX_GRID_POINTS:
        raise InvalidSpecError(
            f"--param-grid {text!r} has {count:.6g} points, more than {MAX_GRID_POINTS}"
        )
    return [start + k * step for k in range(max(int(count), 0))]


def cmd_sweep(args):
    mesh = _read_mesh(args.mesh)
    spec = io.read_spec(args.spec)
    if spec.get("motion") == "tabulated":
        raise InvalidSpecError("a tabulated motion has no parameter to sweep")
    rows = []
    for param in _param_grid(args.param_grid):
        motion = build_motion(mesh, spec, scale=param)
        _, report = run_algorithm(mesh, spec, motion)
        rows.append((param, report.outcome, report.reversals, report.n_factorizations))
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        out.write("param,outcome,reversals,n_factorizations\n")
        for param, outcome, nrev, nchol in rows:
            out.write(f"{param:.10g},{outcome},{nrev},{nchol}\n")
    finally:
        if args.out is not None:
            out.close()
    return 0


def cmd_quality(args):
    # the file as written: a reversed element is reported, not reoriented
    mesh = io.read_mesh(args.mesh + ".node", args.mesh + ".ele", reorient=False)
    q = quality_report(mesh)
    for key, val in q.as_dict().items():
        print(f"{key} = {val:.17g}")
    return 0


def cmd_oracle(args):
    spec = AnnulusSpec(args.r, args.s, args.theta)
    a, b, c, d = annulus_coeffs(spec)
    det_min = annulus_jac_det(spec, (spec.r, 0.0))
    print(f"a = {a:.17g}")
    print(f"b = {b:.17g}")
    print(f"c = {c:.17g}")
    print(f"d = {d:.17g}")
    print(f"min_jac_det = {det_min:.17g}")
    print(f"reversal_predicate = {str(type1_predicate(spec)).lower()}")
    return 0


def cmd_genmesh(args):
    if args.shape == "annulus":
        mesh = gen_annulus(args.r, args.rings, args.sectors)
    else:
        mesh = gen_rectangle(args.width, args.height, args.nx, args.ny)
    io.write_mesh(mesh, args.out + ".node", args.out + ".ele")
    print(f"nodes = {mesh.n_nodes}")
    print(f"elements = {mesh.n_elements}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors (a bad option value, a missing
    option, an unknown subcommand) raise USAGE_ERROR instead of printing
    usage and exiting; its subparsers are of this class too."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(prog="femwarp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("warp", help="warp a mesh per a deformation spec")
    p.add_argument("--mesh", required=True, help="mesh basename (.node/.ele)")
    p.add_argument("--spec", required=True, help="deformation spec file")
    p.add_argument("--out", required=True, help="output basename")
    p.set_defaults(fn=cmd_warp)

    p = sub.add_parser("sweep", help="sweep the motion parameter, emit CSV")
    p.add_argument("--mesh", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument(
        "--param-grid", required=True, help=f"start:stop:step, at most {MAX_GRID_POINTS} points"
    )
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("quality", help="print a quality report")
    p.add_argument("--mesh", required=True)
    p.set_defaults(fn=cmd_quality)

    p = sub.add_parser("oracle", help="closed-form annulus oracle")
    osub = p.add_subparsers(dest="oracle_kind", required=True)
    pa = osub.add_parser("annulus")
    pa.add_argument("--r", type=io.number(float), required=True)
    pa.add_argument("--s", type=io.number(float), required=True)
    pa.add_argument("--theta", type=io.number(float), required=True)
    pa.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("genmesh", help="emit a structured fixture mesh")
    gsub = p.add_subparsers(dest="shape", required=True)
    pa = gsub.add_parser("annulus")
    pa.add_argument("--r", type=io.number(float), default=0.5)
    pa.add_argument("--rings", type=io.number(int), default=6)
    pa.add_argument("--sectors", type=io.number(int), default=48)
    pa.add_argument("--out", required=True)
    pa.set_defaults(fn=cmd_genmesh)
    pr = gsub.add_parser("rectangle")
    pr.add_argument("--width", type=io.number(float), default=2.0)
    pr.add_argument("--height", type=io.number(float), default=1.0)
    pr.add_argument("--nx", type=io.number(int), default=21)
    pr.add_argument("--ny", type=io.number(int), default=11)
    pr.add_argument("--out", required=True)
    pr.set_defaults(fn=cmd_genmesh)

    return parser


def main(argv=None):
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:
            return 0  # --help printed its text; the parser's errors raise
        return args.fn(args)
    except FemwarpError as exc:
        print(f"error code={exc.code} message={exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error code=IO_ERROR message={exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error code=OUT_OF_MEMORY message={str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
