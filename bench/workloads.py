"""The benchmark's workloads: input generation, the timed operation, and
output checks that use the benchmark's own geometry code, not femwarp's.

Each workload's ``run`` looks the library entry point up on its module at
call time, so the trace wrappers installed by :mod:`tracing` see it.
"""

import contextlib
import io
import os
from dataclasses import dataclass
from importlib import import_module

import numpy as np

_assembly = import_module("femwarp.assembly")
_cli = import_module("femwarp.cli")
_generators = import_module("femwarp.generators")
_io = import_module("femwarp.io")
# the attribute ``femwarp.untangle`` is the re-exported function, which
# shadows the submodule; import_module returns the module from sys.modules
_untangle = import_module("femwarp.untangle")
_warp = import_module("femwarp.warp")


def own_signed_measures(pts):
    """Signed area (2D) or volume (3D) of stacked simplices (k, d+1, d),
    written independently of femwarp.mesh (3D uses the scalar triple
    product, not a determinant)."""
    e = pts[:, 1:, :] - pts[:, :1, :]
    if pts.shape[2] == 2:
        return 0.5 * (e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0])
    return np.einsum("ij,ij->i", e[:, 0], np.cross(e[:, 1], e[:, 2])) / 6.0


def jitter(mesh, seed, frac):
    """Copy of ``mesh`` with each interior node moved by a uniform offset of
    at most ``frac`` times the shortest edge per axis; boundary nodes stay."""
    rng = np.random.default_rng(seed)
    pts = mesh.coords[mesh.elements]
    i, j = np.triu_indices(mesh.dim + 1, 1)
    h = np.linalg.norm(pts[:, i] - pts[:, j], axis=2).min()
    coords = np.array(mesh.coords)
    interior = mesh.interior_ids
    coords[interior] += rng.uniform(-frac * h, frac * h, size=(len(interior), mesh.dim))
    return mesh.with_coords(coords)


@dataclass
class Checked:
    """Verdict on one operation's output."""

    ok: bool
    reason: str = ""
    factorizations: int = 0
    out_min_measure: float = float("nan")


def check_geometry(coords, elements, ref_elements, boundary_ids, target):
    """Shared output checks: unchanged connectivity, boundary rows equal to
    the motion's target bit for bit, and no reversed element."""
    if not np.array_equal(elements, ref_elements):
        return "connectivity changed", float("nan")
    if not np.array_equal(coords[boundary_ids], target):
        return "boundary rows differ from the motion target", float("nan")
    meas = own_signed_measures(coords[elements])
    nrev = int((meas <= 0.0).sum())
    if nrev:
        return f"{nrev} reversed elements", float(meas.min())
    return "", float(meas.min())


def _check_report(mesh, report, out, target):
    if report.outcome != "SUCCESS":
        return Checked(False, f"outcome {report.outcome}")
    reason, min_meas = check_geometry(
        np.asarray(out.coords), out.elements, mesh.elements, mesh.boundary_ids, target
    )
    return Checked(not reason, reason, report.n_factorizations, min_meas)


class SmallStepAnnulus:
    """The paper's small-step FEMWARP at scale: factorization and FEM
    assembly dominate; never touches the untangler or file I/O."""

    name = "smallstep_annulus64k"
    jitter_frac = 1e-2
    # trace spans the operation must hit; zero calls fails the traced run
    required = (
        "warp.small_step_femwarp",
        "assembly.build_weights",
        "solve.factor",
        "solve.solve_multi",
        "mesh.count_reversals",
        "mesh.quality_report",
    )

    def setup(self, seed, work_dir, smoke):
        rings, sectors = (12, 64) if smoke else (128, 512)
        mesh = jitter(_generators.gen_annulus(0.5, rings, sectors), seed, self.jitter_frac)
        target = _warp.annulus_rotation_motion(mesh, 2.0).evaluate(1.0)
        return {"mesh": mesh, "target": target}

    def run(self, st):
        mesh = st["mesh"]
        return _warp.small_step_femwarp(
            mesh, "FEM", _warp.annulus_rotation_motion(mesh, 2.0)
        )

    def check(self, st, result):
        out, report = result
        return _check_report(st["mesh"], report, out, st["target"])


class HybridAnnulus:
    """One-shot FEM warp that reverses, then the maximin untangler: loads
    the untangle layer alone and bypasses factorization."""

    name = "hybrid_annulus8x60"
    # The untangler's path on these cells is chaotic: on the 8x72 cell an
    # interior jitter of 1e-5 of the shortest edge made its sweep count vary
    # about 2x between seeds and some seeds end REVERSED, so the seed only
    # perturbs coordinates at the 1e-10 level here (13 sweeps on every seed
    # tried of this cell).
    jitter_frac = 1e-10
    required = (
        "assembly.build_weights",
        "untangle.hybrid_warp",
        "warp.femwarp_step",
        "solve.factor",
        "solve.solve_multi",
        "mesh.count_reversals",
        "mesh.quality_report",
        "untangle.untangle",
        "untangle.lp",
    )

    def setup(self, seed, work_dir, smoke):
        rings, sectors = (6, 36) if smoke else (8, 60)
        mesh = jitter(_generators.gen_annulus(0.5, rings, sectors), seed, self.jitter_frac)
        motion = _warp.annulus_rotation_motion(mesh, 0.75 * np.pi, 0.25 * np.pi)
        return {"mesh": mesh, "target": motion.evaluate(1.0)}

    def run(self, st):
        weights = _assembly.build_weights(st["mesh"], "FEM")
        return _untangle.hybrid_warp(st["mesh"], weights, st["target"])

    def check(self, st, result):
        out, report = result
        return _check_report(st["mesh"], report, out, st["target"])


SPEC = """motion = nonlinear3d
alpha = 4
scheme = LOG_BARRIER
algorithm = femwarp
"""


def read_node_ele(base, dim):
    """Minimal reader for the files ``femwarp.io.write_mesh`` emits
    (0-based ids, one boundary marker); floats parse with ``float`` so
    shortest-repr values round-trip exactly."""
    with open(base + ".node") as fh:
        n = int(fh.readline().split()[0])
        coords = np.empty((n, dim))
        marker = np.empty(n, dtype=bool)
        for k in range(n):
            tok = fh.readline().split()
            coords[k] = [float(t) for t in tok[1 : 1 + dim]]
            marker[k] = tok[1 + dim] != "0"
    ele = np.loadtxt(base + ".ele", dtype=np.int64, skiprows=1, ndmin=2)
    return coords, ele[:, 1:], np.flatnonzero(marker)


class CliWarpBox:
    """In-process ``femwarp warp`` on a tet box: the only workload that
    covers io reads and writes, cli, per-node LOG_BARRIER assembly, the
    nonsymmetric LU and the 3D kernels."""

    name = "cli_warp_box3d"
    jitter_frac = 1e-2
    required = (
        "cli.main",
        "io.read_mesh",
        "io.write_mesh",
        "assembly.build_weights",
        "warp.femwarp_step",
        "solve.factor",
        "solve.solve_multi",
        "mesh.count_reversals",
        "mesh.quality_report",
    )

    def setup(self, seed, work_dir, smoke):
        n = 5 if smoke else 20
        mesh = jitter(_generators.gen_box_tets(n, n, n, size=3.0), seed, self.jitter_frac)
        base_in = os.path.join(work_dir, "box")
        _io.write_mesh(mesh, base_in + ".node", base_in + ".ele")
        spec = os.path.join(work_dir, "box.spec")
        with open(spec, "w") as fh:
            fh.write(SPEC)
        target = _warp.nonlinear3d_motion(mesh, 4.0).evaluate(1.0)
        base_out = os.path.join(work_dir, "warped")
        argv = ["warp", "--mesh", base_in, "--spec", spec, "--out", base_out]
        return {"mesh": mesh, "target": target, "argv": argv, "out": base_out}

    def run(self, st):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = _cli.main(st["argv"])
        return code, sink.getvalue()

    def check(self, st, result):
        code, text = result
        base = st["out"]
        try:
            if code != 0:
                return Checked(False, f"exit code {code}: {text.strip()[-200:]}")
            with open(base + ".report") as fh:
                report = dict(
                    (k.strip(), v.strip())
                    for k, v in (line.split("=", 1) for line in fh if "=" in line)
                )
            if report.get("outcome") != "SUCCESS":
                return Checked(False, f"report outcome {report.get('outcome')}")
            mesh = st["mesh"]
            coords, elements, boundary = read_node_ele(base, mesh.dim)
            if not np.array_equal(boundary, mesh.boundary_ids):
                return Checked(False, "boundary markers changed")
            reason, min_meas = check_geometry(
                coords, elements, mesh.elements, mesh.boundary_ids, st["target"]
            )
            return Checked(
                not reason, reason, int(report["n_factorizations"]), min_meas
            )
        finally:
            # a stale output must never pass the next operation's check
            for ext in (".node", ".ele", ".report"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(base + ext)


WORKLOADS = {w.name: w for w in (SmallStepAnnulus(), HybridAnnulus(), CliWarpBox())}
