"""Per-layer tracing from outside the library.

Wrappers are installed on the module attribute through which each caller
looks a callee up (``femwarp.warp.factor``, not ``femwarp.solve.factor``),
record one span per call and are removed again after the traced operation.
A span's self time is its duration minus the time of the spans it caused.
"""

import os
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

from workloads import own_signed_measures

# span name -> the (module, attribute) pairs where callers look the callee up
SITES = {
    "cli.main": [("femwarp.cli", "main")],
    "io.read_mesh": [("femwarp.io", "read_mesh")],
    "io.write_mesh": [("femwarp.io", "write_mesh")],
    "assembly.build_weights": [
        ("femwarp.assembly", "build_weights"),
        ("femwarp.cli", "build_weights"),
        ("femwarp.warp", "build_weights"),
    ],
    "solve.factor": [("femwarp.warp", "factor")],
    "solve.solve_multi": [("femwarp.warp", "solve_multi")],
    "mesh.count_reversals": [
        ("femwarp.untangle", "count_reversals"),
        ("femwarp.warp", "count_reversals"),
    ],
    "mesh.quality_report": [
        ("femwarp.cli", "quality_report"),
        ("femwarp.warp", "quality_report"),
    ],
    "warp.small_step_femwarp": [("femwarp.warp", "small_step_femwarp")],
    "warp.femwarp_step": [
        ("femwarp.cli", "femwarp_step"),
        ("femwarp.untangle", "femwarp_step"),
    ],
    "untangle.hybrid_warp": [("femwarp.untangle", "hybrid_warp")],
    "untangle.untangle": [("femwarp.untangle", "untangle")],
    "untangle.lp": [("femwarp.untangle", "maximin_reposition")],
}


def _fill_nnz(out):
    # L+U nonzeros of the SuperLU object behind the returned factorization;
    # None (reported as missing) once the object stops exposing it
    return getattr(getattr(out, "_lu", None), "nnz", None)


def _steps(args, out):
    steps = out[1].steps
    return {"trial": len(steps), "accepted": sum(1 for s in steps if s.accepted)}


def _lp_improved(args, out):
    # the cavity holds the free vertex at its current position, so its
    # minimum measure is the LP's starting value
    return out[1] > own_signed_measures(args[0].elements).min()


# span name -> probe(args, result) giving extra values for that call; probes
# run after the span ends and their time is excluded from every self time
PROBES = {
    "assembly.build_weights": lambda args, out: {"a_ii_nnz": out.a_ii.nnz},
    "solve.factor": lambda args, out: {"fill_nnz": _fill_nnz(out)},
    "warp.small_step_femwarp": _steps,
    "warp.femwarp_step": _steps,
    "untangle.untangle": lambda args, out: {"sweeps": out[1]},
    "untangle.lp": lambda args, out: {"improved": bool(_lp_improved(args, out))},
    "io.read_mesh": lambda args, out: {
        "bytes": os.path.getsize(args[0]) + os.path.getsize(args[1])
    },
    "io.write_mesh": lambda args, out: {
        "bytes": os.path.getsize(args[1]) + os.path.getsize(args[2])
    },
}


class Tracer:
    """Spans of the traced operations, kept in memory."""

    def __init__(self):
        self.spans = []  # (op, name, parent, start, end, self_s, probe values)
        self.op = 0
        self._stack = []  # [name, child seconds] of the open spans
        self._saved = []

    def install(self):
        """Wrap every site; a missing attribute raises AttributeError."""
        for name, sites in SITES.items():
            for modname, attr in sites:
                mod = sys.modules[modname]
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        probe = PROBES.get(name)

        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else None
            stack.append([name, 0.0])
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                child = stack.pop()[1]
            extra = probe(args, out) if probe else None
            if stack:
                stack[-1][1] += perf_counter() - t0
            self.spans.append((self.op, name, parent, t0, t1, t1 - t0 - child, extra))
            return out

        return traced

    def calls(self):
        return Counter(s[1] for s in self.spans)

    def op_spans(self, op):
        return [s for s in self.spans if s[0] == op]


# per-layer metric name -> unit, in report order
LAYER_UNITS = {
    "mesh.count_reversals.calls": "count",
    "mesh.count_reversals.s": "s",
    "mesh.quality_report.calls": "count",
    "mesh.quality_report.s": "s",
    "assembly.build_weights.calls": "count",
    "assembly.build_weights.s": "s",
    "assembly.a_ii_nnz": "count",
    "solve.factor.calls": "count",
    "solve.factor.s": "s",
    "solve.factor.fill_nnz": "count",
    "solve.solve_multi.calls": "count",
    "solve.solve_multi.s": "s",
    "warp.trial_steps": "count",
    "warp.accepted_steps": "count",
    "warp.step_accept_ratio": "ratio",
    "warp.self_s": "s",
    "untangle.sweeps": "count",
    "untangle.lp.calls": "count",
    "untangle.lp.s": "s",
    "untangle.lp_us": "us",
    "untangle.lp_improve_ratio": "ratio",
    "untangle.self_s": "s",
    "io.read_mesh.s": "s",
    "io.write_mesh.s": "s",
    "io.bytes_read": "B",
    "io.bytes_written": "B",
    "io.read_mb_per_s": "MB/s",
    "io.write_mb_per_s": "MB/s",
    "cli.self_s": "s",
    "op_s": "s",
    "trace_overhead_pct": "%",
}

# values derived from array sizes or file sizes, not measured bandwidth
COMPUTED = (
    "assembly.a_ii_nnz",
    "solve.factor.fill_nnz",
    "io.bytes_read",
    "io.bytes_written",
    "io.read_mb_per_s",
    "io.write_mb_per_s",
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced operation (0 where a layer did no
    work; fill_nnz is None when the factor object does not expose it)."""
    calls = Counter()
    total = defaultdict(float)
    self_s = defaultdict(float)
    extra = defaultdict(list)
    for _, name, _, t0, t1, own, values in spans:
        calls[name] += 1
        total[name] += t1 - t0
        self_s[name] += own
        for key, val in (values or {}).items():
            extra[name, key].append(val)

    def probe_sum(name, key):
        return sum(extra[name, key])

    def probe_mean(name, key):
        vals = extra[name, key]
        if any(v is None for v in vals):
            return None
        return statistics.fmean(vals) if vals else 0.0

    warp_spans = ("warp.small_step_femwarp", "warp.femwarp_step")
    trial = sum(probe_sum(n, "trial") for n in warp_spans)
    accepted = sum(probe_sum(n, "accepted") for n in warp_spans)
    lp_calls = calls["untangle.lp"]
    bytes_read = probe_sum("io.read_mesh", "bytes")
    bytes_written = probe_sum("io.write_mesh", "bytes")
    return {
        "mesh.count_reversals.calls": calls["mesh.count_reversals"],
        "mesh.count_reversals.s": total["mesh.count_reversals"],
        "mesh.quality_report.calls": calls["mesh.quality_report"],
        "mesh.quality_report.s": total["mesh.quality_report"],
        "assembly.build_weights.calls": calls["assembly.build_weights"],
        "assembly.build_weights.s": total["assembly.build_weights"],
        "assembly.a_ii_nnz": probe_mean("assembly.build_weights", "a_ii_nnz"),
        "solve.factor.calls": calls["solve.factor"],
        "solve.factor.s": total["solve.factor"],
        "solve.factor.fill_nnz": probe_mean("solve.factor", "fill_nnz"),
        "solve.solve_multi.calls": calls["solve.solve_multi"],
        "solve.solve_multi.s": total["solve.solve_multi"],
        "warp.trial_steps": trial,
        "warp.accepted_steps": accepted,
        "warp.step_accept_ratio": _ratio(accepted, trial),
        "warp.self_s": sum(self_s[n] for n in warp_spans),
        "untangle.sweeps": probe_sum("untangle.untangle", "sweeps"),
        "untangle.lp.calls": lp_calls,
        "untangle.lp.s": total["untangle.lp"],
        "untangle.lp_us": 1e6 * _ratio(total["untangle.lp"], lp_calls),
        "untangle.lp_improve_ratio": _ratio(probe_sum("untangle.lp", "improved"), lp_calls),
        "untangle.self_s": self_s["untangle.hybrid_warp"] + self_s["untangle.untangle"],
        "io.read_mesh.s": total["io.read_mesh"],
        "io.write_mesh.s": total["io.write_mesh"],
        "io.bytes_read": bytes_read,
        "io.bytes_written": bytes_written,
        "io.read_mb_per_s": _ratio(bytes_read / 1e6, total["io.read_mesh"]),
        "io.write_mb_per_s": _ratio(bytes_written / 1e6, total["io.write_mesh"]),
        "cli.self_s": self_s["cli.main"],
    }


def span_summary(spans):
    """name -> [calls, total s, self s] over the given spans."""
    out = {}
    for _, name, _, t0, t1, own, _ in spans:
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += t1 - t0
        row[2] += own
    return out
