#!/usr/bin/env python3
"""femwarp benchmark.

Run from the root of a source checkout; femwarp is imported from ``src/``::

    python3 bench/run.py --workload smallstep_annulus64k --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

A run sets up its inputs from ``--seed``, runs one untimed warm-up
operation, then runs operations back to back for ``--seconds`` seconds in
one process with one BLAS/OpenMP thread, checking every output; with
tracing off, a fixed reference kernel runs between them to sample the
host's speed (bench/reference.py).  It prints
a JSON detail line and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1`` (which
alternates untraced and traced operations).  ``--smoke`` runs every
workload on tiny inputs, one operation per mode, and checks that every
metric named in BENCHMARK.json is emitted and every check passes.
See bench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPS = 5
# share of each operation's time spent sampling the host with the reference
# kernel (at least one pass per operation)
REF_SHARE = 0.15
# setup_s is scaled to a host on which one reference pass takes this long
REF_PASS_S = 0.15

END_TO_END_UNITS = {
    "op_rel": "ratio",
    "setup_s": "s",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "factorizations": "count",
    "out_min_measure": "measure",
}


def load_library():
    """Pin BLAS/OpenMP to one thread, then import numpy and femwarp from
    this checkout's src/; raises ImportError when the sources are absent."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import femwarp

    if not Path(femwarp.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"femwarp imported from {femwarp.__file__}, not {SRC}")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes():
    sizes = {}
    try:
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (idx / "type").read_text().strip() != "Instruction":
                sizes["L" + (idx / "level").read_text().strip()] = (
                    (idx / "size").read_text().strip()
                )
    except OSError:
        pass
    return sizes


def _blas_version(module):
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return "unknown"


def machine_info():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(numpy),
        "openblas_scipy": _blas_version(scipy),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def timed_setup(wl, seed, work_dir, smoke, reference):
    """Set up SETUP_REPS times (once for smoke); each sample is a fresh
    interpreter importing femwarp plus input generation and file writing,
    followed by one reference pass.  Returns the last state, the set-up
    samples and the reference samples."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples, ref_samples = [], []
    for _ in range(1 if smoke else SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import femwarp"],
            cwd=ROOT, env=env, check=True, capture_output=True, timeout=120,
        )
        state = wl.setup(seed, str(work_dir), smoke)
        samples.append(time.perf_counter() - t0)
        ref_samples.append(reference.run())
    return state, samples, ref_samples


def run_op(wl, st, tracer=None):
    """One operation: (seconds or None, Checked).  A raise or a failed check
    is a failed operation; a tracer that cannot install propagates."""
    from workloads import Checked

    if tracer is not None:
        tracer.install()
    try:
        try:
            t0 = time.perf_counter()
            result = wl.run(st)
            dt = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        return dt, wl.check(st, result)
    except Exception as exc:  # an operation's failure is a measured outcome
        traceback.print_exc(file=sys.stderr)
        return None, Checked(False, f"{type(exc).__name__}: {exc}")


def _median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, if that
    percentile is at or above the median."""
    n = len(samples)
    if n < 20:
        return None
    return {"pct": round(100.0 * (n - 10) / n, 1), "value": sorted(samples)[n - 11]}


def measure(wl, seed, seconds, trace, smoke, work_dir):
    """One benchmark run; returns (result, detail) dicts."""
    from reference import ReferenceKernel
    from tracing import COMPUTED, LAYER_UNITS, Tracer, layer_metrics, span_summary

    kernel = ReferenceKernel()
    st, setup_samples, setup_ref_samples = timed_setup(wl, seed, work_dir, smoke, kernel)
    ops = []  # (kind, seconds or None, Checked, traced op id or None)
    tracer = Tracer() if trace else None
    # with tracing off, the reference kernel runs before the first and after
    # every timed operation, so it samples the host's speed around each one
    # for a fixed share of the time
    reference = None if trace else kernel
    if not smoke:
        ops.append(("warmup", *run_op(wl, st), None))
    ref_samples = [reference.run()] if reference else []
    t_start = time.perf_counter()
    while True:
        ops.append(("plain", *run_op(wl, st), None))
        if reference:
            ref_samples.append(reference.run())
            spent = ref_samples[-1]
            while spent < REF_SHARE * (ops[-1][1] or 0.0):
                ref_samples.append(reference.run())
                spent += ref_samples[-1]
        if trace:
            tracer.op = len(ops)
            dt, chk = run_op(wl, st, tracer)
            factor_calls = sum(
                1 for s in tracer.op_spans(tracer.op) if s[1] == "solve.factor"
            )
            if chk.ok and factor_calls != chk.factorizations:
                chk.ok = False
                chk.reason = (
                    f"traced factor calls {factor_calls} != "
                    f"reported factorizations {chk.factorizations}"
                )
            ops.append(("traced", dt, chk, tracer.op))
        if time.perf_counter() - t_start >= seconds:
            break

    failures = [chk.reason for _, _, chk, _ in ops if not chk.ok]
    good = [chk for _, _, chk, _ in ops if chk.ok]
    plain = [dt for kind, dt, _, _ in ops if kind == "plain" and dt is not None]
    detail = {
        "workload": wl.name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "attempted": len(ops),
        "failed": len(failures),
        "error_rate": len(failures) / len(ops),
        "failures": failures[:5],
        "op_samples": len(plain),
        "op_s_median": _median(plain),
        "op_s_tail": tail_percentile(plain),
        "op_s_all": plain,
        "ref_s_all": ref_samples,
        "setup_s_all": setup_samples,
        "setup_ref_s_all": setup_ref_samples,
        "factorizations_per_op": [chk.factorizations for chk in good],
        "machine": machine_info(),
    }
    if trace:
        calls = tracer.calls()
        missing = [name for name in wl.required if calls[name] == 0]
        if missing:
            raise RuntimeError(f"trace wrappers recorded no calls: {missing}")
        traced_ids = [op for kind, _, _, op in ops if kind == "traced"]
        per_op = [layer_metrics(tracer.op_spans(op)) for op in traced_ids]
        values = {}
        for name in per_op[0]:
            col = [m[name] for m in per_op]
            values[name] = None if None in col else _median(col)
        traced = [dt for kind, dt, _, _ in ops if kind == "traced" and dt is not None]
        values["op_s"] = _median(plain)
        values["trace_overhead_pct"] = (
            100.0 * (_median(traced) / _median(plain) - 1.0) if traced and plain else 0.0
        )
        metrics = {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}
        detail["untangle_sweeps_per_op"] = [m["untangle.sweeps"] for m in per_op]
        detail["spans_first_traced_op"] = span_summary(tracer.op_spans(traced_ids[0]))
        detail["computed_not_measured"] = list(COMPUTED)
    else:
        values = {
            "op_rel": (
                statistics.fmean(plain) / statistics.fmean(ref_samples) if plain else 0.0
            ),
            "setup_s": REF_PASS_S
            * _median([s / r for s, r in zip(setup_samples, setup_ref_samples)]),
            "success_rate": 1.0 - detail["error_rate"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "factorizations": _median([chk.factorizations for chk in good]),
            "out_min_measure": _median([chk.out_min_measure for chk in good]),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, detail


def smoke(seed, work_dir):
    """Tiny inputs, one operation per mode and workload; returns the number
    of problems found."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = 0
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("smoke: BENCHMARK.json workloads differ from bench/workloads.py")
        problems += 1
    for name, wl in WORKLOADS.items():
        for trace in (0, 1):
            result, _ = measure(wl, seed, 0, trace, True, work_dir)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            found = []
            if got != want[trace]:
                found.append(f"metrics {sorted(set(got) ^ set(want[trace]))} differ")
            if not result["correct"]:
                found.append("a check failed")
            problems += bool(found)
            print(f"smoke {name} trace={trace}: {'; '.join(found) or 'ok'}", flush=True)
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    try:
        load_library()
    except ImportError as exc:
        print(f"bench: cannot import femwarp from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if not args.smoke and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    work_dir = WORK / f"{args.workload or 'smoke'}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.smoke:
            return 1 if smoke(args.seed, work_dir) else 0
        result, detail = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, args.trace, False, work_dir
        )
    except Exception:  # no result line for a run that could not complete
        traceback.print_exc(file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
