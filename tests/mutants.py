"""Mutation check of the tests of the untangler, the barrier Newton and the
element kernels' per-element power-of-two scale: ``python tests/mutants.py``.

Each mutant replaces one exact text of one file under ``src/`` with another
and names the test files that must then fail.  The runner copies ``src/``,
``tests/`` and ``pyproject.toml`` into a temporary directory, runs every
named test file there once unmutated (they must pass), and then, one mutant
at a time, applies it and runs
``python -m pytest -x -q -p no:cacheprovider <files>``.  A mutant whose tests
fail is ``killed``; one whose tests pass ``survived``; any other pytest exit
(a collection error, no tests) is an ``error``.  It exits 1 when a mutant
survives or errs, when a mutant's old text does not occur exactly once in
its file, or when the unmutated tests fail; it never writes inside the
checkout.  Pytest does not collect this file; ``test_imports.py`` checks
that the list matches the source.

Only non-equivalent mutants belong here: a mutant that cannot change any
result no test can kill (Jia & Harman, "An analysis and survey of the
development of mutation testing", IEEE TSE 2011).  Three are left out for
that reason: testing ``(area := ...)`` alone instead of ``!= 0.0`` (a
float's truth is ``!= 0.0``, nan included), forming ``cJ_L`` as the
negation of ``cL_J`` (a signed zero changes no sign test, comparison or
step), and sending a cavity that is not finite to the simplex (its value
is then not finite, and the simplex route keeps the vertex for that).
Dropping ``_simplex_reposition``'s finite test of its value survives and is
left out too: no test builds a cavity whose tableau stays finite while the
value at its optimum overflows.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

UNTANGLE = "src/femwarp/untangle.py"
TESTS = ("tests/test_untangle.py",)
ASSEMBLY = "src/femwarp/assembly.py"
ASSEMBLY_TESTS = ("tests/test_assembly.py",)
MESH = "src/femwarp/mesh.py"
SCALE_TESTS = ("tests/test_mesh_core.py", "tests/test_assembly.py")

# name -> (file, exact old text, new text, test files), grouped by the rule of
# untangle.py, assembly.py or mesh.py that the mutant breaks
MUTANTS = {
    # the exact 2D dual: the first triple of least value wins
    "largest dual value": (UNTANGLE, "value < v:", "value > v:", TESTS),
    "last of tied minima": (UNTANGLE, "value < v:", "value <= v:", TESTS),
    # the per-size kernels
    "triples in reverse order": (
        UNTANGLE, "combinations(els, 3))", "combinations(els, 3))[::-1]", TESTS),
    "value operands in reverse order": (
        UNTANGLE,
        "({wi} * m{i} + {wj} * m{j} + {wl} * m{l})",
        "({wl} * m{l} + {wj} * m{j} + {wi} * m{i})",
        TESTS,
    ),
    "cap excluded from the kernels": (
        UNTANGLE, "(n := len(slots)) <= KERNEL_MAX:", "(n := len(slots)) < KERNEL_MAX:", TESTS),
    # float terms to the certificate
    "wrong slot-1 edge": (
        UNTANGLE, "((1, 2), (2, 0), (0, 1))", "((1, 2), (0, 2), (0, 1))", TESTS),
    "finite test on the radius alone": (
        UNTANGLE,
        "if not (isfinite(sum(({ms},))) and (hypot(*flat) <= 8e306 or isfinite({radius}))):",
        "if not isfinite({radius}):",
        TESTS,
    ),
    "Python min at the non-finite stay": (
        UNTANGLE, "least = npmin([{ms}])", "least = min([{ms}])", TESTS),
    "step sign flipped": (
        UNTANGLE, "uy = (ax * rb - bx * ra) / det", "uy = (bx * ra - ax * rb) / det", TESTS),
    "radius from x alone": (
        UNTANGLE, "max(flat[1::2]) - min(flat[1::2])", "0.0", TESTS),
    "1e-9 certificate tolerance": (UNTANGLE, "v - 1e-12 * max", "v - 1e-9 * max", TESTS),
    # the exact route written once: each way the dual declines
    "no det test": (UNTANGLE, "if det == 0.0:", "if False:", TESTS),
    "no box check": (
        UNTANGLE, "if not (abs(ux) <= radius and abs(uy) <= radius):", "if False:", TESTS),
    "no certificate": (
        UNTANGLE, "if not achieved >= v - 1e-12 * max", "if False and v - 1e-12 * max", TESTS),
    "always the simplex": (
        UNTANGLE, "if d == 2 and (n := len(slots))", "if False and (n := len(slots))", TESTS),
    # the never-worsen rule applied once
    "no never-worsen rule": (UNTANGLE, "value < start - 1e-12", "False", TESTS),
    "never-worsen margin dropped": (UNTANGLE, "value < start - 1e-12", "value < start", TESTS),
    # the box checked without scanning the cavity
    "box lower bound doubled": (
        UNTANGLE, "lb = BOX_FACTOR", "lb = 2.0 * BOX_FACTOR", TESTS),
    "either axis inside the bound": (
        UNTANGLE, "abs(ux) <= lb and abs(uy) <= lb", "abs(ux) <= lb or abs(uy) <= lb", TESTS),
    "hypot bound at the largest float": (
        UNTANGLE, "hypot(*flat) <= 8e306 or", "hypot(*flat) <= 1.7e308 or", TESTS),
    # the sign-first triple test
    "positive weights strictly": (
        UNTANGLE,
        "{wi} >= 0.0 and {wj} >= 0.0 and {wl} >= 0.0",
        "{wi} > 0.0 and {wj} > 0.0 and {wl} > 0.0",
        TESTS,
    ),
    "negative weights strictly": (
        UNTANGLE,
        "{wi} <= 0.0 and {wj} <= 0.0 and {wl} <= 0.0",
        "{wi} < 0.0 and {wj} < 0.0 and {wl} < 0.0",
        TESTS,
    ),
    "nan weight let through": (
        UNTANGLE,
        "{wi} >= 0.0 and {wj} >= 0.0 and {wl} >= 0.0",
        "not {wi} < 0.0 and not {wj} < 0.0 and not {wl} < 0.0",
        TESTS,
    ),
    "no area test": (
        UNTANGLE,
        "(area := {wi} + {wj} + {wl}) != 0.0",
        "((area := {wi} + {wj} + {wl}) or True)",
        TESTS,
    ),
    # one LocalSubmesh per cavity, its flat gathered each sweep
    "flat gathered only in the first sweep": (
        UNTANGLE, "sub.flat = gather(xy)", "sub.flat = sub.flat or gather(xy)", TESTS),
    "a LocalSubmesh per LP": (
        UNTANGLE, "sub.flat = gather(xy)", "sub = LocalSubmesh(gather(xy), sub.slots, d)", TESTS),
    # the hybrid takes untangle's count of a SUCCESS
    "hybrid recounts a success": (
        UNTANGLE, '0 if outcome == "SUCCESS" else count_reversals', "count_reversals", TESTS),
    "simplex radius from x alone": (
        UNTANGLE, "np.ptp(elements.reshape(-1, d), axis=0).max()",
        "np.ptp(elements.reshape(-1, d), axis=0)[0]", TESTS),
    # the LOG_BARRIER Newton: unit-free, first converged iterate, halved steps
    "barrier offsets not scaled": (
        ASSEMBLY, "np.ldexp(r, -np.frexp(big)[1])", "r", ASSEMBLY_TESTS),
    "zero Cholesky pivot accepted": (
        ASSEMBLY, "bad := ~(pivot > 0.0)", "bad := ~(pivot >= 0.0)", ASSEMBLY_TESTS),
    "no step halving": (
        ASSEMBLY, "trial &= ~(s.min(axis=0) > 0.0)", "trial &= False", ASSEMBLY_TESTS),
    "last iterate kept": (
        ASSEMBLY, "np.where(singular | done, 0.0, 1.0)", "np.where(singular, 0.0, 1.0)",
        ASSEMBLY_TESTS),
    "stop test on rows 1..d": (
        ASSEMBLY, "np.abs(grad).max(axis=0) <= tol", "np.abs(grad[1:]).max(axis=0) <= tol",
        ASSEMBLY_TESTS),
    # the element kernels' per-element power of two
    "top guard dropped": (
        MESH, "return np.maximum(e, np.frexp(big)[1] - 1024)", "return e", SCALE_TESTS),
    "zero extents counted in the centring": (
        MESH, "np.where(ext > 0.0, ext, top).min(axis=0)", "ext.min(axis=0)", SCALE_TESTS),
    "3D K not scaled back": (
        ASSEMBLY, "np.ldexp(stiff, e[:, None, None])", "stiff", SCALE_TESTS),
    "near-degenerate test on unshifted measures": (
        MESH, "(shifted < NEAR_DEGENERATE_FACTOR", "(scaled < NEAR_DEGENERATE_FACTOR",
        SCALE_TESTS),
}


def stale(root):
    """Each mutant whose old text does not occur exactly once in its file,
    equals its new text, or names a test file that does not exist, as
    ``(name, reason)``."""
    problems = []
    for name, (path, old, new, tests) in MUTANTS.items():
        count = (root / path).read_text().count(old)
        if count != 1:
            problems.append((name, f"old text occurs {count} times in {path}"))
        if old == new:
            problems.append((name, "old and new text are equal"))
        problems += [(name, f"no test file {t}") for t in tests if not (root / t).is_file()]
    return problems


def run_tests(copy, tests):
    """The exit code of pytest on ``tests`` in the directory ``copy``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, capture_output=True).returncode


def main():
    root = Path(__file__).resolve().parent.parent
    problems = stale(root)
    for name, reason in problems:
        print(f"{name}: {reason}")
    if problems:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(root / part, copy / part, ignore=ignore)
        shutil.copy2(root / "pyproject.toml", copy)
        every = sorted({t for *_, tests in MUTANTS.values() for t in tests})
        if run_tests(copy, every) != 0:
            print(f"the unmutated tests fail: {' '.join(every)}")
            return 1
        failed = 0
        for name, (path, old, new, tests) in MUTANTS.items():
            text = (copy / path).read_text()
            (copy / path).write_text(text.replace(old, new))
            code = run_tests(copy, tests)
            (copy / path).write_text(text)
            verdict = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            failed += verdict != "killed"
            print(f"{name}: {verdict}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
