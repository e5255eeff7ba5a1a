"""The benchmark's smoke mode runs against this checkout.

It exercises every trace site the benchmark wraps and every metric it
reads (such as the factorization's fill), so renaming a wrapped library
function or dropping an attribute the benchmark reads fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
