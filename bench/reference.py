"""A fixed reference kernel, timed between operations to factor the host's
speed out of ``op_rel``.

The benchmark runs on shared virtual machines whose speed drifts by up to
2x within minutes, with no steal time reported, so wall seconds of the same
code on different minutes disagree by more than any useful regression
bound.  The kernel does a fixed amount of the three kinds of work the
workloads spend their time in, with numpy and scipy only and no femwarp
code, so a change to femwarp cannot change its time:

- a SuperLU factorization and solve of a 2D Laplacian (``femwarp.solve``);
- a Python loop over small arrays, like the untangler's dense simplex;
- a float text round trip, like ``femwarp.io``.
"""

from time import perf_counter

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

GRID = 100
LOOP_ITERS = 5000
TEXT_FLOATS = 30000


class ReferenceKernel:
    """Inputs are built once; :meth:`run` times one pass and checks it."""

    def __init__(self):
        t = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(GRID, GRID))
        eye = sparse.identity(GRID)
        self.lap = (sparse.kron(t, eye) + sparse.kron(eye, t)).tocsc()
        rng = np.random.default_rng(0)
        self.rhs = rng.standard_normal(GRID * GRID)
        self.small = rng.standard_normal((12, 4))
        self.floats = rng.standard_normal(TEXT_FLOATS)

    def run(self):
        """Seconds for one pass; raises RuntimeError if a result is wrong."""
        t0 = perf_counter()
        x = spla.splu(self.lap).solve(self.rhs)
        m = self.small
        acc = 0.0
        for i in range(LOOP_ITERS):
            col = m[:, i % 4]
            mask = col > 0.0
            ratios = np.full(len(col), np.inf)
            ratios[mask] = m[mask, 3] / col[mask]
            k = int(np.flatnonzero(ratios <= ratios.min() + 1e-15)[0])
            acc += float((m - 1e-9 * np.outer(m[:, 0], m[k]))[k, 1])
        text = "\n".join(repr(float(v)) for v in self.floats)
        back = np.array([float(s) for s in text.split()])
        dt = perf_counter() - t0
        if not np.array_equal(back, self.floats):
            raise RuntimeError("reference kernel: text round trip changed values")
        if not np.isfinite(acc) or np.abs(self.lap @ x - self.rhs).max() > 1e-8:
            raise RuntimeError("reference kernel: wrong sparse solve")
        return dt
