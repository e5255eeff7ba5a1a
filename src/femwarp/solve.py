"""Linear-system backends: one sparse direct factorization for every
weight scheme, which takes a fill-reducing order that matrices of one
sparsity pattern share, Gauss-Seidel sweeps and the package's LP solver.
"""

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .errors import (
    BadIndexError,
    DivergedError,
    NotPositiveDefiniteError,
    ShapeError,
    SingularSystemError,
)


def mmd_order(indptr, indices):
    """SuperLU's ``MMD_AT_PLUS_A`` order, etree postorder included, of the
    square CSC pattern ``indptr``/``indices`` (it orders A^T + A, so the
    CSR arrays give the same order): read from an ILU that drops every
    entry of a diagonally dominant matrix with that pattern and its
    diagonal, so only the ordering is paid for."""
    n = len(indptr) - 1
    p = sparse.csc_matrix((np.full(len(indices), -1.0), indices, indptr), shape=(n, n))
    p = p + (n + 1.0) * sparse.identity(n, format="csc")
    ilu = spla.spilu(
        p, drop_tol=np.inf, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True)
    )
    # SuperLU factors A Pc = A[:, argsort(perm_c)]
    return np.argsort(ilu.perm_c)


class Factorization:
    """Factorization of a sparse weight matrix ``A_I``.

    Every scheme takes one path: SuperLU in symmetric mode factors
    ``a[order][:, order]`` in natural order, pivoting on the diagonal, and
    ``solve`` undoes the permutation.  ``order`` is a symmetric
    fill-reducing order, :func:`mmd_order` of ``a``'s pattern by default;
    the warp drivers pass ``Topology.order``.  The matrix picks the rest.
    A symmetric one (``a - a.T`` within 1e-12 of its largest entry), such
    as FEM's positive definite ``A_I``, pivots on the diagonal always
    (threshold 0), must give positive pivots and fails with
    NOT_POSITIVE_DEFINITE.  Any other takes an off-diagonal pivot only
    where the diagonal is below a tenth of its column's largest entry
    (threshold 0.1) and fails with SINGULAR_SYSTEM.  UNIFORM's and
    LOG_BARRIER's ``A_I``, row diagonally dominant M-matrices on which LU
    without pivoting is stable, keep their diagonal on either path.
    """

    def __init__(self, a, order=None):
        a = sparse.csc_matrix(a)
        if a.shape[0] != a.shape[1]:
            raise ShapeError("matrix must be square")
        self.n = a.shape[0]
        if order is None:
            order = mmd_order(a.indptr, a.indices)
        order = np.asarray(order)
        if not np.array_equal(np.sort(order), np.arange(self.n)):
            raise BadIndexError(f"order must be a permutation of 0..{self.n - 1}")
        diff = a - a.T
        symmetric = not diff.nnz or abs(diff).max() <= 1e-12 * abs(a).max()
        error = NotPositiveDefiniteError if symmetric else SingularSystemError
        opts = dict(
            diag_pivot_thresh=0.0 if symmetric else 0.1, options=dict(SymmetricMode=True)
        )
        try:
            lu = spla.splu(a[order][:, order], permc_spec="NATURAL", **opts)
        except RuntimeError as exc:
            raise error(str(exc)) from exc
        # with a zero pivot threshold the diagonal of U carries the
        # LDL pivots; any nonpositive pivot disproves definiteness
        if symmetric and np.any(lu.U.diagonal() <= 0.0):
            raise NotPositiveDefiniteError("nonpositive pivot encountered")
        self.order = order
        self._lu = lu

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        x = np.empty_like(b)
        x[self.order] = self._lu.solve(b[self.order])
        return x


def factor(a, order=None):
    """Factor a sparse matrix; raises NOT_POSITIVE_DEFINITE for a symmetric
    matrix that is not positive definite and SINGULAR_SYSTEM for any other
    matrix that is singular.  ``order``: see :class:`Factorization`."""
    return Factorization(a, order=order)


def solve_multi(f, b):
    """Solves against one factorization; an (m, k) block goes to SuperLU in
    one call.

    Each column solves its own right-hand side, but its last bits may
    differ from a single-column solve's: SuperLU takes a block through
    other BLAS routines, whose rounding depends on the OpenBLAS kernel.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[0] != f.n:
        raise ShapeError(f"rhs has {b.shape[0]} rows, expected {f.n}")
    return f.solve(b)


def _simplex_maximize(c, a_ub, b_ub, max_iter=10000):
    """max c@x s.t. a_ub@x <= b_ub, x >= 0, with b_ub >= 0.

    Dense tableau simplex with Bland's rule (deterministic, cycle-free).
    Returns the optimal x, or None when a ratio test finds no finite least
    ratio: every LP here is box-bounded, so the tableau has overflowed.
    """
    m, n = a_ub.shape
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a_ub
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b_ub
    tableau[m, :n] = -np.asarray(c, dtype=float)
    basis = list(range(n, n + m))
    for _ in range(max_iter):
        row = tableau[m, : n + m]
        neg = np.flatnonzero(row < -1e-12)
        if not len(neg):
            break
        entering = int(neg[0])  # Bland: smallest improving index
        col = tableau[:m, entering]
        mask = col > 1e-12
        ratios = np.full(m, np.inf)
        ratios[mask] = tableau[:m, -1][mask] / col[mask]
        best = ratios.min()
        if not np.isfinite(best):
            return None
        ties = np.flatnonzero(ratios <= best + 1e-15)
        leave = int(min(ties, key=lambda i: basis[i]))  # Bland tie-break
        pivot = tableau[leave, entering]
        tableau[leave] /= pivot
        colvals = tableau[:, entering].copy()
        colvals[leave] = 0.0
        tableau -= np.outer(colvals, tableau[leave])
        basis[leave] = entering
    x = np.zeros(n + m)
    for i, bv in enumerate(basis):
        x[bv] = tableau[i, -1]
    return x[:n]


def gauss_seidel(a_ii, a_ib, boundary_coords, initial, tol=1e-10, max_sweeps=None):
    """Gauss-Seidel sweeps for A_I X = -A_B X_B.

    Sweep order is the ascending interior index.  With UNIFORM weights each
    sweep is one pass of classical Laplacian smoothing.  Raises DIVERGED if
    the residual grows over 10 consecutive sweeps.
    """
    a_ii = sparse.csr_matrix(a_ii)
    m = a_ii.shape[0]
    if max_sweeps is None:
        max_sweeps = 10 * m
    b = -sparse.csr_matrix(a_ib) @ np.asarray(boundary_coords, dtype=float)
    x = np.array(initial, dtype=float)
    lower = sparse.tril(a_ii, 0, format="csr")
    upper = sparse.triu(a_ii, 1, format="csr")
    bnorm = max(np.abs(b).max(), 1e-300)

    def residual(xx):
        return np.abs(a_ii @ xx - b).max() / bnorm

    res = residual(x)
    growth = 0
    sweeps = 0
    while res > tol and sweeps < max_sweeps:
        x = spla.spsolve_triangular(lower, b - upper @ x, lower=True)
        sweeps += 1
        new_res = residual(x)
        growth = growth + 1 if new_res > res else 0
        if growth >= 10:
            raise DivergedError(
                f"residual grew over 10 consecutive sweeps ({new_res:g})"
            )
        res = new_res
    return x, sweeps
