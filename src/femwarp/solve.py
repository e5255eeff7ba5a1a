"""Linear-system backends: one sparse direct factorization for every
weight scheme, which takes a fill-reducing order that matrices of one
sparsity pattern share, and Gauss-Seidel sweeps.
"""

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .errors import DivergedError, NotPositiveDefiniteError, SingularSystemError


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
    the warp drivers pass ``Topology.order``.  For FEM ``A_I`` is symmetric
    positive definite; for UNIFORM and LOG_BARRIER it is a row diagonally
    dominant M-matrix, on which LU without pivoting is stable.  ``spd``
    selects only the symmetry check, the pivot threshold, the
    positive-pivot check and the error a failure raises.  SPD input pivots
    on the diagonal always (threshold 0), must give positive pivots and
    fails with NOT_POSITIVE_DEFINITE; other input takes an off-diagonal
    pivot only where the diagonal is below a tenth of its column's largest
    entry (threshold 0.1) and fails with SINGULAR_SYSTEM.
    """

    def __init__(self, a, spd=True, order=None):
        a = sparse.csc_matrix(a)
        if a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        self.n = a.shape[0]
        if order is None:
            order = mmd_order(a.indptr, a.indices)
        order = np.asarray(order)
        if not np.array_equal(np.sort(order), np.arange(self.n)):
            raise ValueError(f"order must be a permutation of 0..{self.n - 1}")
        error = NotPositiveDefiniteError if spd else SingularSystemError
        if spd:
            diff = a - a.T
            if diff.nnz and abs(diff).max() > 1e-12 * max(1.0, abs(a).max()):
                raise NotPositiveDefiniteError("matrix is not symmetric")
        opts = dict(
            diag_pivot_thresh=0.0 if spd else 0.1, options=dict(SymmetricMode=True)
        )
        try:
            lu = spla.splu(a[order][:, order], permc_spec="NATURAL", **opts)
        except RuntimeError as exc:
            raise error(str(exc)) from exc
        # with a zero pivot threshold the diagonal of U carries the
        # LDL pivots; any nonpositive pivot disproves definiteness
        if spd and np.any(lu.U.diagonal() <= 0.0):
            raise NotPositiveDefiniteError("nonpositive pivot encountered")
        self.order = order
        self._lu = lu

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        x = np.empty_like(b)
        x[self.order] = self._lu.solve(b[self.order])
        return x


def factor(a, spd=True, order=None):
    """Factor a sparse matrix; raises NOT_POSITIVE_DEFINITE for spd input
    that is not positive definite and SINGULAR_SYSTEM for other input that
    is singular.  ``order``: see :class:`Factorization`."""
    return Factorization(a, spd=spd, order=order)


def solve_multi(f, b):
    """Solves against one factorization; an (m, k) block goes to SuperLU in
    one call.

    Columns are independent: a (m, k) solve is bitwise identical to k
    single-column solves.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[0] != f.n:
        raise ValueError(f"rhs has {b.shape[0]} rows, expected {f.n}")
    return f.solve(b)


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
