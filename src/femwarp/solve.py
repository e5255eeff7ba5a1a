"""Linear-system backends: one sparse direct factorization for every
weight scheme, which can reuse a fill-reducing order across matrices of
one sparsity pattern, and Gauss-Seidel sweeps.
"""

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .errors import DivergedError, NotPositiveDefiniteError, SingularSystemError


class Factorization:
    """Factorization of a sparse weight matrix ``A_I``.

    Every scheme takes one path: SuperLU in symmetric mode, which pivots on
    the diagonal under a fill-reducing symmetric ordering.  For FEM ``A_I``
    is symmetric positive definite; for UNIFORM and LOG_BARRIER it is a row
    diagonally dominant M-matrix, on which LU without pivoting is stable.
    ``spd`` selects only the symmetry check, the pivot threshold, the
    positive-pivot check and the error a failure raises.  SPD input pivots
    on the diagonal always (threshold 0), must give positive pivots and
    fails with NOT_POSITIVE_DEFINITE; other input takes an off-diagonal
    pivot only where the diagonal is below a tenth of its column's largest
    entry (threshold 0.1) and fails with SINGULAR_SYSTEM.

    ``order`` is a symmetric ordering: the permuted matrix is factored in
    natural order and ``solve`` undoes the permutation.  Without it the
    matrix is ordered afresh with ``MMD_AT_PLUS_A``.  The warp drivers pass
    ``Topology.order``, a nested-dissection order built once per topology
    in 3D; in 2D it is None, so the first factorization orders with MMD
    and a small-step warp hands that ``order`` to the later ones.
    """

    def __init__(self, a, spd=True, order=None):
        a = sparse.csc_matrix(a)
        if a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        self.n = a.shape[0]
        if order is not None:
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
        # set when _lu factors a[_perm][:, _perm] rather than a itself
        self._perm = order
        try:
            if order is not None:
                lu = spla.splu(a[order][:, order], permc_spec="NATURAL", **opts)
            else:
                lu = spla.splu(a, permc_spec="MMD_AT_PLUS_A", **opts)
                # SuperLU factors Pr A Pc with A Pc = A[:, argsort(perm_c)];
                # symmetric mode keeps Pr = Pc^T while it pivots on the
                # diagonal
                order = np.argsort(lu.perm_c)
        except RuntimeError as exc:
            raise error(str(exc)) from exc
        # with a zero pivot threshold the diagonal of U carries the
        # LDL pivots; any nonpositive pivot disproves definiteness
        if spd and np.any(lu.U.diagonal() <= 0.0):
            raise NotPositiveDefiniteError("nonpositive pivot encountered")
        # fill-reducing order, offered to later factorizations
        self.order = order
        self._lu = lu

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        if self._perm is None:
            return self._lu.solve(b)
        x = np.empty_like(b)
        x[self._perm] = self._lu.solve(b[self._perm])
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
