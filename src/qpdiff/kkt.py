"""The saddle-point layer: reduced KKT assembly, factorization, and solves.

The reduced KKT matrix for an active set J is the symmetric saddle matrix

    K_J = [ P    A'   C_J' ]
          [ A    0    0    ]
          [ C_J  0    0    ]

Apart from the independent oracles, this module is the only place such
systems are built and solved.  Its consumers are the backend steps (the
active-set subproblem and the equality-constrained solve), the ADMM
iteration matrix (K_J on every row plus a diagonal shift) and the ADMM
polish, dual recovery, and the forward and backward derivatives.  One
factorization of K_J serves dual recovery and every derivative solve for
the same (problem, J) pair.  When the factorization is singular or
unreliable the object degrades to a minimum-norm least-squares solver
instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from .errors import RankDeficiencyError

__all__ = [
    "ReducedKkt",
    "KktFactorization",
    "DualLeastSquares",
    "assemble_reduced_kkt",
    "factorize",
    "solve_equality_qp",
    "condition_estimate",
]

DIRECT = "direct"
LEAST_SQUARES = "least_squares"

_PIVOT_RTOL = 1e-12
_DENSE_LSTSQ_LIMIT = 2000
_TIKHONOV = 1e-10


@dataclass(frozen=True)
class ReducedKkt:
    """Assembled reduced KKT matrix together with the active set it came from."""

    matrix: sp.csc_array
    active: object
    n: int
    p: int
    k: int

    @property
    def order(self):
        return self.n + self.p + self.k


def assemble_reduced_kkt(problem, active) -> ReducedKkt:
    """Build K_J from the problem blocks without modifying any entry.

    ``active`` may be an ActiveSet or a plain index array; indices must lie
    in ``[0, m)``.
    """
    indices = np.asarray(getattr(active, "indices", active), dtype=int)
    if indices.size and (indices.min() < 0 or indices.max() >= problem.m):
        raise IndexError(
            f"active-set index out of range [0, {problem.m}): {indices}"
        )
    n, p, k = problem.n, problem.p, indices.size
    CJ = sp.csc_array(sp.csr_array(problem.C)[indices]) if k else sp.csc_array((0, n))

    parts_row = []
    parts_col = []
    parts_val = []

    def _add(block, roff, coff):
        coo = sp.coo_array(block)
        if coo.nnz:
            parts_row.append(coo.row + roff)
            parts_col.append(coo.col + coff)
            parts_val.append(coo.data)

    _add(problem.P, 0, 0)
    if p:
        _add(problem.A.T, 0, n)
        _add(problem.A, n, 0)
    if k:
        _add(CJ.T, 0, n + p)
        _add(CJ, n + p, 0)

    order = n + p + k
    if parts_row:
        mat = sp.csc_array(
            sp.coo_array(
                (
                    np.concatenate(parts_val),
                    (np.concatenate(parts_row), np.concatenate(parts_col)),
                ),
                shape=(order, order),
            )
        )
    else:
        mat = sp.csc_array((order, order))
    mat.sort_indices()
    return ReducedKkt(matrix=mat, active=active, n=n, p=p, k=k)


class KktFactorization:
    """Reusable solver for K_J systems.

    ``mode`` is ``"direct"`` when a sparse LU factorization succeeded with
    acceptable pivots, else ``"least_squares"`` in which case solves return
    the minimum-norm least-squares solution.  Because K_J is symmetric, the
    same code path serves forward and adjoint solves.  Instances are
    immutable after construction; concurrent solves are safe.
    """

    def __init__(self, matrix, mode, lu=None, svd=None, normal_lu=None, rank=None):
        self.matrix = matrix
        self.mode = mode
        self._lu = lu
        self._svd = svd
        self._normal_lu = normal_lu
        self.rank = rank
        self.order = matrix.shape[0]

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float).ravel()
        if rhs.shape[0] != self.order:
            raise ValueError(
                f"rhs has length {rhs.shape[0]}, expected {self.order}"
            )
        if self.mode == DIRECT:
            x = self._lu.solve(rhs)
            # up to three steps of iterative refinement against the exact matrix
            for _ in range(3):
                resid = rhs - self.matrix @ x
                if np.abs(resid).max(initial=0.0) <= 1e-14 * (1.0 + np.abs(rhs).max(initial=0.0)):
                    break
                x = x + self._lu.solve(resid)
            return x
        if self._svd is not None:
            u, s, vt = self._svd
            cut = s[0] * max(self.order, 1) * np.finfo(float).eps if s.size else 0.0
            inv = np.where(s > cut, 1.0 / np.where(s > 0, s, 1.0), 0.0)
            return vt.T @ (inv * (u.T @ rhs))
        return self._normal_lu.solve(self.matrix.T @ rhs)


def factorize(kkt: ReducedKkt, regularization: float = 0.0) -> KktFactorization:
    """Factor K_J once for reuse; singularity degrades to least squares.

    ``regularization`` subtracts r from the diagonal of the zero constraint
    blocks before factoring (0 disables); solves still target the exact
    matrix through iterative refinement.
    """
    mat = kkt.matrix
    work = mat
    if regularization:
        shift = np.concatenate(
            [np.zeros(kkt.n), np.full(kkt.p + kkt.k, -regularization)]
        )
        work = sp.csc_array(mat + sp.diags_array(shift))

    try:
        lu = splu(sp.csc_matrix(work))
        diag = np.abs(lu.U.diagonal())
        if diag.size and np.all(np.isfinite(diag)):
            if diag.min() > _PIVOT_RTOL * diag.max():
                return KktFactorization(mat, DIRECT, lu=lu)
    except RuntimeError:
        pass

    order = kkt.order
    if order <= _DENSE_LSTSQ_LIMIT:
        u, s, vt = np.linalg.svd(mat.toarray())
        cut = s[0] * order * np.finfo(float).eps if s.size else 0.0
        rank = int((s > cut).sum())
        return KktFactorization(mat, LEAST_SQUARES, svd=(u, s, vt), rank=rank)

    normal = sp.csc_matrix(mat.T @ mat + _TIKHONOV * sp.identity(order))
    return KktFactorization(mat, LEAST_SQUARES, normal_lu=splu(normal))


def solve_equality_qp(P, q, A=None, b=None):
    """Solve min 0.5 z'Pz + q'z s.t. Az = b via the dense saddle-point system.

    Requires P positive definite and A full row rank; raises
    :class:`RankDeficiencyError` otherwise.  Returns ``(z, lam)`` with
    ``lam`` empty when there are no equality constraints.  Dense on purpose:
    the active-set backend calls it once per iteration on small dense blocks,
    where a sparse factorization costs several times more.
    """
    Pd = P.toarray() if sp.issparse(P) else np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float).ravel()
    n = q.shape[0]
    if A is None or (hasattr(A, "shape") and A.shape[0] == 0):
        p = 0
        K = Pd
        rhs = -q
    else:
        Ad = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float).ravel()
        p = Ad.shape[0]
        K = np.zeros((n + p, n + p))
        K[:n, :n] = Pd
        K[:n, n:] = Ad.T
        K[n:, :n] = Ad
        rhs = np.concatenate([-q, b])
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError("equality KKT matrix is singular") from exc
    if not np.all(np.isfinite(sol)):
        raise RankDeficiencyError("equality KKT solve produced non-finite values")
    resid = np.abs(K @ sol - rhs).max(initial=0.0)
    if resid > 1e-6 * (1.0 + np.abs(rhs).max(initial=0.0)):
        raise RankDeficiencyError(
            f"equality KKT solve is unreliable (residual {resid:.2e})"
        )
    return sol[:n], sol[n : n + p]


class DualLeastSquares:
    """Minimum-residual duals for a fixed primal point.

    Solves min over (lam, mu_J) of || P z + q + A' lam + C_J' mu_J ||_2 by a
    dense least-squares fit of the constraint gradients.
    """

    def __init__(self, problem, indices):
        blocks = []
        if problem.p:
            blocks.append(problem.A.toarray().T)
        if len(indices):
            blocks.append(sp.csr_array(problem.C)[np.asarray(indices)].toarray().T)
        self._M = np.hstack(blocks) if blocks else np.zeros((problem.n, 0))

    def solve(self, target):
        """Return ``(duals, residual)`` for the stationarity target."""
        if self._M.shape[1] == 0:
            return np.zeros(0), target.copy()
        duals, *_ = np.linalg.lstsq(self._M, target, rcond=None)
        return duals, target - self._M @ duals


def condition_estimate(matrix) -> float:
    """Condition number of a square matrix; +inf for exactly singular input.

    Dense SVD up to order 600 (exact); a 1-norm estimate through a sparse
    factorization above that.
    """
    if sp.issparse(matrix):
        order = matrix.shape[0]
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("condition_estimate requires a square matrix")
        if order <= 600:
            return _dense_cond(matrix.toarray())
        try:
            lu = splu(sp.csc_matrix(matrix))
        except RuntimeError:
            return np.inf
        inv_op = LinearOperator(matrix.shape, matvec=lu.solve)
        return float(onenormest(matrix) * onenormest(inv_op))
    arr = np.asarray(matrix, dtype=float)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError("condition_estimate requires a square matrix")
    return _dense_cond(arr)


def _dense_cond(arr):
    s = np.linalg.svd(arr, compute_uv=False)
    if s.size == 0 or s[-1] == 0.0 or not np.isfinite(s).all():
        return np.inf
    if s[-1] <= s[0] * 1e-250:
        return np.inf
    return float(s[0] / s[-1])
