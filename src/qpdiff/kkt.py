"""The saddle-point layer: reduced KKT assembly, factorization, and solves.

The reduced KKT matrix for an active set J is the symmetric saddle matrix

    K_J = [ P    A'   C_J' ]
          [ A    0    0    ]
          [ C_J  0    0    ]

Apart from the independent oracles, the active-set backend's start and
steps, which use a Cholesky factor and a QR of their own, and ADMM's
iteration on dense data, which factors a reduced n x n matrix by Cholesky,
this module is the only place such systems are built and solved.  Its
consumers are the ADMM iteration matrix on sparse data (K_J on every row
plus a diagonal shift) and, through :func:`solve_on`, every solve on a row
set J: the point on J, formed by ``solvers._point_on``, the one caller of
:func:`factorize`, for the equality backend (J empty), the finishing
solve that ends the active-set and ADMM backends, and
``differentiable_solve`` when it cannot reuse the backend's point; dual
recovery; and the forward and backward derivatives.  A factorization
carries its rows J, so :func:`solve_on` is the one place that gathers a
right-hand side onto J and scatters the result back to length m.  One
factorization of K_J, with the point on J, serves every consumer for the
same (problem, J) pair.  A K_J with at least a quarter of its entries nonzero,
counted from the problem blocks, is filled dense straight from them and
factored in place by LAPACK LU, with solves by BLAS triangular solves; any
other is factored by SuperLU.  Only the LU is kept, and every solve is one
LU solve.  Every sparse saddle matrix, K_J, its bordered form and ADMM's
shifted matrix, comes from one builder, :func:`_saddle`, which fills the
CSC arrays straight from the compressed columns of P, A and C by
``indptr`` arithmetic, with no COO form, block assembly or sparse sum;
only the rows of A and C_J are found by a stable sort of their row
indices.  The sparse form of a dense K_J is built only
when something reads it.  A singular K_J is bordered with a basis of its
null space and factored by the same engine, so its solves return the
minimum-norm least-squares solution.  The basis comes from M = [A' C_J']
in sparse form, gathered by the same builder: its column singletons, such
as the columns of bound rows, are eliminated first in passes over the
nonzeros, and only the rest of M is densified for a pivoted QR.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.blas import dtrsv
from scipy.sparse.csgraph import structural_rank
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from .errors import RankDeficiencyError

__all__ = [
    "ReducedKkt",
    "KktFactorization",
    "assemble_reduced_kkt",
    "factorize",
    "solve_on",
    "condition_estimate",
]

DIRECT = "direct"
LEAST_SQUARES = "least_squares"
DENSE = "dense"
SPARSE = "sparse"

_PIVOT_RTOL = 1e-12
# a matrix with at least this share of its entries nonzero is factored dense
_DENSE_FILL = 0.25
_INT32_MAX = np.iinfo(np.int32).max


def _dense_enough(nnz, order):
    """Whether a square matrix of this order and nnz is factored dense."""
    return nnz >= _DENSE_FILL * order * order


@dataclass(frozen=True)
class ReducedKkt:
    """K_J of ``problem`` on its inequality rows J, kept as the problem's
    blocks and formed on demand.

    ``nnz`` is counted from the blocks.  ``toarray()`` fills the dense K_J
    straight from them, in Fortran order like ``matrix.toarray()``;
    ``matrix``, the sparse CSC form with sorted indices, is filled
    from them by :func:`_saddle` the first time it is read.  A dense
    factorization never reads it.
    """

    problem: object
    rows: np.ndarray

    @property
    def n(self):
        return self.problem.n

    @property
    def p(self):
        return self.problem.p

    @property
    def order(self):
        return self.n + self.p + self.rows.size

    @cached_property
    def nnz(self):
        """Stored entries of K_J: those of P, twice those of A and of C_J."""
        P, A, C = self.problem.P, self.problem.A, self.problem.C
        cj = np.bincount(C.indices, minlength=C.shape[0])[self.rows].sum()
        return int(P.nnz + 2 * A.nnz + 2 * cj)

    @cached_property
    def matrix(self) -> sp.csc_array:
        return _saddle(self.problem, self.rows)

    def toarray(self):
        """The dense K_J, equal to ``matrix.toarray()`` in values and order."""
        n, p = self.n, self.p
        K = np.zeros((self.order, self.order), order="F")
        K[:n, :n] = self.problem.P.toarray()
        for lo, block in ((n, self.problem.A.toarray()),
                          (n + p, self.problem.C.toarray()[self.rows])):
            K[lo : lo + block.shape[0], :n] = block
            K[:n, lo : lo + block.shape[0]] = block.T
        return K


def assemble_reduced_kkt(problem, active) -> ReducedKkt:
    """K_J of the problem blocks on rows ``active``, without modifying any
    entry.

    ``active`` may be an ActiveSet or a plain index array; indices must lie
    in ``[0, m)``.  Nothing is copied here: see :class:`ReducedKkt`.
    """
    indices = np.asarray(getattr(active, "indices", active), dtype=int)
    if indices.size and (indices.min() < 0 or indices.max() >= problem.m):
        raise IndexError(
            f"active-set index out of range [0, {problem.m}): {indices}"
        )
    return ReducedKkt(problem=problem, rows=indices)


def _saddle(problem, rows, shift=None, border=None) -> sp.csc_array:
    """The saddle matrix [[P + D_n, A', C_J'], [A, D_p, 0], [C_J, 0, D_J]]
    on rows J = ``rows`` (ascending), in CSC form with sorted indices of
    the type scipy would choose, filled straight from the compressed blocks
    of ``problem``.

    ``shift`` is the diagonal D, of length n + p + |J|; without it the
    result is K_J, with every stored entry of the blocks, explicit zeros
    too.  A shifted matrix, like the sparse sum it stands for, stores no
    zero, and D_n merges into P's diagonal whether P stores it or not.
    With ``border``, a null basis Z, the result is [[K, Z], [Z', 0]].
    Column j < n holds P's column, then A's column and C's column at J;
    column n + i holds row i of [A; C_J], then D's entry, then row n + i
    of Z; Z's columns come last.  Each piece is sorted already, and its rows
    come before the next piece's, so nothing is sorted here.
    """
    n, p = problem.n, problem.p
    order = n + p + rows.size
    width = order + (0 if border is None else border.shape[1])
    P = problem.P
    by_col, by_row = _gathers(problem, rows)
    blocks = [(0, P.data, P.indices, P.indptr)]
    if shift is not None:
        # P's column split around its diagonal, which takes D_n's entry
        col = np.repeat(np.arange(n), np.diff(P.indptr))
        on = P.indices == col
        diag = shift[:n].copy()
        diag[col[on]] += P.data[on]
        blocks = [(0, *_kept(P.data, P.indices, P.indptr, P.indices < col)),
                  (0, diag, np.arange(n), np.arange(n + 1)),
                  (0, *_kept(P.data, P.indices, P.indptr, P.indices > col))]
    blocks += [(0, val, idx + n, ptr) for _, val, idx, ptr in by_col]
    blocks += [(n + first, val, idx, ptr) for first, val, idx, ptr in by_row]
    if shift is not None:
        blocks.append((n, shift[n:], np.arange(n, order), np.arange(order - n + 1)))
    if border is not None:
        Zr = border.tocsr()
        blocks += [(0, Zr.data, Zr.indices + order, Zr.indptr),
                   (order, border.data, border.indices, border.indptr)]
    arrays = _stack((width, width), blocks)
    if shift is not None:
        arrays = _nonzero(*arrays)
    mat = sp.csc_array(arrays, shape=(width, width))
    mat.has_canonical_format = True
    return mat


def _gathers(problem, rows):
    """The rows [A; C_J] as blocks for :func:`_stack`, twice: by its n
    columns, with row i of A at row i and row J[t] of C at row p + t, and
    by its rows, as the p + |J| columns of [A' C_J'].  The columns are
    A's and C's, C's filtered to J; the rows are their transposes."""
    A, C, p = problem.A, problem.C, problem.p
    at = np.full(problem.m, -1)
    at[rows] = np.arange(rows.size)
    at = at[C.indices]  # the position in J of each entry's row, -1 off J
    CJ = _kept(C.data, at, C.indptr, at >= 0)
    by_col = [(0, A.data, A.indices, A.indptr), (0, CJ[0], p + CJ[1], CJ[2])]
    by_row = [(0, *_transposed(A.data, A.indices, A.indptr, p)),
              (p, *_transposed(*CJ, rows.size))]
    return by_col, by_row


def _transposed(data, indices, indptr, rows):
    """The compressed arrays of the transpose of a matrix with ``rows``
    rows: a stable sort of the indices keeps each new major line in the old
    major order, so its indices come out sorted, as scipy's conversion
    gives them."""
    order = np.argsort(indices, kind="stable")
    major = np.repeat(np.arange(indptr.size - 1), indptr[1:] - indptr[:-1])
    ptr = np.zeros(rows + 1, dtype=indptr.dtype)
    np.cumsum(np.bincount(indices, minlength=rows), out=ptr[1:])
    return data[order], major[order], ptr


def _stack(shape, blocks):
    """``(data, indices, indptr)`` of the CSC matrix of ``shape`` whose
    column j holds, in turn, the entries of column j of each block.

    A block is ``(first, data, indices, indptr)``: compressed columns from
    column ``first`` on, with ``indptr[0] == 0``, whose indices are already
    rows of the result.  The entries land by ``indptr`` arithmetic alone;
    the result is sorted when,
    in every column, the rows of each block are sorted and come before those
    of the next.
    """
    spans = [slice(first, first + ptr.size - 1) for first, _, _, ptr in blocks]
    lens = [ptr[1:] - ptr[:-1] for *_, ptr in blocks]
    counts = np.zeros(shape[1], dtype=np.int64)
    for span, count in zip(spans, lens):
        counts[span] += count
    nnz = int(counts.sum())
    dtype = _index_dtype(nnz, shape)
    indptr = np.zeros(shape[1] + 1, dtype=dtype)
    np.cumsum(counts, out=indptr[1:])
    data, indices = np.empty(nnz), np.empty(nnz, dtype=dtype)
    start = indptr[:-1].copy()  # where each column's next entry lands
    for (_, val, idx, ptr), span, count in zip(blocks, spans, lens):
        dest = np.arange(ptr[-1]) + np.repeat(start[span] - ptr[:-1], count)
        data[dest] = val[: ptr[-1]]
        indices[dest] = idx[: ptr[-1]]
        start[span] += count
    return data, indices, indptr


def _index_dtype(nnz, shape):
    """The index type scipy gives a compressed matrix: int32 when ``nnz``
    and ``shape`` fit in it, else int64."""
    return np.int32 if max(nnz, *shape) <= _INT32_MAX else np.int64


def _kept(data, indices, indptr, keep):
    """The entries ``keep`` (a mask) of compressed arrays, in their order."""
    before = np.zeros(keep.size + 1, dtype=indptr.dtype)  # kept entries before each
    np.cumsum(keep, out=before[1:])
    return data[keep], indices[keep], before[indptr]


def _nonzero(data, indices, indptr):
    """Compressed arrays without their explicit zeros."""
    return _kept(data, indices, indptr, data != 0)


class KktFactorization:
    """Reusable solver for K_J systems.

    ``rows`` is the row set J of K_J.  ``mode`` is ``"direct"`` when K_J
    itself was factored, else ``"least_squares"``: K_J was bordered and
    solves return the minimum-norm least-squares solution.  ``engine`` is
    ``"dense"`` (LAPACK LU of the dense K_J, solved by ``trsv``) or
    ``"sparse"`` (SuperLU).  ``rank`` is the rank of K_J.  ``matrix`` is
    K_J in sparse form, built when first read.  Only the LU is kept, and
    each solve is one LU solve.  Because K_J is symmetric,
    the same code path serves forward and adjoint solves.
    Instances are immutable after construction; concurrent solves are safe,
    and threads that race on the first read of ``matrix`` get equal arrays.
    """

    def __init__(self, kkt, mode, engine, lu, rank):
        self._kkt = kkt
        self.rows = kkt.rows
        self.mode = mode
        self.engine = engine
        self._lu = lu
        self.rank = rank
        self.order = kkt.order

    @property
    def matrix(self):
        """K_J in sparse CSC form, built when first read."""
        return self._kkt.matrix

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float).ravel()
        if rhs.shape[0] != self.order:
            raise ValueError(
                f"rhs has length {rhs.shape[0]}, expected {self.order}"
            )
        # a bordered matrix has one more row per column of Z, with zero rhs
        rhs = np.concatenate([rhs, np.zeros(self.order - self.rank)])
        return self._lu.solve(rhs)[: self.order]


def factorize(kkt: ReducedKkt) -> KktFactorization:
    """Factor K_J once for reuse, by LU.

    The engine is dense LAPACK LU of ``kkt.toarray()``, factored in place,
    when at least a quarter of the entries of K_J are nonzero, by
    ``kkt.nnz``, else SuperLU of ``kkt.matrix``, and it serves the bordered
    matrix too.  A K_J that fails the pivot check is bordered:
    ``[[K_J, Z], [Z', 0]]``, filled from the problem blocks and Z by
    :func:`_saddle`, is factored, with Z a null-space basis of K_J, and the
    leading block of its solution is the minimum-norm least-squares
    solution.  Raises :class:`RankDeficiencyError` if Z is empty or the
    bordered matrix fails the check too: P is not positive definite on the
    null space of ``[A; C_J]``, or rows of ``[A; C_J]`` are so nearly
    dependent that K_J fails the check while ``[A; C_J]`` has full
    numerical rank.
    """
    engine = DENSE if _dense_enough(kkt.nnz, kkt.order) else SPARSE
    lu = _checked_lu(kkt.toarray() if engine == DENSE else kkt.matrix, engine)
    if lu is not None:
        return KktFactorization(kkt, DIRECT, engine, lu, kkt.order)

    Z = _null_basis(kkt)
    if Z.shape[1]:
        lu = _checked_lu(_saddle(kkt.problem, kkt.rows, border=Z), engine)
    if lu is None:
        raise RankDeficiencyError(
            "reduced KKT matrix is singular: P is not positive definite on "
            "null([A; C_J]), or rows of [A; C_J] are nearly dependent (K_J's "
            f"pivot ratio is below {_PIVOT_RTOL:g} while [A; C_J] has full "
            "numerical rank)"
        )
    return KktFactorization(kkt, LEAST_SQUARES, engine, lu, kkt.order - Z.shape[1])


def solve_on(problem, fact: KktFactorization, top, mid, bot):
    """Solve K_J (x, y, w_J) = (top, mid, bot_J) through ``fact``, a
    factorization of K_J on rows J = ``fact.rows``.

    ``bot`` has length m and is gathered onto J.  Returns ``(x, y, w)`` with
    w scattered to length m (zero off J).  The point on J is
    ``solve_on(problem, fact, -q, b, d)``.  When K_J is singular the result
    is the minimum-norm solution.
    """
    n, p = problem.n, problem.p
    sol = fact.solve(np.concatenate([top, mid, bot[fact.rows]]))
    w = np.zeros(problem.m)
    w[fact.rows] = sol[n + p :]
    return sol[:n], sol[n : n + p], w


def _checked_lu(matrix, engine):
    """The engine's LU of ``matrix``, or None when it fails the pivot check.
    A dense array is factored in place, a sparse one filled in Fortran order."""
    if engine == DENSE:
        lu = _DenseLu(matrix.toarray(order="F") if sp.issparse(matrix) else matrix)
        diag = np.abs(np.diagonal(lu.lu))
    else:
        lu = _lu_or_none(matrix)
        if lu is None:
            return None
        diag = np.abs(lu.U.diagonal())
    ok = diag.size and np.all(np.isfinite(diag)) and diag.min() > _PIVOT_RTOL * diag.max()
    return lu if ok else None


class _DenseLu:
    """LAPACK LU with partial pivoting (``getrf``) of a dense matrix, in
    place when the matrix is a Fortran-ordered float array.

    Solves apply the row permutation and two BLAS triangular solves
    (``trsv``) on the Fortran-ordered factor, with none of
    ``solve_triangular``'s argument checks and a bit-identical result.
    LAPACK's own ``getrs`` is not used: with OpenBLAS 0.3.31, threads
    calling it on one shared factorization have aborted and crashed the
    interpreter, while triangular solves on shared factors are safe.
    ``getrf`` is memory-safe on singular input and returns its zero pivots
    in U.
    """

    def __init__(self, matrix):
        self.lu, piv, _ = scipy.linalg.lapack.dgetrf(matrix, overwrite_a=1)
        # getrf swaps row i with row piv[i], in turn; apply them once here
        perm = np.arange(matrix.shape[0])
        for i, j in enumerate(piv):
            perm[i], perm[j] = perm[j], perm[i]
        self.perm = perm

    def solve(self, rhs):
        y = dtrsv(self.lu, rhs[self.perm], lower=1, diag=1, overwrite_x=1)
        return dtrsv(self.lu, y, overwrite_x=1)


def _lu_or_none(matrix, **options):
    """Sparse LU of ``matrix`` by ``splu(matrix, **options)``, or None when
    it is singular to SuperLU.

    A structurally singular matrix is refused before SuperLU sees it: its
    zero-pivot path is not memory-safe, and has crashed the interpreter on
    such a K_J (``gen_random_sparse(1000, 2)`` with J empty).
    """
    matrix = sp.csc_matrix(matrix)
    # the transpose is a CSR view, free to form, with the same structural rank
    if structural_rank(matrix.T) < matrix.shape[0]:
        return None
    try:
        return splu(matrix, **options)
    except RuntimeError:
        return None


def _rank_cut(diag, shape):
    """The rank cut of a pivoted QR of a matrix of ``shape`` whose R has the
    absolute diagonal ``diag``: the |R_ii| above max(shape)·eps·max|R_ii|
    count toward its rank."""
    return max(shape) * np.finfo(float).eps * np.max(diag, initial=0.0)


def _null_basis(kkt: ReducedKkt):
    """Sparse basis of {(0, y) : [A; C_J]' y = 0}: with P positive definite,
    the null space of K_J, one column per null vector.

    M = [A' C_J'] is reduced in three steps, all at one rank cut,
    max(shape)·eps times the largest column norm of M (the |R_11| of a
    pivoted QR of M).
    1. Column singletons are pivoted out of the sparse M.  A column with one
       live nonzero above the cut is pivoted there, one column per row and
       pass; pivot rows and columns leave the live set, and passes repeat
       until none is left.  Each entry of M is visited O(1) times.
    2. The rest, M[R, S], is dense: pivoted QR gives M[R, S][:, perm] = Q R,
       and the columns of [-R11^-1 R12; I], scattered by perm, span its null
       space.  Entries of R11^-1 R12 at or below the cut are rounding noise;
       dropping them keeps the bordered matrix as sparse as the dependencies.
    3. The singleton entries of each null vector follow by back-substitution,
       last pass first: M[R, singletons] is zero, the pivots of one pass
       form a diagonal block and earlier passes sit above later ones.
    With no singletons, step 2 is a pivoted QR of all of M.
    """
    n, k = kkt.n, kkt.order - kkt.n
    by_col, by_row = _gathers(kkt.problem, kkt.rows)
    M = sp.csc_array(_nonzero(*_stack((n, k), by_row)), shape=(n, k))
    # the columns of [A; C_J] are the rows of M
    Mr = sp.csr_array(_nonzero(*_stack((k, n), by_col)), shape=(n, k))
    cut = _rank_cut(np.sqrt(np.bincount(Mr.indices, Mr.data**2, minlength=k)), M.shape)

    row_live = np.ones(n, dtype=bool)
    col_live = np.ones(k, dtype=bool)
    count = np.diff(M.indptr)
    passes = []
    cand = np.flatnonzero(count == 1)
    while cand.size:
        at, _ = _entries(M.indptr, cand)
        at = at[row_live[M.indices[at]]]  # one live entry per candidate
        rows, vals = M.indices[at], M.data[at]
        big = np.abs(vals) > cut
        cand, rows, vals = cand[big], rows[big], vals[big]
        # one column per row: the largest pivot, the first column on a tie
        order = np.lexsort((-np.abs(vals), rows))
        first = order[np.unique(rows[order], return_index=True)[1]]
        cols, rows, vals = cand[first], rows[first], vals[first]
        passes.append((rows, cols, vals))
        row_live[rows] = False
        col_live[cols] = False
        touched, hits = np.unique(Mr.indices[_entries(Mr.indptr, rows)[0]],
                                  return_counts=True)
        count[touched] -= hits
        cand = touched[(count[touched] == 1) & col_live[touched]]

    R, S = np.flatnonzero(row_live), np.flatnonzero(col_live)
    at, col = _entries(M.indptr, S)
    live = row_live[M.indices[at]]
    rest = np.zeros((R.size, S.size))
    rest[np.searchsorted(R, M.indices[at[live]]), col[live]] = M.data[at[live]]
    perm, rank, W = np.arange(S.size), 0, np.zeros((0, S.size))
    if rest.size:
        Rq, perm = scipy.linalg.qr(rest, mode="r", pivoting=True)
        rank = int((np.abs(np.diagonal(Rq)) > cut).sum())
        W = scipy.linalg.solve_triangular(Rq[:rank, :rank], Rq[:rank, rank:])
        W[np.abs(W) <= cut] = 0.0
    Y = np.zeros((k, S.size - rank))
    Y[S[perm[:rank]]] = -W
    Y[S[perm[rank:]], np.arange(S.size - rank)] = 1.0
    for rows, cols, vals in reversed(passes):
        block = -(Mr[rows] @ Y) / vals[:, None]
        block[np.abs(block) <= cut] = 0.0
        Y[cols] = block
    # Y' in CSR form is the basis in CSC form, rows shifted by n
    col, row = np.nonzero(Y.T)
    indptr = np.searchsorted(col, np.arange(Y.shape[1] + 1))
    shape = (kkt.order, Y.shape[1])
    dtype = _index_dtype(row.size, shape)
    return sp.csc_array((Y[row, col], (n + row).astype(dtype), indptr.astype(dtype)),
                        shape=shape)


def _entries(indptr, picks):
    """Positions of the stored entries of the compressed rows or columns
    ``picks``, in the order of ``picks``, and for each the index in ``picks``
    of its row or column."""
    lo = indptr[picks]
    lens = indptr[picks + 1] - lo
    ends = np.cumsum(lens)
    at = np.arange(ends[-1] if ends.size else 0) + np.repeat(lo - ends + lens, lens)
    return at, np.repeat(np.arange(picks.size), lens)


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
        lu = _lu_or_none(matrix)
        if lu is None:
            return np.inf
        # onenormest also applies the adjoint
        inv_op = LinearOperator(
            matrix.shape, matvec=lu.solve, rmatvec=lambda x: lu.solve(x, trans="T")
        )
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
