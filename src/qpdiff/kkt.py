"""The saddle-point layer: reduced KKT assembly, factorization, and solves.

The reduced KKT matrix for an active set J is the symmetric saddle matrix

    K_J = [ P    A'   C_J' ]
          [ A    0    0    ]
          [ C_J  0    0    ]

Apart from the independent oracles, the active-set backend's loop, which
eliminates the equality rows by a Cholesky factor and a pivoted QR of its
own and keeps a QR of its working rows on their null space, and ADMM's
iteration on dense data, which factors a reduced n x n matrix by Cholesky,
this module is the only place such systems are built and solved.  Its
consumers are the ADMM iteration matrix on sparse data (K_J on every row
plus a diagonal shift, quasi-definite), factored by :func:`_shifted_lu`,
which keeps the work that depends only on a sparsity pattern, the
minimum-degree ordering and the gathers that fill the permuted matrix,
once per pattern in one bounded, lock-guarded cache that cannot change a
result; ``validate``'s positive-definiteness check of a sparse P, decided
by :func:`_symmetric_lu`, the same factorization without the cache; and,
through :func:`solve_on`, every solve on a row
set J: the point on J, formed by ``solvers._point_on``, the one caller of
:func:`factorize`, for ``solvers._finish``, the one exit of the built-in
backends (J empty for the equality backend), for crossover rounds, and
for ``differentiable_solve`` when it cannot reuse the backend's point; dual
recovery; and the forward and backward derivatives.  A factorization
carries its rows J, so :func:`solve_on` is the one place that gathers a
right-hand side onto J and scatters the result back to length m.  One
factorization of K_J, with the point on J, serves every consumer for the
same (problem, J) pair.

The bound rows of J, rows of C with one nonzero such as ``z_i >= 0``, are
substituted out before anything is factored: each fixes its variable, and
only the reduced matrix of the free variables, the equality rows and the
other rows of J is factored, as active-set codes fix bounded variables
(Gill, Murray & Wright, *Practical Optimization*, 1981).  Its blocks and
the coupling to the fixed variables are gathered by index arithmetic on
the entries of P, A and C; a solve wraps one solve with the reduced matrix
in two products with the coupling, and returns K_J's solution in K_J's
layout.  K_J itself is factored when the bound rows fix fewer than a
tenth of the variables, as on random-sparse, where the substitution would
remove almost nothing, when two bound rows fix one variable, when they
fix every variable, or when a null vector of the reduced matrix is not one
of K_J.  The matrix factored, K_J or the reduced one, is filled dense and
factored in place by LAPACK LU when at least a quarter of its entries
are nonzero, counted from its blocks, with solves by BLAS triangular
solves; any other is factored by SuperLU.  Only the LU is kept, and every
solve is one LU solve.  Every sparse saddle matrix, K_J, the reduced
matrix, their bordered forms and ADMM's shifted matrix, comes from one
builder, :func:`_saddle`, which fills the CSC arrays straight from the
compressed columns of P, A and C by ``indptr`` arithmetic, with no COO
form, block assembly or sparse sum; only the rows of A and C_J are found
by a stable sort of their row indices; the gathers of ADMM's cached
matrix are found by running the builder once on tags.  The sparse form of
a dense K_J is built only when something reads it.  A singular matrix is
bordered with a basis of its null space and factored by the same engine,
so its solves return the minimum-norm least-squares solution.  On the dense engine the
basis comes from one pivoted QR of the dense M = [A' C_J'].  On the sparse
engine M is gathered in sparse form by the same builder: its column
singletons, such as the columns of bound rows, are eliminated first in
passes over the nonzeros, and only the rest of M is densified for a
pivoted QR.  The gathered rows of [A; C_J] are formed once per matrix and
shared by it, the null basis and the bordered matrix.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.blas import dtrsm, dtrsv
from scipy.linalg.lapack import dgeqp3
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
# bound rows are substituted out of K_J only when they fix at least this
# share of the variables; fewer remove too little to pay for the gathering
_BOUND_SHARE = 0.1
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
    def row_counts(self):
        """Stored entries of C on each row of J, shared by ``nnz`` and the
        search for bound rows (:func:`_bound_rows`)."""
        C = self.problem.C
        return np.bincount(C.indices, minlength=C.shape[0])[self.rows]

    @cached_property
    def nnz(self):
        """Stored entries of K_J: those of P, twice those of A and of C_J."""
        P, A = self.problem.P, self.problem.A
        return int(P.nnz + 2 * A.nnz + 2 * self.row_counts.sum())

    @cached_property
    def gathers(self):
        """The rows [A; C_J] by columns and by rows (:func:`_gathers`),
        shared by ``matrix``, :func:`_null_basis` and the bordered matrix."""
        return _gathers(self.problem, self.rows)

    @cached_property
    def matrix(self) -> sp.csc_array:
        return _saddle(self.problem, self.rows, gathers=self.gathers)

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


def _saddle(problem, rows, shift=None, border=None, gathers=None) -> sp.csc_array:
    """The saddle matrix [[P + D_n, A', C_J'], [A, D_p, 0], [C_J, 0, D_J]]
    on rows J = ``rows`` (ascending), in CSC form with sorted indices of
    the type scipy would choose, filled straight from the compressed blocks
    of ``problem``.

    ``shift`` is the diagonal D, of length n + p + |J|; without it the
    result is K_J, with every stored entry of the blocks, explicit zeros
    too.  A shifted matrix, like the sparse sum it stands for, stores no
    zero, and D_n merges into P's diagonal whether P stores it or not.
    With ``border``, a null basis Z, the result is [[K, Z], [Z', 0]].
    ``gathers`` is :func:`_gathers` of ``problem`` and ``rows``, when the
    caller has it already.
    Column j < n holds P's column, then A's column and C's column at J;
    column n + i holds row i of [A; C_J], then D's entry, then row n + i
    of Z; Z's columns come last.  Each piece is sorted already, and its rows
    come before the next piece's, so nothing is sorted here.
    """
    n, p = problem.n, problem.p
    order = n + p + rows.size
    width = order + (0 if border is None else border.shape[1])
    P = problem.P
    by_col, by_row = _gathers(problem, rows) if gathers is None else gathers
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

    ``rows`` is the row set J of K_J, and solves take and return vectors in
    K_J's layout.  ``mode`` is ``"direct"`` when K_J is nonsingular, else
    ``"least_squares"``: solves return the minimum-norm least-squares
    solution.  ``rank`` is the rank of K_J.  When the bound rows of J were
    substituted out (:class:`_BoundRows`), the matrix factored is the
    reduced one, bordered when singular, and each solve wraps one solve with
    it in two products with the coupling block; else it is K_J, or its
    bordered form.  ``engine`` names the engine that factored that matrix:
    ``"dense"`` (LAPACK LU, solved by ``trsv``) or ``"sparse"`` (SuperLU).
    ``matrix`` is K_J in sparse form, and ``null`` the multiplier rows of
    the null basis the bordered matrix was built with, each built when
    first read.  Only the LU and that basis are kept, and each solve is one
    LU solve.  Because K_J is symmetric, the same code path serves forward
    and adjoint solves.  Instances are immutable after construction;
    concurrent solves are safe, and threads that race on the first read of
    ``matrix`` or ``null`` get equal arrays.
    """

    def __init__(self, kkt, mode, engine, lu, Z, bound=None):
        self._kkt = kkt
        self.rows = kkt.rows
        self.mode = mode
        self.engine = engine
        self._lu = lu
        self.rank = kkt.order - Z.shape[1]
        self.order = kkt.order
        self._bound = bound
        self._Z = Z

    @property
    def matrix(self):
        """K_J in sparse CSC form, built when first read."""
        return self._kkt.matrix

    @cached_property
    def null(self):
        """The dual rows (lam, mu_J) of the null basis Z, dense, one column
        per null vector (none on a direct K_J); Z is zero on z.  A basis of
        the reduced matrix (:class:`_BoundRows`) is placed at its unknowns'
        places in K_J, zero on the bound rows."""
        Z = self._Z.toarray() if sp.issparse(self._Z) else self._Z
        if self._bound is not None:
            full = np.zeros((self.order, Z.shape[1]))
            full[self._bound._at] = Z
            Z = full
        return Z[self._kkt.n :]

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float).ravel()
        if rhs.shape[0] != self.order:
            raise ValueError(
                f"rhs has length {rhs.shape[0]}, expected {self.order}"
            )
        if self._bound is None:
            return self._solve_factored(rhs)
        return self._bound.solve(rhs, self._solve_factored)

    def _solve_factored(self, rhs):
        """One LU solve with the factored matrix, K_J or the reduced one."""
        # a bordered matrix has one more row per column of Z, with zero rhs;
        # the reduced matrix has K_J's null dimension
        padded = np.concatenate([rhs, np.zeros(self.order - self.rank)])
        return self._lu.solve(padded)[: rhs.size]


def factorize(kkt: ReducedKkt) -> KktFactorization:
    """Factor K_J once for reuse, by LU.

    The bound rows of J, rows of C with one nonzero, are substituted out
    first (:func:`_bound_rows`), and the reduced matrix of the free
    variables and the other rows is factored by the rules below.  K_J
    itself is factored instead when the bound rows fix fewer than
    ``_BOUND_SHARE`` (a tenth) of the variables, when two bound rows
    fix one variable, when they fix every variable, or when a null vector of
    the reduced matrix is not one of K_J (the reduced minimum-norm duals
    would then differ from K_J's).

    The engine is dense LAPACK LU of the matrix filled dense, factored in
    place, when at least a quarter of its entries are nonzero, by its
    ``nnz``, else SuperLU of its sparse form, and it serves the bordered
    matrix too.  A matrix that fails the pivot check is bordered:
    ``[[K, Z], [Z', 0]]`` is factored, with Z a null-space basis of K, and
    the leading block of its solution is the minimum-norm least-squares
    solution.  Z comes from one pivoted QR of the dense ``[A' C_J']`` on the
    dense engine (:func:`_dense_null_basis`) and from :func:`_null_basis` on
    the sparse one, and the sparse bordered matrix is filled from the
    problem blocks and Z by :func:`_saddle`; the factorization keeps Z, and
    with it the moves of a point's duals that ``solvers._feasible_duals``
    reads (``KktFactorization.null``).  Raises
    :class:`RankDeficiencyError` if Z is empty or the bordered matrix fails
    the check too: P is not positive definite on the null space of
    ``[A; C_J]``, or rows of ``[A; C_J]`` are so nearly dependent that the
    matrix fails the check while ``[A; C_J]`` has full numerical rank.
    """
    bound = _bound_rows(kkt)
    if bound is not None:
        mode, engine, lu, Z = _factor(bound.reduced)
        if bound.keeps_null_space(Z):
            return KktFactorization(kkt, mode, engine, lu, Z, bound)
    mode, engine, lu, Z = _factor(kkt)
    return KktFactorization(kkt, mode, engine, lu, Z)


def _factor(kkt):
    """``(mode, engine, lu, Z)`` of the matrix of ``kkt`` (see
    :func:`factorize`): its LU, and Z with no column, when it passes the
    pivot check, else the bordered matrix's LU and the null basis Z."""
    engine = DENSE if _dense_enough(kkt.nnz, kkt.order) else SPARSE
    lu = _checked_lu(kkt.toarray() if engine == DENSE else kkt.matrix, engine)
    if lu is not None:
        return DIRECT, engine, lu, np.zeros((kkt.order, 0))

    if engine == DENSE:
        K = kkt.toarray()
        Z = _dense_null_basis(K, kkt.n)
        bordered = np.zeros((kkt.order + Z.shape[1],) * 2, order="F")
        bordered[: kkt.order, : kkt.order] = K
        bordered[: kkt.order, kkt.order :] = Z
        bordered[kkt.order :, : kkt.order] = Z.T
    else:
        Z = _null_basis(kkt)
        bordered = _saddle(kkt.problem, kkt.rows, border=Z, gathers=kkt.gathers)
    lu = _checked_lu(bordered, engine) if Z.shape[1] else None
    if lu is None:
        raise RankDeficiencyError(
            "reduced KKT matrix is singular: P is not positive definite on "
            "null([A; C_J]), or rows of [A; C_J] are nearly dependent (K_J's "
            f"pivot ratio is below {_PIVOT_RTOL:g} while [A; C_J] has full "
            "numerical rank)"
        )
    return LEAST_SQUARES, engine, lu, Z


class _Csc(NamedTuple):
    """A block in compressed columns, gathered by index arithmetic: what
    :func:`_saddle` and :func:`_gathers` read of a scipy CSC array, without
    its construction checks."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple


class _Blocks:
    """The problem of a reduced matrix K_F (:class:`_BoundRows`): P is
    P_FF, the equality rows are ``[A_F; C_NF]`` and C has no row.

    ``lower`` holds the triplets (row, column, value) of K_F's first n
    columns, the row counted in K_F; ``P`` and ``A`` are compressed from
    them, as :class:`_Csc`, when first read, which only the sparse engine
    does.
    """

    def __init__(self, lower, n, p):
        self.lower, self.n, self.p, self.m = lower, n, p, 0
        empty = np.zeros(0, dtype=np.int64)
        self.C = _Csc(np.zeros(0), empty, np.zeros(n + 1, dtype=np.int64), (0, n))

    def _compressed(self, pick, first, rows):
        """The triplets ``pick`` as a block of ``rows`` rows starting at row
        ``first`` of K_F."""
        row, col, val = (a[pick] for a in self.lower)
        order = np.argsort(col, kind="stable")  # rows stay ascending in each column
        ptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(col, minlength=self.n), out=ptr[1:])
        return _Csc(val[order], row[order] - first, ptr, (rows, self.n))

    @cached_property
    def P(self):
        return self._compressed(self.lower[0] < self.n, 0, self.n)

    @cached_property
    def A(self):
        return self._compressed(self.lower[0] >= self.n, self.n, self.p)


class _FreeKkt(ReducedKkt):
    """K_F as a :class:`ReducedKkt` of :class:`_Blocks` with J empty, whose
    ``nnz`` is counted and dense form filled from ``problem.lower``."""

    @cached_property
    def nnz(self):
        row = self.problem.lower[0]
        return int(2 * row.size - np.count_nonzero(row < self.n))

    def toarray(self):
        K = np.zeros((self.order, self.order), order="F")
        row, col, val = self.problem.lower
        K[row, col] = val
        dual = row >= self.n
        K[col[dual], row[dual]] = val[dual]
        return K


def _bound_rows(kkt):
    """The bound rows of J substituted out of K_J (:class:`_BoundRows`), or
    None when they fix fewer than ``_BOUND_SHARE`` of the variables, when
    two fix one variable, or when they fix every variable: the reduced
    matrix would then be zero, and its null vectors K_J's only where
    ``[A; C_N]`` is zero.

    A bound row has one stored entry, above the rank cut of ``[A' C_J']``
    (:func:`_rank_cut`, from its column norms), which is the rule by which
    :func:`_null_basis` pivots on a column singleton.
    """
    problem, rows = kkt.problem, kkt.rows
    n, p, A, C = problem.n, problem.p, problem.A, problem.C
    single = kkt.row_counts == 1
    if np.count_nonzero(single) < _BOUND_SHARE * n:
        return None
    norms = np.concatenate([np.bincount(A.indices, A.data**2, minlength=p),
                            np.bincount(C.indices, C.data**2, minlength=problem.m)[rows]])
    cut = _rank_cut(np.sqrt(norms), (n, norms.size))
    at = np.full(problem.m, -1)
    at[rows] = np.arange(rows.size)
    at = at[C.indices]  # the position in J of each entry's row, -1 off J
    on = (at >= 0) & single[at] & (np.abs(C.data) > cut)
    col = np.repeat(np.arange(n), np.diff(C.indptr))
    var = col[on]  # ascending
    if var.size < _BOUND_SHARE * n or np.any(var[1:] == var[:-1]) or var.size == n:
        return None
    return _BoundRows(kkt, on, at, col, cut)


class _BoundRows:
    """K_J with the bound rows S of J substituted out.

    Bound row ``bound[k]`` of J (a position in J) has one nonzero,
    ``coef[k]``, on variable ``var[k]``, so it fixes that variable:
    ``z_B = r_S / c``.  With F the free variables and N the other rows of J,
    K_J permuted to (F, the rows of A, N; B; S) is

        [[K_F, E,    0   ],
         [E',  P_BB, C_S'],
         [0,   C_S,  0   ]]

    with ``C_S = diag(c)``, the reduced matrix ``K_F = [[P_FF, A_F', C_NF'],
    [A_F, 0, 0], [C_NF, 0, 0]]`` and ``E = [P_FB; A_B; C_NB]``.  ``reduced``
    is K_F (:class:`_FreeKkt`).  A solve takes z_B, solves
    ``K_F u = r_F - E z_B`` and recovers ``mu_S = (r_B - E' u - P_BB z_B) / c``.
    The coupling ``G = [E; P_BB]``, K_J's columns B on the rows
    (F, A, N; B), is kept as triplets and applied by ``bincount``.  K_F and G
    are gathered in one pass over the entries of K_J's first n columns, by
    index arithmetic as in :func:`_saddle`.

    ``det K_J = ±det(C_S)² det K_F``, so K_J is singular exactly when K_F is,
    and each null vector ``(0, y)`` of K_F gives one of K_J with
    ``mu_S = -(E' y) / c``.  When every ``E' y`` is zero, the null spaces
    agree off S, and so do the minimum-norm solutions
    (:meth:`keeps_null_space`).
    """

    def __init__(self, kkt, on, at, ccol, cut):
        """``on`` marks the entries of C in bound rows, ``at`` is each
        entry's position in J (-1 off J) and ``ccol`` its column."""
        problem, rows = kkt.problem, kkt.rows
        n, p, P, A, C = problem.n, problem.p, problem.P, problem.A, problem.C
        self.var, self.bound, self.coef = ccol[on], at[on], C.data[on]
        self._cut = cut
        self._mu = n + p + self.bound  # the bound rows' places in K_J
        fixed = np.zeros(n, dtype=bool)
        fixed[self.var] = True
        free = np.flatnonzero(~fixed)
        other = np.ones(rows.size, dtype=bool)
        other[self.bound] = False
        other = np.flatnonzero(other)
        nf, nb = free.size, self.var.size
        self._order = order = nf + p + other.size
        # the places in K_J of the reduced unknowns
        self._at = np.concatenate([free, n + np.arange(p), n + p + other])
        # each variable's place in (F, A, N; B), and each position in J's,
        # -1 for the bound rows and for the entries off J (at -1)
        zslot = np.empty(n, dtype=np.int64)
        zslot[free] = np.arange(nf)
        zslot[self.var] = order + np.arange(nb)
        jslot = np.full(rows.size + 1, -1)
        jslot[other] = nf + p + np.arange(other.size)

        # the entries of K_J's first n columns: P's, A's and C_J's
        row = np.concatenate([zslot[P.indices], nf + A.indices, jslot[at]])
        col = np.concatenate([np.repeat(zslot, np.diff(P.indptr)),
                              np.repeat(zslot, np.diff(A.indptr)), zslot[ccol]])
        val = np.concatenate([P.data, A.data, C.data])
        coupled = (col >= order) & (row >= 0)
        self._grow, self._gcol = row[coupled], col[coupled] - order
        self._gval = val[coupled]
        kept = (col < nf) & (row >= 0) & (row < order)
        lower = (row[kept], col[kept], val[kept])
        self.reduced = _FreeKkt(_Blocks(lower, nf, order - nf), np.zeros(0, dtype=np.int64))

    def _coupled(self, z_b):
        """``G z_B``."""
        return np.bincount(self._grow, self._gval * z_b[self._gcol],
                           minlength=self._order + self.var.size)

    def _coupled_t(self, v):
        """``G' v``."""
        return np.bincount(self._gcol, self._gval * v[self._grow], minlength=self.var.size)

    def keeps_null_space(self, Z):
        """Whether each column y of Z, a null basis of the reduced matrix, is
        also one of K_J: ``E' y`` at or below the rank cut times the largest
        entry of Z."""
        d = Z.shape[1]
        if not d:
            return True
        Z = Z.toarray() if sp.issparse(Z) else Z
        on = self._grow < self._order  # the entries of E
        # E' Z by one bincount, each entry of E meeting each column of Z
        leak = np.bincount((self._gcol[on, None] * d + np.arange(d)).ravel(),
                           (self._gval[on, None] * Z[self._grow[on]]).ravel())
        return np.abs(leak).max(initial=0.0) <= self._cut * np.abs(Z).max()

    def solve(self, rhs, solve_reduced):
        """The solution of K_J x = ``rhs`` by ``solve_reduced``, one solve
        with the factored reduced matrix."""
        z_b = rhs[self._mu] / self.coef
        u = solve_reduced(rhs[self._at] - self._coupled(z_b)[: self._order])
        x = np.empty(rhs.size)
        x[self._at] = u
        x[self.var] = z_b
        x[self._mu] = (rhs[self.var] - self._coupled_t(np.concatenate([u, z_b]))) / self.coef
        return x


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
    # False when a pivot is NaN or infinite too
    ok = diag.size and diag.min() > _PIVOT_RTOL * diag.max()
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
        # getrf swaps row i with row piv[i], in turn; laswp applies the swaps
        # to the row numbers once here
        rows = np.arange(matrix.shape[0], dtype=float)[:, None]
        self.perm = scipy.linalg.lapack.dlaswp(rows, piv, overwrite_a=1)[:, 0].astype(int)

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


def _symmetric_lu(matrix, positive, ordered=False):
    """SuperLU of the symmetric ``matrix`` as ``L D L'`` permuted
    symmetrically, or None unless it has exactly ``positive`` positive pivots.

    The ordering is minimum degree on the pattern of ``matrix + matrix'``,
    or none when ``matrix`` is ``ordered``: already permuted by such an
    ordering (:func:`_shifted_lu`) and structurally nonsingular, so neither
    the ordering nor the structural-rank guard of :func:`_lu_or_none` is
    computed.  Every pivot is diagonal (``diag_pivot_thresh=0``,
    ``SymmetricMode``).  The factor is refused when SuperLU took an
    off-diagonal pivot after all (``perm_r != perm_c``), or when the count
    of positive ``U_ii`` is not ``positive``: by Sylvester's law of inertia
    that count is the number of positive eigenvalues.  So a matrix of order
    n passes with ``positive = n`` exactly when it is positive definite, and
    a quasi-definite ``[[H, G'], [G, -D]]``, H of order n and D positive
    diagonal, exactly when ``H + G' D^-1 G`` is.  A quasi-definite matrix
    has such a factor under every symmetric ordering (Vanderbei, SIAM J.
    Optim. 1995), so no row pivoting is needed; this is the LDL' factor OSQP
    makes of its ADMM matrix.
    """
    options = dict(diag_pivot_thresh=0, options=dict(SymmetricMode=True))
    if not ordered:
        lu = _lu_or_none(matrix, permc_spec="MMD_AT_PLUS_A", **options)
    else:
        try:
            lu = splu(matrix, permc_spec="NATURAL", **options)
        except RuntimeError:
            lu = None
    if lu is None or not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return lu if np.count_nonzero(lu.U.diagonal() > 0) == positive else None


# the most sparsity patterns whose ordering _shifted_lu keeps
_PLAN_CAPACITY = 8
_plans: dict = {}
_plans_lock = threading.Lock()


def _shifted_lu(problem, shift, positive):
    """:func:`_symmetric_lu` of ``_saddle(problem, all rows, shift)``, with
    the work that depends only on the problem's sparsity pattern done once
    per pattern, as OSQP orders its KKT matrix once at setup (Stellato et
    al., Math. Prog. Comp. 2020).  The result has ``solve``.

    The first factorization of a pattern, a miss, is made as without a
    cache: :func:`_saddle`, then the minimum-degree factor behind the
    structural-rank guard.  When it passes, its ordering is kept, keyed by
    the shapes, the ``indptr`` and ``indices`` of P, A and C and the places
    of their stored zeros.  The next factorization of the pattern, the first
    hit, lays out the :class:`_ShiftedPlan` of the matrix permuted by that
    ordering and keeps it in the ordering's place.  Each hit fills the
    permuted matrix by the plan's gathers and factors it with no ordering
    and no guard: the shifted matrix stores its whole diagonal, so it is
    structurally nonsingular.  Its solves permute the right-hand side and
    the solution.  The permuted columns keep their rows in the original
    order, so SuperLU takes the same steps on them as in the miss's factor,
    and a hit returns bit for bit the solves of a miss: the cache cannot
    change a result.  A matrix with a zero on its diagonal, where the
    pattern would hang on the values, is factored as on a miss, and nothing
    is kept for it.  At most ``_PLAN_CAPACITY`` patterns are kept, the least
    recently used dropped first; the dict is guarded by a lock and its
    arrays are read-only, so threads may share them.
    """
    key = _pattern_key(problem)
    with _plans_lock:
        plan = _plans.pop(key, None)
        if plan is not None:
            _plans[key] = plan  # the most recently used last
    if isinstance(plan, np.ndarray):  # the ordering alone, kept by a miss
        plan = _ShiftedPlan.of(problem).permuted(plan)
        with _plans_lock:
            if key in _plans:
                _plans[key] = plan
    if plan is not None:
        data = plan.fill(problem, shift)
        if data.all():
            order = plan.indptr.size - 1
            matrix = sp.csc_matrix((data, plan.indices, plan.indptr), shape=(order, order))
            # the rows of a column are in the original order, which SuperLU
            # reads as they are; this keeps splu from sorting them
            matrix.has_canonical_format = True
            lu = _symmetric_lu(matrix, positive, ordered=True)
            return None if lu is None else _OrderedLu(lu, plan.perm, plan.inv)
    matrix = _saddle(problem, np.arange(problem.m), shift)
    lu = _symmetric_lu(matrix, positive)
    if lu is not None and matrix.diagonal().all():
        perm = np.array(lu.perm_c, dtype=np.intp)  # a copy: SuperLU owns its own
        perm.flags.writeable = False
        with _plans_lock:
            _plans[key] = perm
            while len(_plans) > _PLAN_CAPACITY:
                del _plans[next(iter(_plans))]
    return lu


def _pattern_key(problem):
    """The sparsity pattern of ``problem``'s P, A and C: their shapes, index
    arrays and the places of their stored zeros."""
    key = [problem.n, problem.p, problem.m]
    for M in (problem.P, problem.A, problem.C):
        key += [M.indptr.dtype.str, M.indptr.tobytes(), M.indices.tobytes(),
                np.flatnonzero(M.data == 0).tobytes()]
    return tuple(key)


class _Pattern(NamedTuple):
    """The blocks :func:`_saddle` reads of a problem."""

    n: int
    p: int
    m: int
    P: _Csc
    A: _Csc
    C: _Csc


class _ShiftedPlan(NamedTuple):
    """The CSC pattern of ``_saddle(problem, all rows, shift)`` for one
    sparsity pattern, and the gathers that fill it.

    With ``src = (P.data, A.data, C.data, shift)`` concatenated, entry k
    holds ``src[take[k]]``, plus ``P.data[diag_from]`` at ``diag_at``: the
    stored diagonal of P merged into the shift.  Stored zeros are not in
    the pattern.  ``perm`` and ``inv`` are None until the plan is permuted
    by an ordering (:meth:`permuted`).
    """

    take: np.ndarray
    diag_at: np.ndarray
    diag_from: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    perm: np.ndarray | None = None
    inv: np.ndarray | None = None

    @classmethod
    def of(cls, problem):
        """The plan of ``problem``'s pattern, in :func:`_saddle`'s layout,
        found by running :func:`_saddle` on tags: each entry of the blocks
        and of the shift is tagged by 1 + its place in ``src``, and P's
        diagonal by 0, so the merged diagonal carries the shift's tag."""
        n, p, m, P, A, C = problem.n, problem.p, problem.m, problem.P, problem.A, problem.C
        ends = np.cumsum([P.nnz, A.nnz, C.nnz])
        tags = np.arange(1.0, ends[-1] + n + p + m + 1)  # exact in floats
        col = np.repeat(np.arange(n), np.diff(P.indptr))
        tagged = _Pattern(
            n, p, m,
            _Csc(np.where(P.indices == col, 0.0, tags[: ends[0]]), P.indices, P.indptr, P.shape),
            _Csc(tags[ends[0] : ends[1]], A.indices, A.indptr, A.shape),
            _Csc(tags[ends[1] : ends[2]], C.indices, C.indptr, C.shape))
        mat = _saddle(tagged, np.arange(m), tags[ends[2] :])
        take = mat.data.astype(np.intp) - 1
        zero = np.concatenate([P.data, A.data, C.data, np.ones(n + p + m)]) == 0
        take, indices, indptr = _kept(take, mat.indices, mat.indptr, ~zero[take])
        # the shift's entry j < n takes P's diagonal entry j, where P stores it
        stored = np.full(n, -1)
        on = np.flatnonzero(P.indices == col)
        stored[col[on]] = on
        diag_at = np.flatnonzero((take >= ends[2]) & (take < ends[2] + n))
        diag_from = stored[take[diag_at] - ends[2]]
        return cls(take, diag_at[diag_from >= 0], diag_from[diag_from >= 0], indices, indptr)

    def fill(self, problem, shift):
        """The entries of the pattern for ``problem`` and ``shift``."""
        P = problem.P
        data = np.concatenate([P.data, problem.A.data, problem.C.data, shift])[self.take]
        data[self.diag_at] += P.data[self.diag_from]
        return data

    def permuted(self, perm):
        """The plan of the matrix permuted symmetrically by ``perm``, SuperLU's
        ``perm_c``: row and column i go to ``perm[i]``.  Column k is column
        ``inv[k]``, its rows relabelled and kept in their order; every array
        is read-only."""
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        at, _ = _entries(self.indptr, inv)
        place = np.empty(self.take.size, dtype=np.intp)
        place[at] = np.arange(at.size)
        indptr = np.zeros_like(self.indptr)
        np.cumsum(np.diff(self.indptr)[inv], out=indptr[1:])
        plan = _ShiftedPlan(self.take[at], place[self.diag_at], self.diag_from,
                            perm[self.indices[at]].astype(self.indices.dtype), indptr,
                            perm, inv)
        for array in plan:
            array.flags.writeable = False
        return plan


class _OrderedLu(NamedTuple):
    """The factor of a symmetrically permuted matrix (:func:`_shifted_lu`),
    solved in the unpermuted matrix's layout."""

    lu: object
    perm: np.ndarray
    inv: np.ndarray

    def solve(self, rhs):
        return self.lu.solve(rhs[self.inv])[self.perm]


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
    2. The rest, M[R, S], is dense, and one pivoted QR gives its null space
       (:func:`_qr_null`).
    3. The singleton entries of each null vector follow by back-substitution,
       last pass first: M[R, singletons] is zero, the pivots of one pass
       form a diagonal block and earlier passes sit above later ones.
    With no singletons, step 2 is a pivoted QR of all of M.
    """
    n, k = kkt.n, kkt.order - kkt.n
    by_col, by_row = kkt.gathers
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
    rest = _qr_null(rest, cut)
    Y = np.zeros((k, rest.shape[1]))
    Y[S] = rest
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


def _qr_null(M, cut):
    """Basis of the null space of the dense M, one column per null vector.

    Pivoted QR gives M[:, perm] = Q R, and the columns of [-R11^-1 R12; I],
    scattered by perm, span the null space, with R11 the leading block of
    the |R_ii| above ``cut``.  Entries of R11^-1 R12 at or below the cut are
    rounding noise; dropping them keeps the bordered matrix as sparse as the
    dependencies.
    """
    k = M.shape[1]
    perm, rank, W = np.arange(k), 0, np.zeros((0, k))
    if M.size:
        # BLAS trsm, without scipy.linalg's checks
        Rq, perm, _ = _pivoted_qr(M)
        rank = int((np.abs(np.diagonal(Rq)) > cut).sum())
        W = dtrsm(1.0, Rq[:rank, :rank], Rq[:rank, rank:])
        W[np.abs(W) <= cut] = 0.0
    Y = np.zeros((k, k - rank))
    Y[perm[:rank]] = -W
    Y[perm[rank:], np.arange(k - rank)] = 1.0
    return Y


def _pivoted_qr(M):
    """Column-pivoted QR of the nonempty dense M by LAPACK's geqp3 with its
    optimal workspace, as ``scipy.linalg.qr`` calls it, without that
    wrapper's checks: R and the reflectors packed in one Fortran-ordered
    array, the 0-based column permutation, and the reflectors' scales."""
    lwork = int(dgeqp3(M, lwork=-1)[3][0])
    packed, jpvt, tau = dgeqp3(M, lwork=lwork)[:3]
    return packed, jpvt - 1, tau


def _dense_null_basis(K, n):
    """Dense basis of {(0, y) : M y = 0} for the dense K_J ``K``, with
    M = [A' C_J'] its block K[:n, n:]: one pivoted QR of M (:func:`_qr_null`)
    at the rank cut of :func:`_null_basis`."""
    M = K[:n, n:]
    Y = _qr_null(M, _rank_cut(np.linalg.norm(M, axis=0), M.shape))
    return np.vstack([np.zeros((n, Y.shape[1])), Y])


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
