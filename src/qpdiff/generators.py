"""Reproducible problem generators for the benchmark families.

All generators are pure functions of their size arguments and a seed.  The
random stream is PCG64 seeded through ``numpy.random.SeedSequence(seed)``;
where a generator needs several independent components it spawns child
sequences from that root in a fixed documented order, so adding draws to one
component never perturbs the others.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .problem import QpProblem

__all__ = [
    "gen_simplex",
    "gen_chain",
    "gen_random_sparse",
    "gen_random_dense",
    "gen_two_param_family",
    "TWO_PARAM_BOX",
    "TWO_PARAM_BREAKS",
]


def _rng(seed_sequence):
    return np.random.Generator(np.random.PCG64(seed_sequence))


def gen_simplex(n: int, seed: int) -> tuple[QpProblem, np.ndarray]:
    """Projection of a standard-normal point onto the probability simplex.

    minimize ||x - z||^2  s.t.  sum(z) = 1,  0 <= z <= 1, encoded as
    P = 2I, q = -2x, one equality row of ones, and stacked bound rows
    [-I; I] with d = [0; 1].  Returns the problem and the point x.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    x = _rng(np.random.SeedSequence(seed)).standard_normal(n)
    P = 2.0 * sp.identity(n, format="csc")
    A = sp.csc_array(np.ones((1, n)))
    C = sp.vstack([-sp.identity(n, format="csc"), sp.identity(n, format="csc")],
                  format="csc")
    d = np.concatenate([np.zeros(n), np.ones(n)])
    return QpProblem(P, -2.0 * x, A, np.array([1.0]), C, d), x


def gen_chain(m_points: int, dim: int, seed: int) -> tuple[QpProblem, np.ndarray]:
    """Projection of a point cloud onto chains with infinity-norm links.

    minimize sum_j ||x_j - z_j||^2  s.t.  ||z_j - z_{j+1}||_inf <= 1, with
    x_j drawn from N(0, 100 I_dim).  The link constraints unroll into
    2 * dim * (m_points - 1) sparse rows; there are no equalities.
    Returns the problem and the (m_points, dim) point array.
    """
    if m_points < 2:
        raise ValueError("m_points must be at least 2")
    x = _rng(np.random.SeedSequence(seed)).standard_normal((m_points, dim)) * 10.0
    n = m_points * dim
    links = m_points - 1

    left = (np.arange(links)[:, None] * dim + np.arange(dim)[None, :]).ravel()
    right = left + dim
    rows_pm = np.arange(links * dim)
    rows = np.empty(4 * links * dim, dtype=int)
    cols = np.empty_like(rows)
    vals = np.empty(rows.shape[0])
    # row 2r:  z_left - z_right <= 1;  row 2r+1:  z_right - z_left <= 1
    rows[0::4], cols[0::4], vals[0::4] = 2 * rows_pm, left, 1.0
    rows[1::4], cols[1::4], vals[1::4] = 2 * rows_pm, right, -1.0
    rows[2::4], cols[2::4], vals[2::4] = 2 * rows_pm + 1, left, -1.0
    rows[3::4], cols[3::4], vals[3::4] = 2 * rows_pm + 1, right, 1.0
    C = sp.csc_array(sp.coo_array((vals, (rows, cols)), shape=(2 * links * dim, n)))

    P = 2.0 * sp.identity(n, format="csc")
    return QpProblem(P, -2.0 * x.ravel(), C=C, d=np.ones(2 * links * dim)), x


def gen_random_sparse(n: int, seed: int) -> QpProblem:
    """Random sparse family: squared k-NN-graph Laplacian curvature.

    P = L'L + 1e-4 I where L is the combinatorial Laplacian of the 3-nearest
    neighbor graph on n seeded uniform points in the unit square
    (symmetrized).  A (n/2 rows) and C (n rows) have standard-normal entries
    at density 5e-4 with empty rows repaired by one extra entry, and the
    right-hand sides make z = 1 feasible: b = A 1, d = C 1 + 1.

    Child streams, in order: graph points, A entries, C entries; q is drawn
    from the root stream.
    """
    if n < 10:
        raise ValueError("n must be at least 10")
    root = np.random.SeedSequence(seed)
    ss_points, ss_a, ss_c = root.spawn(3)

    pts = _rng(ss_points).random((n, 2))
    _, neighbors = cKDTree(pts).query(pts, k=4)
    rows = np.repeat(np.arange(n), 3)
    cols = neighbors[:, 1:].ravel()
    W = sp.coo_array((np.ones(3 * n), (rows, cols)), shape=(n, n))
    W = ((W + W.T) > 0).astype(float)
    L = sp.diags_array(np.asarray(W.sum(axis=1)).ravel()) - W
    P = sp.csc_array(L.T @ L + 1e-4 * sp.identity(n))

    p, m = n // 2, n
    A = _sparse_gaussian(p, n, _rng(ss_a))
    C = _sparse_gaussian(m, n, _rng(ss_c))
    ones = np.ones(n)
    return QpProblem(P, _rng(root).standard_normal(n), A, A @ ones, C, C @ ones + 1.0)


def _sparse_gaussian(rows, cols, rng, density=5e-4):
    nnz = max(1, int(round(density * rows * cols)))
    ri = rng.integers(0, rows, nnz)
    ci = rng.integers(0, cols, nnz)
    vals = rng.standard_normal(nnz)
    mat = sp.csc_array(sp.coo_array((vals, (ri, ci)), shape=(rows, cols)))
    empty = np.flatnonzero(np.diff(sp.csr_array(mat).indptr) == 0)
    if empty.size:
        # distinct repair columns keep the repaired rows linearly independent,
        # which matters at small sizes where most rows are repairs
        repair_cols = rng.permutation(cols)[: empty.size]
        repair = sp.coo_array(
            (rng.standard_normal(empty.size), (empty, repair_cols)),
            shape=(rows, cols),
        )
        mat = sp.csc_array(mat + repair)
    return mat


def gen_random_dense(n: int, seed: int) -> QpProblem:
    """Random dense family: P = Q'Q + 1e-4 I with uniform(0, 1) entries.

    A (n/2 rows) and C (n rows) are dense uniform(0, 1); right-hand sides
    make z = 1 feasible as in the sparse family.

    Child streams, in order: Q, q, A, C.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    root = np.random.SeedSequence(seed)
    ss_q_mat, ss_q_vec, ss_a, ss_c = root.spawn(4)

    Q = _rng(ss_q_mat).random((n, n))
    P = Q.T @ Q + 1e-4 * np.eye(n)
    q = _rng(ss_q_vec).standard_normal(n)
    p, m = n // 2, n
    A = _rng(ss_a).random((p, n))
    C = _rng(ss_c).random((m, n))
    ones = np.ones(n)
    return QpProblem(P, q, A, A @ ones, C, C @ ones + 1.0)


# Fixed two-parameter family: a 2-variable QP with four inequality rows whose
# active set partitions the (theta1, theta2) box into four regions split at
# theta1 = 1 and theta2 = 0.5.  Rows 2 and 3 stay inactive everywhere in the
# box.
TWO_PARAM_BOX = ((0.0, 2.0), (-0.5, 1.5))
TWO_PARAM_BREAKS = (1.0, 0.5)


def gen_two_param_family(theta1: float, theta2: float) -> QpProblem:
    """Fixed 2-variable QP whose right-hand side is affine in (theta1, theta2).

    minimize 0.5 ||z||^2 - z_1 - 0.5 z_2  s.t.
    z_1 <= theta1, z_2 <= theta2, -z_1 <= 2, -z_2 <= 2.  The unconstrained
    optimum is (1, 0.5), so row 0 is active iff theta1 < 1 and row 1 iff
    theta2 < 0.5, giving four active-set regions over ``TWO_PARAM_BOX``.
    """
    P = np.eye(2)
    q = np.array([-1.0, -0.5])
    C = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    d = np.array([float(theta1), float(theta2), 2.0, 2.0])
    return QpProblem(P, q, C=C, d=d)
