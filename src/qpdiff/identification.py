"""Active-set identification from a primal solution, refinement, and
non-differentiability diagnosis.

Identification is hard thresholding of the inequality residuals
r_j = (C z - d)_j at a tolerance eps: row j is active iff r_j >= -eps.
Refinement, which ``differentiable_solve`` runs only on a set whose point
is not certified, walks the remaining rows in order of
increasing slack and greedily accepts additions that shrink the residual
of the reduced KKT system with the primal point held fixed; one
orthogonalization prices every candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .kkt import DIRECT, LEAST_SQUARES, _rank_cut

__all__ = [
    "ActiveSet",
    "DifferentiabilityDiagnosis",
    "identify",
    "refine",
    "diagnose",
]

DEFAULT_EPS_ACTIVE = 1e-5


@dataclass(frozen=True)
class ActiveSet:
    """Sorted active inequality indices with the residuals that produced them."""

    indices: np.ndarray
    eps: float
    residuals: np.ndarray

    @property
    def size(self):
        return int(self.indices.size)


@dataclass(frozen=True)
class DifferentiabilityDiagnosis:
    """Signals that the derivative may not exist or the system may be singular.

    ``weakly_active`` lists rows that are tight but carry a (near) zero
    multiplier; ``dimension_ok`` is the necessary condition
    |J| + p <= n for unique duals.  Either failure downgrades the
    recommendation to a least-squares solve.
    """

    weakly_active: np.ndarray
    dimension_ok: bool
    recommended_mode: str


def identify(problem, z, eps_active: float = DEFAULT_EPS_ACTIVE) -> ActiveSet:
    """Threshold the inequality residuals at ``eps_active``."""
    # written so that NaN is rejected as well
    if not 0 < eps_active < np.inf:
        raise ValueError("eps_active must be finite and positive")
    z = np.asarray(z, dtype=float).ravel()
    if z.shape[0] != problem.n:
        raise ValueError(f"z has length {z.shape[0]}, expected {problem.n}")
    res = problem.C @ z - problem.d if problem.m else np.zeros(0)
    return ActiveSet(
        indices=np.flatnonzero(res >= -eps_active), eps=eps_active, residuals=res
    )


def diagnose(problem, point, active: ActiveSet, eps_active: float | None = None,
             ) -> DifferentiabilityDiagnosis:
    """Flag weakly active rows and check the dual-uniqueness dimension bound."""
    eps = active.eps if eps_active is None else eps_active
    mu = point.mu if point.mu is not None else np.zeros(problem.m)
    weakly = np.flatnonzero(
        (np.abs(active.residuals) <= eps) & (np.asarray(mu) <= eps)
    )
    dimension_ok = active.size + problem.p <= problem.n
    mode = DIRECT if dimension_ok and weakly.size == 0 else LEAST_SQUARES
    return DifferentiabilityDiagnosis(
        weakly_active=weakly, dimension_ok=dimension_ok, recommended_mode=mode
    )


def refine(problem, z, initial: ActiveSet) -> ActiveSet:
    """Greedy superset refinement of an identified active set.

    Remaining rows are tried in order of increasing slack; a row is accepted
    iff the Euclidean residual of the reduced KKT system, with z fixed and
    the duals fitted by least squares, strictly decreases.  Stops at the
    first non-improvement.

    One pass prices every candidate: a pivoted QR of ``[A' C_J']`` gives a
    basis of its range, the stationarity target ``-(Pz + q)`` and the
    candidate columns ``c_j'`` are projected off it, and one QR of the
    projected columns next to the projected target gives the least-squares
    residual after each prefix of candidates, as the sum of the trailing
    squares of the target's column of R.  A candidate whose projected
    column is dependent cannot lower that residual, so it ends the scan.
    Never raises: a non-finite point returns ``initial``.
    """
    res = initial.residuals
    inactive = np.setdiff1d(np.arange(problem.m), initial.indices)
    z = np.asarray(z, dtype=float).ravel()
    if not inactive.size or not np.isfinite(z).all():
        return initial
    # increasing slack = decreasing residual; ties by row index
    order = inactive[np.argsort(-res[inactive], kind="stable")]

    C = sp.csr_array(problem.C)
    r = C @ z - problem.d
    e = problem.A @ z - problem.b
    M = np.hstack([problem.A.toarray().T, C[initial.indices].toarray().T])
    Q, R0, _ = scipy.linalg.qr(M, mode="economic", pivoting=True, check_finite=False)
    d0 = np.abs(np.diagonal(R0))
    Q = Q[:, : int((d0 > _rank_cut(d0, M.shape)).sum())]
    # beyond n - rank candidates every projected column is dependent
    order = order[: problem.n - Q.shape[1]]
    V = np.column_stack([C[order].toarray().T, -(problem.P @ z + problem.q)])
    V -= Q @ (Q.T @ V)
    R = scipy.linalg.qr(V, mode="r", check_finite=False)[0]
    d1 = np.abs(np.diagonal(R)[: order.size])
    cut = _rank_cut(np.concatenate([d0, d1]), (problem.n, M.shape[1] + order.size))
    dependent = np.flatnonzero(d1 <= cut)
    k = dependent[0] if dependent.size else d1.size
    # squared stationarity residual and primal residual after i = 0..k candidates
    stat = np.append(np.cumsum(R[::-1, -1] ** 2)[::-1], 0.0)[: k + 1]
    rJ = r[initial.indices]
    prim = e @ e + rJ @ rJ + np.concatenate([[0.0], np.cumsum(r[order[:k]] ** 2)])
    metric = np.sqrt(stat + prim)
    stops = np.flatnonzero(~(metric[1:] < metric[:-1] * (1.0 - 1e-12)))
    accepted = stops[0] if stops.size else k
    if not accepted:
        return initial
    return ActiveSet(
        indices=np.sort(np.concatenate([initial.indices, order[:accepted]])),
        eps=initial.eps,
        residuals=res,
    )
