"""Active-set identification from a primal solution, refinement, and
non-differentiability diagnosis.

Identification is hard thresholding of the inequality residuals
r_j = (C z - d)_j at a tolerance eps: row j is active iff r_j >= -eps.
The optional refinement walks the remaining rows in order of increasing
slack and greedily accepts additions that shrink the residual of the
reduced KKT system with the primal point held fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .kkt import DIRECT, LEAST_SQUARES

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

    def __contains__(self, j):
        return bool(np.isin(j, self.indices))


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
    if eps_active <= 0:
        raise ValueError("eps_active must be positive")
    z = np.asarray(z, dtype=float).ravel()
    if z.shape[0] != problem.n:
        raise ValueError(f"z has length {z.shape[0]}, expected {problem.n}")
    res = problem.C @ z - problem.d if problem.m else np.zeros(0)
    indices = np.flatnonzero(res >= -eps_active)
    return ActiveSet(indices=indices, eps=eps_active, residuals=res)


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
    the duals re-solved, strictly decreases.  Stops at the first
    non-improvement.  Never raises: numerical failures end the refinement
    with the current set.
    """
    z = np.asarray(z, dtype=float).ravel()
    res = initial.residuals
    current = list(initial.indices)
    remaining = [j for j in range(problem.m) if j not in set(current)]
    if not remaining:
        return initial
    # increasing slack = decreasing residual; ties by row index
    remaining.sort(key=lambda j: (-res[j], j))

    try:
        best = _system_residual(problem, z, current)
    except np.linalg.LinAlgError:
        return initial

    accepted = False
    for j in remaining:
        candidate = sorted(current + [j])
        try:
            metric = _system_residual(problem, z, candidate)
        except np.linalg.LinAlgError:
            break
        if metric < best * (1.0 - 1e-12):
            current = candidate
            best = metric
            accepted = True
        else:
            break

    if not accepted:
        return initial
    return ActiveSet(
        indices=np.asarray(current, dtype=int), eps=initial.eps, residuals=res
    )


def _system_residual(problem, z, indices):
    """|| K_J zeta - v_J ||_2 with z frozen and the duals fitted by dense lstsq."""
    idx = np.asarray(indices, dtype=int)
    CJ = sp.csr_array(problem.C)[idx]
    blocks = [block.toarray().T for block in (problem.A, CJ) if block.shape[0]]
    M = np.hstack(blocks) if blocks else np.zeros((problem.n, 0))
    target = -(problem.P @ z + problem.q)
    duals, *_ = np.linalg.lstsq(M, target, rcond=None)
    parts = [target - M @ duals, problem.A @ z - problem.b, CJ @ z - problem.d[idx]]
    return float(np.linalg.norm(np.concatenate(parts)))
