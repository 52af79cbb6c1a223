"""Active-set identification from a primal solution, and
non-differentiability diagnosis.

Identification is hard thresholding of the inequality residuals
r_j = (C z - d)_j at a tolerance eps: row j is active iff r_j >= -eps.
``differentiable_solve`` repairs a set whose point is not certified by
crossover rounds on the reduced KKT system (``qpdiff.solvers._crossover``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kkt import DIRECT, LEAST_SQUARES

__all__ = [
    "ActiveSet",
    "DifferentiabilityDiagnosis",
    "identify",
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
