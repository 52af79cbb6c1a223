"""Accuracy metrics for a primal-dual point of a QP.

Residuals follow the usual infinity-norm conventions:

    r_p = max(||A z - b||_inf, max(0, max_j (C z - d)_j))
    r_d = ||P z + q + A' lam + C' mu||_inf
    r_g = |z' P z + q' z + b' lam + d' mu|

For a strictly convex QP a zero duality gap r_g is necessary and sufficient
for optimality, so r_g is the headline accuracy number in benchmark output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Residuals", "residuals", "primal_dual_residuals"]


@dataclass(frozen=True)
class Residuals:
    r_p: float
    r_d: float
    r_g: float


def residuals(problem, point) -> Residuals:
    """Compute (r_p, r_d, r_g) for a point carrying primal and dual values.

    Duals must be present for the nonempty constraint blocks.
    """
    z = np.asarray(point.z, dtype=float)
    lam = _require_dual(point.lam, problem.p, "lambda")
    mu = _require_dual(point.mu, problem.m, "mu")

    r_p, r_d = primal_dual_residuals(problem, z, lam, mu)

    gap = float(z @ (problem.P @ z)) + float(problem.q @ z)
    if problem.p:
        gap += float(problem.b @ lam)
    if problem.m:
        held = mu != 0.0  # inf * 0 on an infinite bound would read NaN
        gap += float(problem.d[held] @ mu[held])
    r_g = abs(gap)

    return Residuals(r_p, r_d, r_g)


def primal_dual_residuals(problem, z, lam, mu) -> tuple[float, float]:
    """``(r_p, r_d)`` alone, for callers that do not need the duality gap."""
    return _primal_dual(problem, (problem.P, problem.A, problem.C), z, lam, mu)


def _primal_dual(problem, operators, z, lam, mu):
    """``(r_p, r_d)`` with every product taken through ``operators = (P, A,
    C)``: the problem's own blocks, or dense copies of them.  A NaN in
    either residual propagates."""
    P, A, C = operators
    r_p = 0.0
    stat = P @ z + problem.q
    if problem.p:
        r_p = np.abs(A @ z - problem.b).max()
        stat = stat + A.T @ lam
    if problem.m:
        r_p = np.maximum(r_p, (C @ z - problem.d).max())
        stat = stat + C.T @ mu
    return float(np.maximum(r_p, 0.0)), float(np.abs(stat).max())


def _require_dual(val, length, name):
    if length == 0:
        return np.zeros(0)
    if val is None:
        raise ValueError(f"residuals: dual vector {name} is required but absent")
    arr = np.asarray(val, dtype=float).ravel()
    if arr.shape[0] != length:
        raise ValueError(f"residuals: {name} has length {arr.shape[0]}, expected {length}")
    return arr
