"""Accuracy metrics for a primal-dual point of a QP.

:func:`residuals` is the one public residual function.  Its residuals
follow the usual infinity-norm conventions:

    r_p = max(||A z - b||_inf, max(0, max_j (C z - d)_j))
    r_d = ||P z + q + A' lam + C' mu||_inf
    r_g = |z' P z + q' z + b' lam + d' mu|

For a strictly convex QP a zero duality gap r_g is necessary and sufficient
for optimality, so r_g is the headline accuracy number in benchmark output.

``_primal_dual`` is the kernel behind r_p and r_d; callers that need no gap
(the backends, ``differentiable_solve``) call it directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Residuals", "residuals"]


@dataclass(frozen=True)
class Residuals:
    r_p: float
    r_d: float
    r_g: float


def residuals(problem, point) -> Residuals:
    """(r_p, r_d, r_g) of a point carrying primal and dual values, with
    every product taken with the problem's own blocks.

    Duals must be present for the nonempty constraint blocks (else
    :class:`ValueError`).  A NaN in z, lam or mu propagates.
    """
    z = np.asarray(point.z, dtype=float)
    lam = _require_dual(point.lam, problem.p, "lambda")
    mu = _require_dual(point.mu, problem.m, "mu")

    r_p, r_d = _primal_dual(problem, _blocks(problem), z, lam, mu)

    gap = float(z @ (problem.P @ z)) + float(problem.q @ z)
    if problem.p:
        gap += float(problem.b @ lam)
    if problem.m:
        held = mu != 0.0  # inf * 0 on an infinite bound would read NaN
        gap += float(problem.d[held] @ mu[held])
    r_g = abs(gap)

    return Residuals(r_p, r_d, r_g)


def _blocks(problem):
    """The operators ``(P, A, C, A', C')`` of :func:`_primal_dual` on the
    problem's own blocks; the transposes are views."""
    A, C = problem.A, problem.C
    return problem.P, A, C, A.T, C.T


def _primal_dual(problem, operators, z, lam, mu):
    """``(r_p, r_d)`` with every product taken through ``operators = (P, A,
    C, A', C')``: the problem's own blocks, or dense copies of them, with
    transposes formed once by a caller that checks many points.  A NaN in
    either residual propagates."""
    P, A, C, At, Ct = operators
    r_p = 0.0
    stat = P @ z + problem.q
    if problem.p:
        r_p = np.abs(A @ z - problem.b).max()
        stat = stat + At @ lam
    if problem.m:
        r_p = np.maximum(r_p, (C @ z - problem.d).max())
        stat = stat + Ct @ mu
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
