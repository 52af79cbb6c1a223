"""Independent ground-truth machinery for verifying solvers and derivatives.

Nothing here shares code with the paths it checks: the brute-force solver
enumerates active subsets and solves dense equality KKT systems, the
finite-difference Jacobian re-solves perturbed problems, and the full
implicit system is the unreduced, asymmetric sensitivity system including
the complementarity rows.  All of it is desk-scale by design.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, EnumerationLimitError, InfeasibleProblemError
from .identification import identify
from .metrics import residuals
from .solvers import SOLVED, PrimalDualPoint, SolveSettings, get_backend

__all__ = [
    "JacobianMatrix",
    "brute_force_solve",
    "finite_difference_jacobian",
    "full_implicit_matrix",
    "full_implicit_jacobian",
]

ENUMERATION_LIMIT = 20


@dataclass
class JacobianMatrix:
    """Dense Jacobian of (z, lam, mu) stacked rows by scalar parameters.

    ``flagged_columns`` lists parameters whose +/-h samples landed on
    different active sets; those columns straddle a non-differentiable point
    and are reported rather than silently returned.
    """

    matrix: np.ndarray
    flagged_columns: list = field(default_factory=list)
    h: float = 0.0


def brute_force_solve(problem) -> PrimalDualPoint:
    """Exact solve of a strictly convex QP by active-subset enumeration.

    Tries every subset S of inequality rows (smallest first), solving the
    equality KKT system with rows [A; C_S]; a subset is accepted when the
    remaining rows are feasible and mu_S >= -1e-10.  Requires m <= 20.
    """
    if problem.m > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"brute force limited to m <= {ENUMERATION_LIMIT}, got m = {problem.m}"
        )
    P = problem.P.toarray()
    q = problem.q
    A = problem.A.toarray()
    b = problem.b
    C = problem.C.toarray()
    d = problem.d
    n, p, m = problem.n, problem.p, problem.m

    # an infinite bound never binds, so it sets no scale
    scale = 1.0 + max(
        np.abs(q).max(initial=0.0), np.abs(b).max(initial=0.0),
        np.abs(d[np.isfinite(d)]).max(initial=0.0),
    )
    solve_tol = 1e-9 * scale
    feas_tol = 1e-9 * scale

    max_size = min(m, max(n - p, 0))
    for size in range(max_size + 1):
        for subset in itertools.combinations(range(m), size):
            S = np.asarray(subset, dtype=int)
            zeta = _equality_kkt(P, q, A, b, C[S], d[S], n, p, size)
            if zeta is None:
                continue
            z = zeta[:n]
            lam = zeta[n : n + p]
            mu_s = zeta[n + p :]
            if mu_s.size and mu_s.min() < -1e-10:
                continue
            inactive = np.setdiff1d(np.arange(m), S)
            if inactive.size and (C[inactive] @ z - d[inactive]).max() > feas_tol:
                continue
            mu = np.zeros(m)
            mu[S] = np.maximum(mu_s, 0.0)
            point = PrimalDualPoint(z=z, lam=lam, mu=mu, status=SOLVED)
            res = residuals(problem, point)
            point.r_p, point.r_d = res.r_p, res.r_d
            if max(res.r_p, res.r_d) > solve_tol * 10:
                continue
            return point
    raise InfeasibleProblemError("no active subset yields a KKT point")


def _equality_kkt(P, q, A, b, Cs, ds, n, p, k):
    K = np.zeros((n + p + k, n + p + k))
    K[:n, :n] = P
    if p:
        K[:n, n : n + p] = A.T
        K[n : n + p, :n] = A
    if k:
        K[:n, n + p :] = Cs.T
        K[n + p :, :n] = Cs
    rhs = np.concatenate([-q, b, ds])
    try:
        zeta = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        zeta, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    if not np.all(np.isfinite(zeta)):
        return None
    if np.abs(K @ zeta - rhs).max(initial=0.0) > 1e-8 * (1.0 + np.abs(rhs).max(initial=0.0)):
        return None
    return zeta


def finite_difference_jacobian(param_map, theta0, h: float = 1e-6,
                               backend: str = "active_set") -> JacobianMatrix:
    """Central-difference Jacobian of the primal-dual solution map.

    ``param_map`` takes a parameter vector and returns a QpProblem; each
    column k is (zeta(theta0 + h e_k) - zeta(theta0 - h e_k)) / 2h with the
    inner solves at eps_abs = 1e-10.  Columns whose two samples produce
    different active sets are flagged, not averaged away; the change
    detector thresholds residuals at h/8 so that order-h boundary crossings
    are visible above solver noise.
    """
    theta0 = np.asarray(theta0, dtype=float).ravel()
    solver = get_backend(backend)
    settings = SolveSettings(eps_abs=1e-10, max_iterations=200000)
    flag_eps = max(h / 8.0, 1e-8)

    def _solve(theta):
        prob = param_map(theta)
        point = solver.solve(prob, settings)
        if point.status != SOLVED:
            raise InfeasibleProblemError(
                f"finite differences: inner solve failed at theta={theta}"
            )
        zeta = np.concatenate([point.z, point.lam, point.mu])
        active = identify(prob, point.z, flag_eps).indices
        return zeta, active

    cols = []
    flagged = []
    for k in range(theta0.size):
        step = np.zeros(theta0.size)
        step[k] = h
        zeta_plus, act_plus = _solve(theta0 + step)
        zeta_minus, act_minus = _solve(theta0 - step)
        if not np.array_equal(act_plus, act_minus):
            flagged.append(k)
        cols.append((zeta_plus - zeta_minus) / (2.0 * h))
    matrix = np.column_stack(cols) if cols else np.zeros((0, 0))
    return JacobianMatrix(matrix=matrix, flagged_columns=flagged, h=h)


def full_implicit_matrix(problem, point) -> np.ndarray:
    """The dense unreduced sensitivity matrix at a primal-dual point.

    Block rows: [P, A', C'], [A, 0, 0], [D(mu) C, 0, D(Cz - d)].
    """
    n, p, m = problem.n, problem.p, problem.m
    z = np.asarray(point.z, dtype=float)
    mu = np.asarray(point.mu) if point.mu is not None else np.zeros(m)

    A = problem.A.toarray()
    C = problem.C.toarray()
    slack = C @ z - problem.d if m else np.zeros(0)

    K = np.zeros((n + p + m, n + p + m))
    K[:n, :n] = problem.P.toarray()
    if p:
        K[:n, n : n + p] = A.T
        K[n : n + p, :n] = A
    if m:
        K[:n, n + p :] = C.T
        K[n + p :, :n] = mu[:, None] * C
        K[n + p :, n + p :] = np.diag(slack)
    return K


def full_implicit_jacobian(problem, point, direction):
    """Directional derivative from the unreduced implicit sensitivity system.

    Builds the dense (n + p + m) system with complementarity rows
    [D(mu) C, 0, D(Cz - d)] and solves it by LU.  Requires strict
    complementarity; a singular system raises :class:`DegeneracyError`
    naming the weakly active rows.
    """
    n, p, m = problem.n, problem.p, problem.m
    z = np.asarray(point.z, dtype=float)
    lam = np.asarray(point.lam) if point.lam is not None else np.zeros(p)
    mu = np.asarray(point.mu) if point.mu is not None else np.zeros(m)

    K = full_implicit_matrix(problem, point)
    slack = problem.C.toarray() @ z - problem.d if m else np.zeros(0)

    top = np.zeros(n)
    mid = np.zeros(p)
    bot = np.zeros(m)
    if direction.dq is not None:
        top += np.asarray(direction.dq, dtype=float)
    if direction.dP is not None:
        top += np.asarray(
            direction.dP.toarray() if hasattr(direction.dP, "toarray") else direction.dP
        ) @ z
    if direction.dA is not None and p:
        dA = np.asarray(
            direction.dA.toarray() if hasattr(direction.dA, "toarray") else direction.dA
        )
        top += dA.T @ lam
        mid += dA @ z
    if direction.db is not None and p:
        mid -= np.asarray(direction.db, dtype=float)
    if direction.dC is not None and m:
        dC = np.asarray(
            direction.dC.toarray() if hasattr(direction.dC, "toarray") else direction.dC
        )
        top += dC.T @ mu
        bot += mu * (dC @ z)
    if direction.dd is not None and m:
        bot -= mu * np.asarray(direction.dd, dtype=float)

    rhs = -np.concatenate([top, mid, bot])
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError as exc:
        weakly = np.flatnonzero((np.abs(slack) <= 1e-8) & (np.abs(mu) <= 1e-8))
        raise DegeneracyError(
            f"implicit sensitivity system is singular; weakly active rows: "
            f"{weakly.tolist()}"
        ) from exc
    return sol[:n], sol[n : n + p], sol[n + p :]
