"""Shared test utilities: small random problems and independent oracles."""

import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.optimize import LinearConstraint, minimize

import qpdiff
from qpdiff import QpProblem, differentiation, gen_simplex, solvers
from qpdiff.solvers import (
    SOLVED,
    ActiveSetBackend,
    AdmmBackend,
    PrimalDualPoint,
    SolverBackend,
    SolveSettings,
)


def child_env(**extra):
    """Environment for a child interpreter that imports this same qpdiff,
    installed or not, with ``extra`` variables set."""
    src = str(Path(qpdiff.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def count_matrix_builds(monkeypatch):
    """Patch ``differentiation._pattern_outer`` to record the shape of the
    problem block each matrix-gradient build reads; returns that list."""
    calls = []
    original = differentiation._pattern_outer

    def counting(mat, *args, **kwargs):
        calls.append(mat.shape)
        return original(mat, *args, **kwargs)

    monkeypatch.setattr(differentiation, "_pattern_outer", counting)
    return calls


def count_fresh_points(monkeypatch):
    """Patch ``differentiation._point_on`` to record each call; returns that
    list.  ``differentiable_solve`` calls it only to factor K_J afresh."""
    calls = []
    original = differentiation._point_on

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(differentiation, "_point_on", counting)
    return calls


def count_crossover_rounds(monkeypatch):
    """Patch ``solvers._point_on`` to record each call; returns that list.
    A backend without a finishing solve (one outside the package, or
    ``admm`` with ``polish`` off) never calls it, and neither does the sign
    rule ``solvers._feasible_duals``, so with such a backend
    ``differentiable_solve`` calls it once per crossover round."""
    calls = []
    original = solvers._point_on

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(solvers, "_point_on", counting)
    return calls


def solve_active_set(problem, settings=None):
    """The ``active_set`` backend's point, at default settings unless given."""
    return ActiveSetBackend().solve(problem, settings or SolveSettings())


def solve_admm(problem, settings=None):
    """The ``admm`` backend's point, at default settings unless given."""
    return AdmmBackend().solve(problem, settings or SolveSettings())


class PrimalOnlyBackend(SolverBackend):
    """Wrapper that strips duals from another backend's answer.

    Exercises the dual-recovery path exactly as a solver that only reports
    the primal would.
    """

    def __init__(self, inner: SolverBackend):
        self.inner = inner
        self.name = f"{inner.name}_primal_only"

    def solve(self, problem, settings):
        point = self.inner.solve(problem, settings)
        return replace(point, lam=None, mu=None, fact=None)


class TrustConstrBackend(SolverBackend):
    """scipy's ``trust-constr`` as a primal-only backend, at ``gtol = xtol = tol``.

    Its inequality path is a barrier (interior-point) method, so the active
    rows of its point come back slightly slack: a foreign solver whose
    point thresholding alone can misread.  ``settings`` are not read.
    """

    name = "trust_constr"

    def __init__(self, tol):
        self.tol = tol

    def solve(self, problem, settings):
        P, q = problem.P.toarray(), problem.q
        constraints = []
        if problem.p:
            constraints.append(LinearConstraint(problem.A.toarray(), problem.b, problem.b))
        if problem.m:
            constraints.append(LinearConstraint(problem.C.toarray(), -np.inf, problem.d))
        res = minimize(
            lambda z: 0.5 * z @ P @ z + q @ z, np.zeros(problem.n),
            jac=lambda z: P @ z + q, hess=lambda z: P, method="trust-constr",
            constraints=constraints,
            options=dict(gtol=self.tol, xtol=self.tol, maxiter=10000),
        )
        # 1: gradient tolerance met, 2: step tolerance met
        return PrimalDualPoint(z=res.x, status=SOLVED if res.status in (1, 2) else "failed")


def random_mixed_qp(n, m, p, seed, margin_lo=0.05, margin_hi=1.0):
    """Small dense strictly convex QP, feasible by construction.

    A random interior point z0 fixes b = A z0 and d = C z0 + U(lo, hi), so
    every instance is feasible with positive inequality slack at z0.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    W = rng.standard_normal((n, n))
    P = W.T @ W / n + 0.3 * np.eye(n)
    q = rng.standard_normal(n)
    z0 = rng.standard_normal(n)
    A = b = None
    if p:
        A = rng.standard_normal((p, n))
        b = A @ z0
    C = d = None
    if m:
        C = rng.standard_normal((m, n))
        d = C @ z0 + rng.uniform(margin_lo, margin_hi, m)
    return QpProblem(P, q, A, b, C, d)


def with_bound_rows(base, var, coef, d):
    """``base`` with the bound rows ``coef[k] * z[var[k]] <= d[k]`` stacked
    under C."""
    bounds = np.zeros((len(var), base.n))
    bounds[np.arange(len(var)), var] = coef
    return QpProblem(base.P, base.q, base.A, base.b,
                     sp.vstack([base.C, sp.csc_array(bounds)]),
                     np.concatenate([base.d, d]))


# gen_simplex(300, s) seeds whose bordered point on admm's J has a
# minimum-norm multiplier below -1e-6 that the null vector lifts, so the
# sign rule solves its QP
BORDERED_SIMPLEX_SEEDS = (1170859935, 120177724, 1785715776)


def bordered_simplex_point(seed, eps=1e-6):
    """``(problem, point)``: ``gen_simplex(300, seed)`` with its sum-to-one
    row stated twice, as the sparse-degenerate benchmark states it, and the
    point on the rows ``admm`` identifies, whose K_J is bordered."""
    base = gen_simplex(300, seed)[0]
    prob = QpProblem(base.P, base.q, sp.vstack([base.A, base.A]),
                     np.concatenate([base.b, base.b]), base.C, base.d)
    sol = qpdiff.differentiable_solve(prob, "admm", SolveSettings(eps_abs=eps))
    return prob, solvers._point_on(prob, sol.active.indices)


def dims_for_seed(seed):
    """Deterministic (n, m, p) draw with n in 4..10, m in 2..10, p in 0..2."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xD1))))
    n = int(rng.integers(4, 11))
    m = int(rng.integers(2, 11))
    p = int(rng.integers(0, min(3, n - 1)))
    return n, m, p


def dense_equality_qp(P, q, A, b):
    """``(z, lam)`` of min 0.5 z'Pz + q'z s.t. Az = b, by one dense solve of
    the saddle system, independent of the library."""
    q = np.asarray(q, dtype=float)
    A = np.asarray(A, dtype=float).reshape(-1, q.size)
    n, p = q.size, A.shape[0]
    K = np.block([[np.asarray(P, dtype=float), A.T], [A, np.zeros((p, p))]])
    sol = np.linalg.solve(K, np.concatenate([-q, np.asarray(b, dtype=float)]))
    return sol[:n], sol[n:]


def complementarity_margins(problem, point, active):
    """(min active multiplier, min inactive |residual|); inf when empty."""
    mu = np.asarray(point.mu)
    res = active.residuals
    idx = active.indices
    inactive = np.setdiff1d(np.arange(problem.m), idx)
    mu_min = float(mu[idx].min()) if idx.size else np.inf
    res_min = float(np.abs(res[inactive]).min()) if inactive.size else np.inf
    return mu_min, res_min


def parameter_pairing(bundle, direction):
    """<bundle, direction> over all six blocks; every block must be given."""
    return (
        bundle.grad_q @ direction.dq + bundle.grad_b @ direction.db
        + bundle.grad_d @ direction.dd
        + sum(
            grad.multiply(step).sum()
            for grad, step in (
                (bundle.grad_P, direction.dP),
                (bundle.grad_A, direction.dA),
                (bundle.grad_C, direction.dC),
            )
        )
    )


def simplex_projection_sort(x):
    """Closed-form projection onto the probability simplex (sort algorithm)."""
    x = np.asarray(x, dtype=float)
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, x.size + 1)
    rho = np.max(ind[u - css / ind > 0])
    theta = css[rho - 1] / rho
    return np.minimum(np.maximum(x - theta, 0.0), 1.0)
