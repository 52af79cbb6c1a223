"""Reference QP solver backends and the backend registry.

Three built-in backends cover the spectrum a differentiation layer has to
tolerate: an exact dense dual active-set method, a first-order sparse
operator-splitting (ADMM) method, and an equality-only direct solve.  All
backends are stateless per call; the registry guards concurrent registration
with a lock.
"""

from __future__ import annotations

import bisect
import threading
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import (
    cho_factor,
    cholesky,
    qr,
    qr_delete,
    qr_insert,
    solve_triangular,
)
from scipy.linalg.lapack import dpotrs
from scipy.sparse.linalg import splu

from .errors import DuplicateBackendError, RankDeficiencyError, UnknownBackendError
from .kkt import (
    DIRECT,
    KktFactorization,
    _dense_enough,
    _rank_cut,
    _saddle,
    assemble_reduced_kkt,
    factorize,
    solve_on,
)
from .metrics import _blocks, _primal_dual
from .problem import QpProblem, _is_int

__all__ = [
    "SOLVED",
    "MAX_ITER",
    "FAILED",
    "SolveSettings",
    "PrimalDualPoint",
    "SolverBackend",
    "EqualityBackend",
    "ActiveSetBackend",
    "AdmmBackend",
    "register_backend",
    "get_backend",
    "list_backends",
]

SOLVED = "solved"
MAX_ITER = "max_iter"
FAILED = "failed"

# seconds; the per-solve wall-clock limit of the command line and the bench
DEFAULT_TIME_LIMIT = 60.0

# AdmmBackend: the proximal shift on z, the over-relaxation factor, the
# penalty on inequality rows and its multiple on equality rows, and the
# iterations between residual checks after the first five
ADMM_SIGMA = 1e-6
ADMM_RELAXATION = 1.6
ADMM_RHO = 10.0
ADMM_RHO_EQ_SCALE = 1e3
ADMM_CHECK_INTERVAL = 10


@dataclass
class SolveSettings:
    """Solver tolerances shared by all backends.

    ``eps_abs`` bounds the achieved primal and dual residuals in infinity
    norm.  The exact backends reach working precision or fail: ``active_set``
    fails when a residual exceeds it, and ``equality`` fails when
    :func:`certify` rejects its point at ``max(eps_abs, 1e-9)``.
    ``time_limit`` is a positive wall-clock bound in seconds on the
    iterative backends; None means no limit.
    """

    eps_abs: float = 1e-6
    max_iterations: int = 20000
    warm_start: "PrimalDualPoint | None" = None
    time_limit: float | None = None

    def __post_init__(self):
        # written so that NaN is rejected as well
        if not 0 < self.eps_abs < np.inf:
            raise ValueError("eps_abs must be finite and positive")
        # NaN would mean 0 ADMM iterations, 2.5 no integer cap and True 1
        if not _is_int(self.max_iterations) or self.max_iterations < 1:
            raise ValueError("max_iterations must be an integer, at least 1")
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time_limit must be positive, or None for no limit")


@dataclass
class PrimalDualPoint:
    """Primal solution with optional duals and achieved residuals.

    ``fact`` is the factorization of the exact reduced KKT matrix K_J
    whose solve is the point, when the backend made one (equality; active
    set; ADMM, when its finishing solve is accepted).  Its ``rows`` are the
    rows J that solve held tight: the active-set backend's working rows, or
    the rows of the ADMM finishing solve.  ``differentiable_solve`` reuses
    it, and the point too when it has duals, when it identifies the same rows.
    """

    z: np.ndarray
    lam: np.ndarray | None = None
    mu: np.ndarray | None = None
    status: str = SOLVED
    r_p: float = np.nan
    r_d: float = np.nan
    iterations: int = 0
    fact: KktFactorization | None = None

    @property
    def has_duals(self):
        return self.lam is not None and self.mu is not None


class SolverBackend:
    """Interface for pluggable QP solvers (the black box of the forward pass)."""

    name = "abstract"

    def solve(self, problem: QpProblem, settings: SolveSettings) -> PrimalDualPoint:
        raise NotImplementedError


# --- equality-only backend -----------------------------------------------------


class EqualityBackend(SolverBackend):
    """Direct solve that ignores inequalities, valid when none are active.

    The point on no inequality row: one factorization of K_J with J empty,
    which the point carries as ``fact`` for ``differentiable_solve`` to
    reuse.  A singular K_J (dependent equality rows, or P singular on
    null(A)) raises :class:`RankDeficiencyError`.  If the equality-relaxed
    optimum happens to satisfy C z <= d it is the true optimum with mu = 0;
    otherwise, or when the point is not finite, :func:`certify` rejects it
    and the solve fails.  NaN or infinite data, other than a +inf bound,
    fails before anything is factored.
    """

    name = "equality"

    def solve(self, problem, settings):
        if not _finite_data(problem):
            return _failed(problem)
        point = _point_on(problem, np.zeros(0, dtype=int))
        if point.fact.mode != DIRECT:
            raise RankDeficiencyError("equality KKT matrix is singular")
        point.r_p, point.r_d = _primal_dual(problem, _blocks(problem), point.z, point.lam, point.mu)
        if certify(problem, point, max(settings.eps_abs, 1e-9)):
            point.status = FAILED
        return point


# --- dense dual active-set method --------------------------------------------


class ActiveSetBackend(SolverBackend):
    """Dual active-set method (Goldfarb & Idnani, 1983) for strictly convex
    dense QPs.

    Starts at the equality-constrained minimizer, which is dual feasible, and
    never needs a primal feasible point.  Each outer step takes the most
    violated inequality j (lowest index on ties) and raises its multiplier
    along the direction of the equality-constrained step on the working
    rows, until row j is tight and joins them; a working multiplier that
    reaches zero first drops its row.  If c_j lies in the span of the working
    rows the step is purely dual, and when nothing bounds it the inequalities
    are infeasible.  The working rows stay linearly independent by
    construction.

    Nothing is factored inside the loop.  ``L = chol(P + A'A)`` and a full
    QR of ``L^-1 [A' C_W']`` are formed once; a step costs two triangular
    solves and a few products with Q, and a row that joins or leaves the
    working set updates the QR by one column.  P + A'A equals P on null(A),
    where every step moves, so the domain is P positive definite on null(A).
    The QR of ``L^-1 A'`` is column pivoted and keeps only the equality rows
    whose ``|R_ii|`` clear the rank cut, so dependent equality rows drop out
    of the loop.  The start comes from the same factors, by two triangular
    solves and two products with Q.  The answer is :func:`_finish` on the
    final working rows, as in ADMM, with residuals from the loop's dense
    blocks: one reduced-KKT solve on all equality rows and those rows, with
    the minimum-norm ``lam`` when the equality rows are dependent; it fails
    when they are inconsistent or ``_finish`` rejects the point.  The point
    carries that factorization as ``fact``, whose ``rows`` are the final
    working rows; ``differentiable_solve`` reuses both.  NaN or infinite
    data, other than a +inf bound, fails before anything is factored.
    """

    name = "active_set"

    def solve(self, problem, settings):
        t_start = time.perf_counter()
        if not _finite_data(problem):
            return _failed(problem)
        P = problem.P.toarray()
        q = problem.q
        A = problem.A.toarray()
        b = problem.b
        C = problem.C.toarray()
        d = problem.d
        n, p, m = problem.n, problem.p, problem.m

        try:
            # every step stays in null(A), where P + A'A equals P; it is
            # positive definite exactly when P is positive definite there
            L = cholesky(P + A.T @ A, lower=True)
        except np.linalg.LinAlgError:
            return _failed(problem)
        # full QR of L^-1 [A' C_W'], one column per equality row the pivoted
        # QR keeps (the rp above the rank cut) and per working row
        Q, R, piv = qr(solve_triangular(L, A.T, lower=True), pivoting=True)
        diag = np.abs(np.diagonal(R))
        rp = int((diag > _rank_cut(diag, (n, p))).sum())
        R = R[:, :rp]
        # the equality minimizer from the same factors: with u = L'x it
        # minimizes 0.5|u|^2 + (L^-1 q)'u subject to R11'Q1'u = b[piv[:rp]]
        g = Q.T @ solve_triangular(L, q, lower=True)
        g[:rp] = -solve_triangular(R[:rp, :rp], b[piv[:rp]], trans="T")
        x = -solve_triangular(L, Q @ g, lower=True, trans="T")
        LinvC = solve_triangular(L, C.T, lower=True).T  # row j is L^-1 c_j

        # an infinite bound never binds, so it sets no scale
        feas_tol = 1e-9 * (1.0 + float(np.abs(d[np.isfinite(d)]).max(initial=0.0)))
        work: list[int] = []  # working inequality rows, ascending
        y = np.zeros(m)  # multipliers of the working rows and of row j
        j = None  # the violated row being added
        max_iters = min(settings.max_iterations, 10 * (n + m) + 50)
        status = MAX_ITER
        it = 0
        while True:
            if j is None:
                viol = C @ x - d
                viol[work] = -np.inf
                if viol.max(initial=-np.inf) <= feas_tol:
                    status = SOLVED
                    break
                j = int(np.argmax(viol))
                y[j] = 0.0
            if it >= max_iters or (
                settings.time_limit is not None
                and time.perf_counter() - t_start > settings.time_limit
            ):
                break
            it += 1
            # min 0.5 dx'P dx + c_j'dx s.t. [A; C_W] dx = 0, by the range-space
            # method: dx = -L^-T Q2 w2 and the multipliers -R11^-1 w1
            k = rp + len(work)
            w = Q.T @ LinvC[j]
            dx = -solve_triangular(
                L, Q[:, k:] @ w[k:], lower=True, trans="T", check_finite=False
            )
            r = -solve_triangular(R[:k, :k], w[:k], check_finite=False)[rp:]
            # dual step length: the first working multiplier to reach zero
            ratios = np.full(len(work), np.inf)
            shrinking = r < 0
            ratios[shrinking] = np.maximum(-y[work][shrinking] / r[shrinking], 0.0)
            t = ratios.min(initial=np.inf)
            cdx = C[j] @ dx  # = -dx' P dx <= 0
            if -cdx <= 1e-12 * np.abs(C[j]).max() * np.abs(dx).max(initial=0.0):
                # c_j is in the span of the working rows: a pure dual step
                if not np.isfinite(t):
                    status = FAILED  # infeasible: the dual ray is unbounded
                    break
                add = False
            else:
                t_full = (C[j] @ x - d[j]) / -cdx
                add = t_full <= t
                t = min(t, t_full)
                x = x + t * dx
            y[work] += t * r
            y[j] += t
            if add:
                at = bisect.bisect(work, j)
                Q, R = qr_insert(Q, R, LinvC[j], rp + at, "col", check_finite=False)
                work.insert(at, j)
                j = None
            else:  # lowest index on ties
                at = int(np.argmin(ratios))
                Q, R = qr_delete(Q, R, rp + at, 1, "col", check_finite=False)
                del work[at]

        # the answer, through the factorization differentiation reuses
        point = _finish(problem, (P, A, C, A.T, C.T), np.asarray(work, dtype=int))
        if point is None:
            return _failed(problem)
        point.status, point.iterations = status, it
        if status == SOLVED and not _residual(point) <= settings.eps_abs:
            point.status = FAILED
        return point


# --- sparse operator-splitting method -----------------------------------------


class AdmmBackend(SolverBackend):
    """Operator-splitting (ADMM) solver on the stacked constraint form.

    The iteration follows the standard splitting for l <= Gz <= u, G = [A; C],
    with a single factorization made before the loop.  When the regularized
    KKT matrix (the reduced KKT matrix on every row plus a diagonal shift)
    would have at least a quarter of its entries nonzero, it is not built:
    its constraint block is eliminated, and the n x n matrix
    ``P + sigma I + G' diag(rho) G`` is factored by Cholesky; if that
    fails, P is not positive semidefinite and the solve returns ``failed``.
    On that dense path every residual check and the residuals of a
    finishing point take their products with the dense P and G formed for
    the factorization, not with the sparse blocks.  Otherwise the
    regularized KKT matrix is filled in CSC form straight from the problem
    blocks by ``kkt._saddle``, with the shift merged into P's diagonal, and
    factored by sparse LU; its residual checks use the sparse blocks, with
    A' and C' formed once per solve.  The penalty is fixed
    (``ADMM_RHO``, times ``ADMM_RHO_EQ_SCALE`` on equality rows) and
    diagonal data rescaling is off, so runs are deterministic given the
    settings.

    The solve ends on the active set.  From iteration 10 on, each residual
    check guesses J from the duals, as OSQP's polish does: the inequality
    rows whose slack ``d - zs`` in the split variable is below their
    multiplier ``y``.  When J is the same as at the previous check, one
    exact reduced-KKT solve on J is tried through the same layer
    differentiation uses.  It is accepted, and the loop stops, when the
    result is finite, its multipliers on J are at least -1e-9, and both
    residuals pass ``eps_abs``.  After a rejected try at iteration k the
    next comes no earlier than iteration ``int(1.5 k)``, so a set that
    never finishes costs few factorizations.  When the iteration converges
    on its own, the same solve runs once on the final guess and is kept
    only when it also lowers the larger of the two residuals.  Both are
    :func:`_finish`, as in the active-set backend, and an accepted point is
    returned as it is.  ``polish = False`` turns the finishing solve off;
    it is the backend's one settable attribute.
    NaN or infinite data, other than a +inf bound, fails before anything
    is factored.
    """

    name = "admm"

    polish = True

    def solve(self, problem, settings):
        n, p, m = problem.n, problem.p, problem.m
        t_start = time.perf_counter()
        if not _finite_data(problem):
            return _failed(problem)

        G = sp.vstack([problem.A, problem.C], format="csc")
        lower = np.concatenate([problem.b, np.full(m, -np.inf)])
        upper = np.concatenate([problem.b, problem.d])

        rho = np.full(p + m, ADMM_RHO)
        rho[:p] *= ADMM_RHO_EQ_SCALE
        rho_inv = 1.0 / rho

        # factored raw, not through factorize: the loop needs no fallback
        if _dense_enough(problem.P.nnz + 2 * G.nnz + n + p + m, n + p + m):
            # eliminate nu = rho*(G x - r2) from the iteration matrix and
            # factor the reduced n x n matrix P + sigma I + G' diag(rho) G
            Gd = G.toarray()
            ops = (problem.P.toarray(), Gd[:p], Gd[p:], Gd[:p].T, Gd[p:].T)
            reduced = ops[0] + Gd.T @ (rho[:, None] * Gd)
            reduced[np.diag_indices(n)] += ADMM_SIGMA
            try:
                chol, chol_lower = cho_factor(reduced)
            except np.linalg.LinAlgError:  # P is not positive semidefinite
                return _failed(problem)

            def step(r1, r2):
                # potrs directly: cho_solve's argument checks add ~10 us a
                # call at n = 200, with a bit-identical result
                x, info = dpotrs(chol, r1 + Gd.T @ (rho * r2), lower=chol_lower,
                                 overwrite_b=True)
                if info:
                    raise ValueError(f"potrs: illegal value in argument {-info}")
                return x, rho * (Gd @ x - r2)

        else:
            # every residual check goes through the blocks, transposes formed once
            ops = _blocks(problem)
            lu = splu(_saddle(problem, np.arange(m),
                              np.concatenate([np.full(n, ADMM_SIGMA), -rho_inv])))

            def step(r1, r2):
                sol = lu.solve(np.concatenate([r1, r2]))
                return sol[:n], sol[n:]

        ws = settings.warm_start
        if ws is not None and ws.z is not None:
            x = np.asarray(ws.z, dtype=float).copy()
            y = np.concatenate(
                [
                    np.asarray(ws.lam) if ws.lam is not None else np.zeros(p),
                    np.asarray(ws.mu) if ws.mu is not None else np.zeros(m),
                ]
            )
            zs = np.clip(G @ x, lower, upper)
        else:
            x = np.zeros(n)
            zs = np.clip(np.zeros(p + m), lower, upper)
            y = np.zeros(p + m)

        status = MAX_ITER
        prev_J = None
        next_try = 0
        it = 0
        while it < settings.max_iterations:
            x_t, nu = step(ADMM_SIGMA * x - problem.q, zs - rho_inv * y)
            z_t = zs + rho_inv * (nu - y)
            x = ADMM_RELAXATION * x_t + (1.0 - ADMM_RELAXATION) * x
            w = ADMM_RELAXATION * z_t + (1.0 - ADMM_RELAXATION) * zs + rho_inv * y
            zs = np.clip(w, lower, upper)
            y = rho * (w - zs)
            it += 1

            # never terminate before an iteration has refreshed the duals;
            # early checks let warm starts exit almost immediately
            if it <= 5 or it % ADMM_CHECK_INTERVAL == 0:
                r_p, r_d = _primal_dual(problem, ops, x, y[:p], y[p:])
                if r_p <= settings.eps_abs and r_d <= settings.eps_abs:
                    status = SOLVED
                    break
                if (
                    settings.time_limit is not None
                    and time.perf_counter() - t_start > settings.time_limit
                ):
                    break
                if self.polish and it > 5:
                    J = np.flatnonzero(problem.d - zs[p:] < y[p:])
                    if it >= next_try and np.array_equal(J, prev_J):
                        finished = _finish(problem, ops, J)
                        if _residual(finished) <= settings.eps_abs:
                            finished.iterations = it
                            return finished
                        next_try = int(1.5 * it)
                    prev_J = J
        if status != SOLVED:
            r_p, r_d = _primal_dual(problem, ops, x, y[:p], y[p:])
        elif self.polish:
            J = np.flatnonzero(problem.d - zs[p:] < y[p:])
            finished = _finish(problem, ops, J)
            if _residual(finished) < max(r_p, r_d):
                finished.iterations = it
                return finished
        return PrimalDualPoint(
            z=x,
            lam=y[:p].copy(),
            mu=y[p:].copy(),
            status=status,
            r_p=r_p,
            r_d=r_d,
            iterations=it,
        )


def _finish(problem, ops, J):
    """The finishing point on rows J of ADMM and of the active-set exit,
    with its residuals through ``ops``; None when K_J cannot be factored,
    the solve is not finite, or a multiplier on J is below -1e-9."""
    try:
        point = _point_on(problem, J)
    except RankDeficiencyError:  # P singular on null([A; C_J]), or rows nearly dependent
        return None
    finite = all(np.isfinite(v).all() for v in (point.z, point.lam, point.mu))
    if not finite or point.mu.min(initial=0.0) < -1e-9:
        return None
    point.r_p, point.r_d = _primal_dual(problem, ops, point.z, point.lam, point.mu)
    return point


def _finite_data(problem):
    """Whether an iterative backend can start on ``problem``: every entry of
    P, q, A, b and C is finite, and no bound in d is NaN or -inf.  A +inf
    bound never binds, so it is allowed."""
    blocks = (problem.P.data, problem.q, problem.A.data, problem.b, problem.C.data)
    return all(np.isfinite(v).all() for v in blocks) and (problem.d > -np.inf).all()


def _failed(problem):
    """The point of a backend that cannot solve ``problem``."""
    return PrimalDualPoint(z=np.full(problem.n, np.nan), lam=np.zeros(problem.p),
                           mu=np.zeros(problem.m), status=FAILED)


def _residual(point):
    """max(r_p, r_d) of a finishing point; +inf for a rejected one."""
    return np.inf if point is None else max(point.r_p, point.r_d)


# --- helpers ------------------------------------------------------------------


def _point_on(problem, J, fact=None):
    """The point K_J^-1 (-q, b, d_J) on rows J, by one solve with ``fact``,
    a factorization of K_J, or with a fresh one, which raises
    :class:`RankDeficiencyError` when K_J cannot be factored.  The point
    carries the factorization, and with it J, as ``fact``."""
    if fact is None:
        fact = factorize(assemble_reduced_kkt(problem, J))
    z, lam, mu = solve_on(problem, fact, -problem.q, problem.b, problem.d)
    return PrimalDualPoint(z=z, lam=lam, mu=mu, fact=fact)


def certify(problem, point, eps):
    """Why ``point``, the point on the rows J of ``point.fact``, is not a
    KKT point of ``problem`` to within ``eps``, naming the worst row; empty
    when it is.  It fails when it is not finite, breaks a row by more than
    ``eps``, or, on a ``direct`` K_J, whose duals are unique, has a
    multiplier on J below ``-eps``.  The minimum-norm duals of a bordered
    K_J can be negative on a right J, so their sign is not read."""
    if not all(np.isfinite(v).all() for v in (point.z, point.lam, point.mu)):
        return "is not finite"
    if problem.m:
        excess = problem.C @ point.z - problem.d
        j = int(np.argmax(excess))  # the first NaN, if there is one
        # written so that a NaN excess (a NaN bound) fails as well
        if not excess[j] <= eps:
            return f"violates row {j} by {excess[j]:.3e} (eps {eps:g})"
        j = int(np.argmin(point.mu))  # mu is zero off J
        if point.fact.mode == DIRECT and point.mu[j] < -eps:
            return f"gives row {j} the multiplier {point.mu[j]:.3e} (eps {eps:g})"
    return ""


# --- registry -----------------------------------------------------------------

_registry: dict[str, SolverBackend] = {}
_registry_lock = threading.Lock()


def register_backend(name: str, backend: SolverBackend) -> None:
    with _registry_lock:
        if name in _registry:
            raise DuplicateBackendError(f"backend '{name}' is already registered")
        _registry[name] = backend


def get_backend(name: str) -> SolverBackend:
    with _registry_lock:
        try:
            return _registry[name]
        except KeyError:
            known = ", ".join(sorted(_registry)) or "none"
            raise UnknownBackendError(
                f"unknown backend '{name}' (registered: {known})"
            ) from None


def list_backends() -> list[str]:
    with _registry_lock:
        return sorted(_registry)


for _backend in (ActiveSetBackend(), AdmmBackend(), EqualityBackend()):
    register_backend(_backend.name, _backend)
