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
from dataclasses import dataclass, replace

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
from .identification import DEFAULT_EPS_ACTIVE, _active_rows
from .kkt import (
    DIRECT,
    KktFactorization,
    _dense_enough,
    _rank_cut,
    assemble_reduced_kkt,
    factorize,
    solve_on,
)
from .metrics import _primal_dual, primal_dual_residuals
from .problem import QpProblem

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
    "PrimalOnlyBackend",
    "solve_active_set",
    "solve_admm",
    "register_backend",
    "get_backend",
    "list_backends",
]

SOLVED = "solved"
MAX_ITER = "max_iter"
FAILED = "failed"


@dataclass
class SolveSettings:
    """Solver tolerances shared by all backends.

    ``eps_abs`` bounds the achieved primal and dual residuals in infinity
    norm.  The exact backends reach working precision or fail: ``active_set``
    fails when a residual exceeds it, and ``equality`` fails when
    :func:`certify` rejects its point at ``max(eps_abs, 1e-9)``.
    """

    eps_abs: float = 1e-6
    max_iterations: int = 20000
    warm_start: "PrimalDualPoint | None" = None
    time_limit: float | None = None

    def __post_init__(self):
        # written so that NaN is rejected as well
        if not 0 < self.eps_abs < np.inf:
            raise ValueError("eps_abs must be finite and positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class PrimalDualPoint:
    """Primal solution with optional duals and achieved residuals.

    ``fact`` is the factorization of the exact reduced KKT matrix that
    produced the point, when the backend made one (equality; active set;
    ADMM, when its finishing solve is accepted).  Its ``rows`` are the
    inequality rows that final solve held tight: the active-set backend's
    working rows, or the rows J of the ADMM finishing solve.
    ``differentiable_solve`` reuses it when it identifies the same rows.
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
    and the solve fails.
    """

    name = "equality"

    def solve(self, problem, settings):
        point = _point_on(problem, np.zeros(0, dtype=int))
        if point.fact.mode != DIRECT:
            raise RankDeficiencyError("equality KKT matrix is singular")
        point.r_p, point.r_d = primal_dual_residuals(problem, point.z, point.lam, point.mu)
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
    solves and two products with Q.  The answer is one reduced-KKT solve on
    all equality rows and the final working rows through ``qpdiff.kkt``: the
    minimum-norm ``lam`` when the equality rows are dependent, and ``failed``
    when they are inconsistent.  The point carries that factorization as
    ``fact``, whose ``rows`` are the final working rows, for
    ``differentiable_solve`` to reuse.  Its residuals are taken with the
    dense blocks the loop uses.
    """

    name = "active_set"

    def solve(self, problem, settings):
        t_start = time.perf_counter()
        P = problem.P.toarray()
        q = problem.q
        A = problem.A.toarray()
        b = problem.b
        C = problem.C.toarray()
        d = problem.d
        n, p, m = problem.n, problem.p, problem.m
        failed = PrimalDualPoint(
            z=np.full(n, np.nan), lam=np.zeros(p), mu=np.zeros(m), status=FAILED
        )

        try:
            # every step stays in null(A), where P + A'A equals P; it is
            # positive definite exactly when P is positive definite there
            L = cholesky(P + A.T @ A, lower=True)
        except np.linalg.LinAlgError:
            return failed
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
                if not np.isfinite(t_full):
                    status = FAILED  # a bound of -inf: no point holds row j
                    break
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
        try:
            point = _point_on(problem, np.asarray(work, dtype=int))
        except RankDeficiencyError:
            return failed
        point.mu = np.maximum(point.mu, 0.0)
        point.status, point.iterations = status, it
        point.r_p, point.r_d = _primal_dual(
            problem, (P, A, C), point.z, point.lam, point.mu
        )
        # written so that a non-finite residual fails as well
        if status == SOLVED and not max(point.r_p, point.r_d) <= settings.eps_abs:
            point.status = FAILED
        return point


def solve_active_set(problem, settings=None):
    return ActiveSetBackend().solve(problem, settings or SolveSettings())


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
    On that dense path every residual check, the identification of the
    rows J below and the residuals of a finishing point take their products
    with the dense P and G formed for the factorization, not with the
    sparse blocks.  Otherwise the regularized KKT matrix is factored by
    sparse LU.  The penalty is fixed (with a stiffer value on equality
    rows) and diagonal data rescaling is off, so runs are deterministic
    given the settings.

    The solve ends on the active set.  From iteration 10 on, each residual
    check identifies the rows J the iterate holds active; when J is the same
    as at the previous check, one exact reduced-KKT solve on J is tried
    through the same layer differentiation uses.  It is accepted, and the
    loop stops, when the result is finite, its multipliers on J are at least
    -1e-9, and both residuals pass ``eps_abs``.  After a rejected try at
    iteration k the next comes no earlier than iteration 2k, so a set that
    never finishes costs few factorizations.  When the iteration converges
    on its own, the same solve runs once on the final iterate and is kept
    only when it also lowers the larger of the two residuals.  An accepted
    point carries the factorization of K_J as ``fact``, whose ``rows`` are J.
    ``polish = False`` turns the finishing solve off.
    """

    name = "admm"

    sigma = 1e-6
    relaxation = 1.6
    rho = 10.0
    rho_eq_scale = 1e3
    check_interval = 10
    polish = True

    def solve(self, problem, settings):
        n, p, m = problem.n, problem.p, problem.m
        t_start = time.perf_counter()

        G = sp.vstack([problem.A, problem.C], format="csc")
        lower = np.concatenate([problem.b, np.full(m, -np.inf)])
        upper = np.concatenate([problem.b, problem.d])

        rho = np.full(p + m, self.rho)
        rho[:p] *= self.rho_eq_scale
        rho_inv = 1.0 / rho

        # the operators every residual check and identification goes through
        ops = (problem.P, problem.A, problem.C)
        # factored raw, not through factorize: the loop needs neither
        # refinement nor a fallback, and each solve must stay cheap
        if _dense_enough(problem.P.nnz + 2 * G.nnz + n + p + m, n + p + m):
            # eliminate nu = rho*(G x - r2) from the iteration matrix and
            # factor the reduced n x n matrix P + sigma I + G' diag(rho) G
            Gd = G.toarray()
            ops = (problem.P.toarray(), Gd[:p], Gd[p:])
            reduced = ops[0] + Gd.T @ (rho[:, None] * Gd)
            reduced[np.diag_indices(n)] += self.sigma
            try:
                chol, chol_lower = cho_factor(reduced)
            except np.linalg.LinAlgError:  # P is not positive semidefinite
                return PrimalDualPoint(
                    z=np.full(n, np.nan), lam=np.zeros(p), mu=np.zeros(m), status=FAILED
                )

            def step(r1, r2):
                # potrs directly: cho_solve's argument checks add ~10 us a
                # call at n = 200, with a bit-identical result
                x, info = dpotrs(chol, r1 + Gd.T @ (rho * r2), lower=chol_lower,
                                 overwrite_b=True)
                if info:
                    raise ValueError(f"potrs: illegal value in argument {-info}")
                return x, rho * (Gd @ x - r2)

        else:
            lu = splu(sp.csc_matrix(
                assemble_reduced_kkt(problem, np.arange(m)).matrix
                + sp.diags_array(np.concatenate([np.full(n, self.sigma), -rho_inv]))
            ))

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
        finished = None
        prev_J = None
        next_try = 0
        it = 0
        while it < settings.max_iterations:
            x_t, nu = step(self.sigma * x - problem.q, zs - rho_inv * y)
            z_t = zs + rho_inv * (nu - y)
            x = self.relaxation * x_t + (1.0 - self.relaxation) * x
            w = self.relaxation * z_t + (1.0 - self.relaxation) * zs + rho_inv * y
            zs = np.clip(w, lower, upper)
            y = rho * (w - zs)
            it += 1

            # never terminate before an iteration has refreshed the duals;
            # early checks let warm starts exit almost immediately
            if it <= 5 or it % self.check_interval == 0:
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
                    J = _held_rows(problem, ops, x)
                    if it >= next_try and np.array_equal(J, prev_J):
                        finished = _finish(problem, ops, J)
                        if _residual(finished) <= settings.eps_abs:
                            status = SOLVED
                            break
                        finished = None
                        next_try = 2 * it
                    prev_J = J
        if status != SOLVED:
            r_p, r_d = _primal_dual(problem, ops, x, y[:p], y[p:])
        elif finished is None and self.polish:
            finished = _finish(problem, ops, _held_rows(problem, ops, x))
            if not _residual(finished) < max(r_p, r_d):
                finished = None

        if finished is not None:
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


def _held_rows(problem, ops, x):
    """The rows ``identify`` marks active at x, through ADMM's operators."""
    return _active_rows(ops[2] @ x - problem.d, DEFAULT_EPS_ACTIVE)


def _finish(problem, ops, J):
    """ADMM's finishing point on rows J, with its residuals through ``ops``;
    None when K_J cannot be factored, the solve is not finite, or a
    multiplier on J is below -1e-9."""
    try:
        point = _point_on(problem, J)
    except RankDeficiencyError:  # P singular on the rows' null space
        return None
    finite = all(np.isfinite(v).all() for v in (point.z, point.lam, point.mu))
    if not finite or point.mu.min(initial=0.0) < -1e-9:
        return None
    point.r_p, point.r_d = _primal_dual(problem, ops, point.z, point.lam, point.mu)
    return point


def _residual(point):
    """max(r_p, r_d) of a finishing point; +inf for a rejected one."""
    return np.inf if point is None else max(point.r_p, point.r_d)


def solve_admm(problem, settings=None):
    return AdmmBackend().solve(problem, settings or SolveSettings())


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


class PrimalOnlyBackend(SolverBackend):
    """Wrapper that strips duals from another backend's answer.

    Exists to exercise the dual-recovery path exactly as a solver that only
    reports the primal would.
    """

    def __init__(self, inner: SolverBackend):
        self.inner = inner
        self.name = f"{inner.name}_primal_only"

    def solve(self, problem, settings):
        point = self.inner.solve(problem, settings)
        return replace(point, lam=None, mu=None, fact=None)


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
