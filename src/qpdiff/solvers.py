"""Reference QP solver backends and the backend registry.

Three built-in backends cover the spectrum a differentiation layer has to
tolerate: an exact dense dual active-set method, a first-order sparse
operator-splitting (ADMM) method, and an equality-only direct solve.  All
backends are stateless per call, but for the orderings of ADMM's sparse
matrix, cached per sparsity pattern (``kkt._shifted_lu``), which cannot
change a result; the registry guards concurrent registration with a lock.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import _decomp_update, cho_factor, qr, solve_triangular
from scipy.linalg.blas import dsyrk, dtrsv
from scipy.linalg.lapack import dorgqr, dpotrf, dtrtrs

from .errors import DuplicateBackendError, RankDeficiencyError, SolveFailedError, UnknownBackendError
from .kkt import (
    DIRECT,
    KktFactorization,
    _dense_enough,
    _pivoted_qr,
    _rank_cut,
    _shifted_lu,
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

CROSSOVER_ROUNDS = 10  # the most points _crossover makes

# the Cython QR updates; newer scipy wraps them for stacked arrays, at about
# twice their cost on one matrix
_qr_insert = getattr(_decomp_update.qr_insert, "__wrapped__", _decomp_update.qr_insert)
_qr_delete = getattr(_decomp_update.qr_delete, "__wrapped__", _decomp_update.qr_delete)


@dataclass
class SolveSettings:
    """Solver tolerances shared by all backends.

    ``eps_abs`` bounds the achieved primal and dual residuals in infinity
    norm.  Every built-in backend ends through one rule (:func:`_finish`):
    its point is ``solved`` only when it is certified and both residuals
    are at most ``eps_abs`` (``max(eps_abs, 1e-9)`` for ``equality``).
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
    whose solve is the point, when the backend ended through
    :func:`_finish`; its ``rows`` are J.  ``differentiable_solve`` reuses
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

    The point on no inequality row, judged by :func:`_finish` at
    ``max(eps_abs, 1e-9)`` with no crossover round: it is the true optimum
    with mu = 0 when it satisfies C z <= d, and fails otherwise.  The point
    carries its factorization of K_J with J empty as ``fact`` for
    ``differentiable_solve`` to reuse.  A singular K_J (dependent equality
    rows, or P singular on null(A)) raises :class:`RankDeficiencyError`.
    NaN or infinite data, other than a +inf bound, fails before anything is
    factored.
    """

    name = "equality"

    def solve(self, problem, settings):
        if not _finite_data(problem):
            return _failed(problem)
        point = _finish(problem, _blocks(problem), np.zeros(0, dtype=int), None,
                        max(settings.eps_abs, 1e-9), rounds=0)
        if point.fact is None or point.fact.mode != DIRECT:
            raise RankDeficiencyError("equality KKT matrix is singular")
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

    The equality rows never leave the working set, so they are eliminated
    once, before the loop, by the null-space method (Nocedal & Wright,
    *Numerical Optimization*, §16.2).  With ``L = chol(P + A'A)`` and
    ``u = L'x``, the QP is ``min 0.5|u|^2 + (L^-1 q)'u``.  A column-pivoted
    QR ``L^-1 A' piv = [Q1 Q2][R11; 0]`` keeps only the equality rows whose
    ``|R_ii|`` clear the rank cut, rp of them, so dependent equality rows
    drop out; they fix ``Q1'u = R11^-T b[piv]``, and ``u = Q1 Q1'u + Q2 v``.
    The loop runs on ``min 0.5|v|^2 + (Q2' L^-1 q)'v`` subject to
    ``B v <= e``, with ``B = C L^-T Q2`` formed by one product and ``e`` the
    bounds less the rows' values at the fixed part, starting at its
    unconstrained minimizer; when no equality row is kept, v is u and
    ``B = C L^-T``.  P + A'A equals P on null(A), where every step moves,
    so the domain is P positive definite on null(A).

    Nothing is factored inside the loop, whose vectors and QR have order
    n - rp.  A step takes one product with the QR of ``B_W'``, the working
    rows of B, for the primal direction, and one BLAS triangular solve with
    its R for the working multipliers; a row that joins or leaves the
    working set updates the QR by one column.  The loop is
    :func:`_dual_active_set`, on the dense blocks, which calls LAPACK and
    the QR updates directly; the sign rule (:func:`_feasible_duals`) calls
    it too.  The answer is :func:`_finish` on the final working rows, with
    no crossover round and residuals from the dense blocks; the point
    carries its factorization as ``fact``, whose ``rows`` are those rows,
    and ``differentiable_solve`` reuses both.  A point that is not finite
    fails as :func:`_failed`'s; a loop that ends ``max_iter`` or
    ``failed`` keeps that status.  NaN or infinite data, other than a +inf
    bound, fails before anything is factored.
    """

    name = "active_set"

    def solve(self, problem, settings):
        # the clock is read only when a time limit is set
        deadline = (None if settings.time_limit is None
                    else time.perf_counter() + settings.time_limit)
        if not _finite_data(problem):
            return _failed(problem)
        P, A, C = problem.P.toarray(), problem.A.toarray(), problem.C.toarray()
        try:
            x, work, _, status, it = _dual_active_set(
                P, problem.q, A, problem.b, C, problem.d, settings.max_iterations, deadline)
        except np.linalg.LinAlgError:  # P is not positive definite on null(A)
            return _failed(problem)
        point = _finish(problem, (P, A, C, A.T, C.T), work, x, settings.eps_abs, rounds=0)
        if not np.isfinite(_residual(point)):
            return _failed(problem)
        if status != SOLVED:
            point.status = status
        point.iterations = it
        return point


def _dual_active_set(P, q, A, b, C, d, max_iterations=None, deadline=None):
    """The Goldfarb–Idnani loop of :class:`ActiveSetBackend` on the dense
    data of ``min 0.5 x'Px + q'x`` subject to ``Ax = b``, ``Cx <= d``.

    Returns the loop's x, its working rows (ascending), their multipliers
    (zero off them), its status and its iteration count.  It stops after
    ``10 (n + m) + 50`` iterations, or ``max_iterations`` when that is
    fewer, or once ``time.perf_counter()`` passes ``deadline``.  Raises
    ``numpy.linalg.LinAlgError`` when ``P + A'A`` is not positive definite.
    The data must be finite, except for a +inf bound.

    LAPACK and BLAS are called directly, with the arguments
    ``scipy.linalg`` passes them, so the arithmetic is that of
    ``cholesky``, ``solve_triangular`` and ``qr``: potrf, trtrs, and geqp3
    plus orgqr with their optimal workspaces.  The working-set QR is
    updated by the Cython routines under ``scipy.linalg.qr_insert`` and
    ``qr_delete``, in place on a Fortran-ordered Q.
    """
    n, p, m = P.shape[0], A.shape[0], C.shape[0]
    # every step stays in null(A), where P + A'A equals P; it is positive
    # definite exactly when P is positive definite there
    L, info = dpotrf(P + A.T @ A, lower=1)
    if info:
        raise np.linalg.LinAlgError("P + A'A is not positive definite")
    # with u = L'x: min 0.5|u|^2 + g'u s.t. (L^-1 A')'u = b, C L^-T u <= d
    g = dtrtrs(L, q, lower=1)[0]
    rp = 0
    if p:
        packed, piv, tau = _pivoted_qr(dtrtrs(L, A.T, lower=1)[0])
        diag = np.abs(np.diagonal(packed))
        rp = int((diag > _rank_cut(diag, (n, p))).sum())
    if rp:
        # the full Q of L^-1 A' from its reflectors, as scipy.linalg.qr forms it
        Qa = np.empty((n, n), order="F")
        Qa[:, : tau.size] = packed[:, : tau.size]
        lwork = int(dorgqr(Qa, tau, lwork=-1)[1][0])
        Qa = dorgqr(Qa, tau, lwork=lwork, overwrite_a=1)[0]
        # the kept rows fix Q1'u = u1; the loop moves v = Q2'u, and the
        # inequality rows read B v <= e at x = L^-T (Q1 u1 + Q2 v); R11' is
        # lower triangular
        u1 = dtrtrs(packed[:rp, :rp].T, b[piv[:rp]], lower=1)[0]
        B = C @ dtrtrs(L, Qa[:, rp:], lower=1, trans=1)[0]
        u_fixed = Qa[:, :rp] @ u1
        e = d - C @ dtrsv(L, u_fixed, lower=1, trans=1)
        g = Qa[:, rp:].T @ g
    else:
        B = dtrtrs(L, C.T, lower=1)[0].T  # row j is L^-1 c_j
        e = d
    v = -g  # the equality minimizer
    # full QR of B_W', one column per working row, in order n - rp
    Q, R = np.eye(n - rp, order="F"), np.zeros((n - rp, 0))
    row_max = np.abs(B).max(axis=1, initial=0.0)  # |b_j|_inf

    feas_tol = _feasibility_tol(d)
    work = np.zeros(0, dtype=int)  # working inequality rows, ascending
    y_work = np.zeros(0)  # their multipliers
    j = None  # the violated row being added, with multiplier y_j
    max_iters = 10 * (n + m) + 50
    if max_iterations is not None:
        max_iters = min(max_iterations, max_iters)
    status = MAX_ITER
    it = 0
    while True:
        if j is None:
            viol = B @ v - e
            viol[work] = -np.inf
            j = int(np.argmax(viol)) if m else None  # the first NaN, if there is one
            if j is None or viol[j] <= feas_tol:
                status = SOLVED
                break
            y_j = 0.0
        if it >= max_iters or (deadline is not None and time.perf_counter() > deadline):
            break
        it += 1
        # min 0.5|dv|^2 + b_j'dv s.t. B_W dv = 0, by the range-space
        # method: with w = Q'b_j, dv = -Q[:, k:] w[k:], and the working
        # multipliers fall at the rates R^-1 w[:k]
        k = work.size
        b_j = B[j]
        w = Q.T @ b_j
        dv = -(Q[:, k:] @ w[k:])
        # BLAS on R's leading block: a quarter of solve_triangular's time
        rate = dtrsv(R[:k, :k], w[:k]) if k else np.zeros(0)
        # dual step length: the first working multiplier to reach zero
        shrinking = (rate > 0).nonzero()[0]
        ratios = np.maximum(y_work[shrinking] / rate[shrinking], 0.0)
        t = ratios.min(initial=np.inf)
        cdv = b_j @ dv  # = -|dv|^2 <= 0
        if -cdv <= 1e-12 * (row_max[j] * np.abs(dv).max(initial=0.0)):
            add = False  # b_j is in the span of the working rows: a pure dual step
        else:
            t_full = (b_j @ v - e[j]) / -cdv
            add = t_full <= t
            t = min(t, t_full)
            v = v + t * dv
        if not (add or math.isfinite(t)):
            status = FAILED  # infeasible: the dual ray is unbounded
            break
        y_work -= t * rate
        y_j += t
        if add:
            at = int(np.searchsorted(work, j))
            Q, R = _qr_insert(Q, R, b_j, at, "col", overwrite_qru=True, check_finite=False)
            work = np.concatenate((work[:at], [j], work[at:]))
            y_work = np.concatenate((y_work[:at], [y_j], y_work[at:]))
            j = None
        else:  # lowest index on ties
            at = int(shrinking[np.argmin(ratios)])
            Q, R = _qr_delete(Q, R, at, 1, "col", overwrite_qr=True, check_finite=False)
            work = np.concatenate((work[:at], work[at + 1 :]))
            y_work = np.concatenate((y_work[:at], y_work[at + 1 :]))

    u = u_fixed + Qa[:, rp:] @ v if rp else v
    mu = np.zeros(m)
    mu[work] = y_work
    return dtrsv(L, u, lower=1, trans=1), work, mu, status, it


def _feasibility_tol(d):
    """The excess over its bound at which :func:`_dual_active_set` counts a
    row of ``C x <= d`` as met: 1e-9 (1 + max|d|) over the finite bounds;
    an infinite bound never binds, so it sets no scale."""
    return 1e-9 * (1.0 + float(np.abs(d[np.isfinite(d)]).max(initial=0.0)))


# --- sparse operator-splitting method -----------------------------------------


class AdmmBackend(SolverBackend):
    """Operator-splitting (ADMM) solver on the stacked constraint form.

    The iteration follows the standard splitting for l <= Gz <= u, G = [A; C],
    with a single factorization made before the loop, and each iteration
    costs one solve with it and a few vector operations.  The regularized
    KKT matrix is the quasi-definite ``[[P + sigma I, G'], [G,
    -diag(1/rho)]]`` (the reduced KKT matrix on every row plus a diagonal
    shift), and both engines accept it exactly when
    ``P + sigma I + G' diag(rho) G`` is positive definite; otherwise P is
    not positive semidefinite and the solve returns ``failed`` at 0
    iterations.  When the matrix would have at least a quarter of its
    entries nonzero, it is not built: its constraint block is eliminated,
    and that n x n matrix, formed by one BLAS rank-k update, is factored by
    Cholesky, U'U, with each solve two BLAS triangular solves; the step
    returns ``z~ = G x~``, which ``zs + (nu - y) / rho`` equals once nu is
    eliminated.  On that dense path every residual check and the residuals
    of a finishing point take their products with the dense P and G formed
    for the factorization, not with the sparse blocks.
    Otherwise the matrix, K_J on every row with the shift merged into P's
    diagonal, is factored by ``kkt._shifted_lu``: SuperLU's LDL' with a
    symmetric minimum-degree ordering and diagonal pivots, which must show
    n positive pivots, as OSQP factors and checks the same matrix.  As
    OSQP orders its matrix once at setup, the ordering is computed once per
    sparsity pattern: a later solve on the same pattern gathers the values
    into the permuted matrix and factors it with no ordering, bit for bit
    as the first solve's factor.  Its residual
    checks use the sparse blocks, with A' and C' formed once per solve, and
    its step returns ``z~ = r2 + nu / rho`` (OSQP's form).  The penalty is
    fixed (``ADMM_RHO``, times ``ADMM_RHO_EQ_SCALE`` on equality rows) and
    diagonal data rescaling is off, so runs are deterministic given the
    settings.

    The solve ends on the active set.  From iteration 10 on, each residual
    check guesses J from the duals, as OSQP's polish does: the inequality
    rows whose slack ``d - zs`` in the split variable is below their
    multiplier ``y``.  When J is the same as at the previous check, a
    finishing try (:func:`_finish`) takes the point on J, repaired by at
    most ``CROSSOVER_ROUNDS`` crossover rounds from the ADMM iterate, and
    the loop stops when that point is ``solved``.  After a
    rejected try at iteration k the next comes no earlier than iteration
    ``int(1.5 k)``, so a set that never finishes costs few tries.  When
    the iteration converges on its own, one try runs on the final guess
    and its point is kept only when it also lowers the larger of the two
    residuals.  An accepted point is returned as it is.  ``polish = False``
    turns the finishing tries off; it is the backend's one settable
    attribute.
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

        A, C = problem.A, problem.C
        lower = np.concatenate([problem.b, np.full(m, -np.inf)])
        upper = np.concatenate([problem.b, problem.d])

        rho = np.full(p + m, ADMM_RHO)
        rho[:p] *= ADMM_RHO_EQ_SCALE
        rho_inv = 1.0 / rho

        # factored raw, not through factorize: the loop needs no fallback
        if _dense_enough(problem.P.nnz + 2 * (A.nnz + C.nnz) + n + p + m, n + p + m):
            # eliminate nu = rho*(G x - r2) from the iteration matrix and
            # factor the reduced n x n matrix P + sigma I + G' diag(rho) G
            Gd = np.vstack([A.toarray(), C.toarray()])
            ops = (problem.P.toarray(), Gd[:p], Gd[p:], Gd[:p].T, Gd[p:].T)
            reduced = np.array(ops[0], order="F")
            reduced[np.diag_indices(n)] += ADMM_SIGMA
            # one rank-k update of the upper triangle by (diag(sqrt rho) G)',
            # a Fortran-ordered view: 0.55x the time of the gemm at n = 200
            scaled = (np.sqrt(rho)[:, None] * Gd).T
            dsyrk(1.0, scaled, beta=1.0, c=reduced, overwrite_c=1)
            try:
                # the upper factor U, U'U = reduced, in Fortran order
                chol, _ = cho_factor(reduced, overwrite_a=True)
            except np.linalg.LinAlgError:  # P is not positive semidefinite
                return _failed(problem)

            def step(r1, r2):
                # two BLAS triangular solves, U' then U: half the time of
                # potrs at n = 200; the Fortran-ordered factor is not copied.
                # With nu = rho (G x - r2) eliminated, z~ = r2 + nu / rho = G x
                y = dtrsv(chol, r1 + Gd.T @ (rho * r2), trans=1, overwrite_x=1)
                x = dtrsv(chol, y, overwrite_x=1)
                return x, Gd @ x

        else:
            # every residual check goes through the blocks, transposes formed once
            ops = _blocks(problem)
            shift = np.concatenate([np.full(n, ADMM_SIGMA), -rho_inv])
            # quasi-definite: LDL' with diagonal pivots; n positive pivots
            # exactly when P + sigma I + G' diag(rho) G is positive definite
            lu = _shifted_lu(problem, shift, n)
            if lu is None:  # P is not positive semidefinite
                return _failed(problem)

            def step(r1, r2):
                sol = lu.solve(np.concatenate([r1, r2]))
                return sol[:n], r2 + rho_inv * sol[n:]

        ws = settings.warm_start
        if ws is not None and ws.z is not None:
            x = np.asarray(ws.z, dtype=float).copy()
            y = np.concatenate(
                [
                    np.asarray(ws.lam) if ws.lam is not None else np.zeros(p),
                    np.asarray(ws.mu) if ws.mu is not None else np.zeros(m),
                ]
            )
            zs = np.clip(np.concatenate([A @ x, C @ x]), lower, upper)
        else:
            x = np.zeros(n)
            zs = np.clip(np.zeros(p + m), lower, upper)
            y = np.zeros(p + m)

        status = MAX_ITER
        prev_J = None
        next_try = 0
        it = 0
        while it < settings.max_iterations:
            y_scaled = rho_inv * y
            # z~ = zs + (nu - y) / rho = r2 + nu / rho, OSQP's identity
            x_t, z_t = step(ADMM_SIGMA * x - problem.q, zs - y_scaled)
            x = ADMM_RELAXATION * x_t + (1.0 - ADMM_RELAXATION) * x
            w = ADMM_RELAXATION * z_t + (1.0 - ADMM_RELAXATION) * zs + y_scaled
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
                        finished = _finish(problem, ops, J, x, settings.eps_abs)
                        if finished.status == SOLVED:
                            finished.iterations = it
                            return finished
                        next_try = int(1.5 * it)
                    prev_J = J
        if status != SOLVED:
            r_p, r_d = _primal_dual(problem, ops, x, y[:p], y[p:])
        elif self.polish:
            J = np.flatnonzero(problem.d - zs[p:] < y[p:])
            finished = _finish(problem, ops, J, x, settings.eps_abs)
            if finished.status == SOLVED and _residual(finished) < max(r_p, r_d):
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


def _finish(problem, ops, J, x, eps, rounds=None):
    """The one exit of the built-in backends: the point on rows J, or the
    point at most ``rounds`` crossover rounds reach from it with the
    backend's iterate ``x`` as the start (:func:`_crossover`; ``x`` may be
    None when ``rounds`` is 0), with its residuals through ``ops``.
    The point is ``solved`` when it is certified at ``eps`` and both
    residuals are at most ``eps``, and ``failed`` otherwise; when K_J
    cannot be factored it is :func:`_failed`'s."""
    try:
        point = _point_on(problem, J)
    except RankDeficiencyError:
        return _failed(problem)
    status = SOLVED
    try:
        point = _crossover(problem, problem, point, PrimalDualPoint(z=x), eps, rounds=rounds)
    except (RankDeficiencyError, SolveFailedError):
        status = FAILED
    point.r_p, point.r_d = _primal_dual(problem, ops, point.z, point.lam, point.mu)
    point.status = status if _residual(point) <= eps else FAILED
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
    """max(r_p, r_d) of ``point``."""
    return max(point.r_p, point.r_d)


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


def certify(problem, point, eps, scaling=None):
    """Why ``point``, the point on the rows J of ``point.fact``, is not a
    KKT point of ``problem`` to within ``eps``, naming the worst row; empty
    when it is.  It fails when it is not finite, breaks a row by more than
    ``eps``, or has no multipliers whose entries on J are all at least
    ``-eps`` (:func:`_feasible_duals`, read in the row-scaled frame of
    ``scaling``); the multiplier named is the point's own, the minimum-norm
    one on a bordered K_J."""
    if not _finite(point):
        return "is not finite"
    if problem.m:
        excess = problem.C @ point.z - problem.d
        j = int(np.argmax(excess))  # the first NaN, if there is one
        # written so that a NaN excess (a NaN bound) fails as well
        if not excess[j] <= eps:
            return f"violates row {j} by {excess[j]:.3e} (eps {eps:g})"
        if _feasible_duals(point, eps, scaling) is None:
            mu = _in_frame(point, scaling).mu
            j = int(np.argmin(mu))  # mu is zero off J
            return f"gives row {j} the multiplier {mu[j]:.3e} (eps {eps:g})"
    return ""


def _feasible_duals(point, eps, scaling=None):
    """Duals ``(lam, mu)`` of ``point``, the point on the rows J of
    ``point.fact``, with every multiplier on J at least ``-eps`` in the
    row-scaled frame of ``scaling``; None when there are none.

    On a direct K_J the duals are unique, the point's own.  On a bordered
    K_J the point's are the minimum-norm ones, and they stay exact when
    moved along the dual rows Y of the null basis (``point.fact.null``).
    The least move that lifts mu_J to ``-eps``, ``min 0.5|w|^2`` subject
    to ``-Y_J w <= mu_J + eps`` with Y orthonormalized, is a QP in the
    null dimension, solved by the loop of :class:`ActiveSetBackend`
    (:func:`_dual_active_set`) on its dense rows; w is the loop's own, so
    no ``QpProblem`` is built and no K_J is factored for it.  Nothing is
    solved when mu_J is at least ``-eps`` already, when a row below it is
    one no null vector moves, or when every row below it is so by no more
    than the loop's feasibility tolerance (:func:`_feasibility_tol`): the
    loop would stop at w = 0 before its first step.  The rows the loop
    lifts end within rounding of ``-eps``, so its duals, judged again, need
    no solve."""
    mu = _in_frame(point, scaling).mu
    low = mu < -eps  # mu is zero off J
    if not low.any():
        return point.lam, point.mu
    J, Y, p = point.fact.rows, point.fact.null, point.lam.size
    moved = Y[p:].any(axis=1)
    if low[J[~moved]].any():
        return None
    rows = J[moved]
    bound = mu[rows] + eps
    if -bound.min() <= _feasibility_tol(bound):
        return point.lam, point.mu
    # Y R^-1 has orthonormal columns, and the rows of Y that are zero stay so
    Y = solve_triangular(qr(Y, mode="r")[0][: Y.shape[1]], Y.T, trans="T").T
    Y_J = Y[p:][moved]
    if scaling is not None:
        Y_J = scaling.ineq_scales[rows, None] * Y_J
    k = Y.shape[1]
    move, _, _, status, _ = _dual_active_set(np.eye(k), np.zeros(k), np.zeros((0, k)),
                                             np.zeros(0), -Y_J, bound)
    if status != SOLVED:
        return None
    shift = Y @ move
    mu = point.mu.copy()
    mu[J] += shift[p:]
    return point.lam + shift[:p], mu


def _finite(point):
    """Whether z, lam and mu of ``point`` are finite."""
    return all(np.isfinite(v).all() for v in (point.z, point.lam, point.mu))


def _crossover(problem, frame, point, start, eps, scaling=None, rounds=None):
    """The point on a certified J that crossover rounds, the primal-dual
    active-set method (Hintermüller, Ito & Kunisch, 2003), reach from
    ``point``, the point on rows J; ``start`` is the solver's.

    Each point, ``point`` first, is judged once as :func:`certify` judges
    it on ``frame``, the problem J was identified on, with ``scaling`` its
    row scaling: one product with C and one :func:`_feasible_duals`.  The
    first certified point is returned, with the multipliers that rule
    gives.  Past it, each round makes one :func:`_point_on` on ``problem``.
    A round drops the rows of J whose multiplier is below ``-eps``, when no
    multipliers on J are all at least ``-eps``, and adds the rows the
    point breaks by more than ``eps``, at most ``max(1, n - p - |kept
    rows|)`` of them, least slack at ``start.z`` first.  Once the number
    exchanged has not fallen below its least for 3 rounds, a round
    exchanges only the worst row (the largest violation or most negative
    multiplier): block principal pivoting with Murty's single-pivot
    fallback (Júdice & Pires, Comput. Oper. Res. 1994).  Raises
    :class:`SolveFailedError` with ``start``, naming the worst row of the
    last point, after ``rounds`` rounds (``CROSSOVER_ROUNDS`` when None) or
    at a point with no row to exchange (not finite, or breaking only rows
    of J)."""
    if rounds is None:
        rounds = CROSSOVER_ROUNDS
    least, stalled, slack = np.inf, 0, None
    for k in range(rounds + 1):
        if not _finite(point):
            break
        excess = frame.C @ point.z - frame.d
        duals = _feasible_duals(point, eps, scaling)
        if duals is not None and (excess <= eps).all():
            return replace(point, lam=duals[0], mu=duals[1])
        if k == rounds:
            break
        J = point.fact.rows
        mu = _in_frame(point, scaling).mu
        held = np.zeros(frame.m, dtype=bool)
        held[J] = True
        drop = J[mu[J] < -eps] if duals is None else J[:0]
        broken = np.flatnonzero((excess > eps) & ~held)
        room = max(1, problem.n - problem.p - (J.size - drop.size))
        if broken.size > room:
            if slack is None:
                slack = frame.C @ start.z - frame.d
            broken = broken[np.argsort(-slack[broken], kind="stable")]
        add = broken[:room]
        count = drop.size + add.size
        if not count:
            break
        stalled = 0 if count < least else stalled + 1
        least = min(least, count)
        if stalled >= 3:
            rows = np.concatenate([drop, broken])
            worst = rows[np.argmax(np.concatenate([-mu[drop], excess[broken]]))]
            drop, add = drop[drop == worst], broken[broken == worst]
        held[drop] = False
        held[add] = True
        point = _point_on(problem, np.flatnonzero(held))
    why = certify(frame, point, eps, scaling)
    raise SolveFailedError(f"active set not certified: the point on {point.fact.rows.size} "
                           f"rows {why}", start)


def _in_frame(point, scaling):
    """``point`` with mu, the only duals the certificate and the diagnosis
    read, in the row-scaled frame of ``scaling``; ``point`` itself when
    that is None."""
    if scaling is None:
        return point
    return replace(point, mu=point.mu * scaling.ineq_scales)


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
