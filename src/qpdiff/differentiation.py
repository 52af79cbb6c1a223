"""Dual recovery, forward directional derivatives, and the backward pass.

Everything runs through one reduced KKT factorization per (problem, active
set) pair, by :func:`qpdiff.kkt.solve_on` on the rows that factorization
carries: recovering missing duals, pushing a parameter perturbation
forward, and pulling a loss gradient back.  Because the reduced matrix is
symmetric, the backward pass reuses the exact same solve as the forward
(no transposed factorization exists or is needed).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import SolveFailedError
from .identification import (
    DEFAULT_EPS_ACTIVE,
    ActiveSet,
    DifferentiabilityDiagnosis,
    diagnose,
    identify,
)
from .kkt import KktFactorization, solve_on
from .metrics import _blocks, _primal_dual
from .problem import QpProblem, is_symmetric, normalize_constraints
from .solvers import (
    SOLVED,
    PrimalDualPoint,
    SolveSettings,
    SolverBackend,
    _crossover,
    _in_frame,
    _point_on,
    get_backend,
)

__all__ = [
    "ParamDirection",
    "GradientBundle",
    "DifferentiableSolution",
    "recover_duals",
    "forward_directional",
    "backward",
    "differentiable_solve",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ParamDirection:
    """A tangent direction in problem-parameter space; None blocks are zero."""

    dP: object = None
    dq: np.ndarray | None = None
    dA: object = None
    db: np.ndarray | None = None
    dC: object = None
    dd: np.ndarray | None = None

    def apply(self, problem: QpProblem, t: float) -> QpProblem:
        """The perturbed problem at parameter offset ``t`` along this direction."""
        P = problem.P + t * sp.csc_array(self.dP) if self.dP is not None else problem.P
        q = problem.q + t * np.asarray(self.dq) if self.dq is not None else problem.q
        A = problem.A + t * sp.csc_array(self.dA) if self.dA is not None else problem.A
        b = problem.b + t * np.asarray(self.db) if self.db is not None else problem.b
        C = problem.C + t * sp.csc_array(self.dC) if self.dC is not None else problem.C
        d = problem.d + t * np.asarray(self.dd) if self.dd is not None else problem.d
        return QpProblem(
            P, q,
            A if problem.p else None, b if problem.p else None,
            C if problem.m else None, d if problem.m else None,
        )


class GradientBundle:
    """Loss gradients with respect to the six parameter blocks.

    ``grad_q``, ``grad_b`` and ``grad_d`` are slices of the one adjoint
    solve and are set by :func:`backward`.  The matrix blocks ``grad_P``,
    ``grad_A`` and ``grad_C`` are built on first read from the adjoint
    vectors and the solution's (z, lam, mu), then kept; a caller that reads
    only the vector blocks never pays for them.  Matrix gradients share the
    sparsity pattern of the corresponding input block and grad_P is
    symmetric by construction.

    Only :func:`backward` builds a bundle.  It may be shared across threads:
    a matrix block's build is deterministic, so racing first reads get
    bit-identical arrays.
    """

    def __init__(self, problem, point, u_z, u_lam, u_mu):
        self.grad_q = -u_z
        self.grad_b = u_lam
        self.grad_d = u_mu
        # the matrix blocks read their own negated copies, so writing into
        # grad_q, grad_b or grad_d in place cannot change a block read later
        self._problem = problem
        self._z, self._lam, self._mu = point.z, point.lam, point.mu
        self._d_z, self._d_lam, self._d_mu = -u_z, -u_lam, -u_mu

    @cached_property
    def grad_P(self):
        return _pattern_outer(self._problem.P, self._d_z, self._z, self._z,
                              self._d_z, half=True)

    @cached_property
    def grad_A(self):
        return self._constraint_block(self._problem.A, self._d_lam, self._lam)

    @cached_property
    def grad_C(self):
        return self._constraint_block(self._problem.C, self._d_mu, self._mu)

    def _constraint_block(self, mat, d_dual, dual):
        if not mat.shape[0]:
            return sp.csc_array((0, self._problem.n))
        return _pattern_outer(mat, d_dual, self._z, dual, self._d_z)


@dataclass
class DifferentiableSolution:
    """Solved QP bundled with everything needed to differentiate it.

    ``point`` always carries duals.  ``fact`` is the single reduced-KKT
    factorization shared by dual recovery and all derivative solves; its
    ``rows`` equal ``active.indices``.  It is the backend's own
    (``point.fact``) when the backend's point is the point on the rows
    identified here, and a fresh one otherwise.  On certified rows the
    solver's primal z is kept as-is, so backend inaccuracy stays visible
    to diagnostics.  After a repair ``point`` is the certified point on
    the final rows, which solves the QP, with the backend's ``status`` and
    ``iterations``, and ``active`` has the residuals at that point.
    Treated as immutable once built: concurrent :func:`forward_directional`
    and :func:`backward` calls on one solution are safe.
    """

    problem: QpProblem
    point: PrimalDualPoint
    active: ActiveSet
    fact: KktFactorization
    diagnosis: DifferentiabilityDiagnosis
    solve_ms: float = 0.0
    prepare_ms: float = 0.0


def recover_duals(problem, z, active: ActiveSet, fact: KktFactorization):
    """Dual variables implied by the reduced KKT system at the active set.

    Solves K_J zeta = (-q, b, d_J) through ``fact``, which must be a
    factorization on the rows of ``active`` (else :class:`ValueError`), and
    keeps the dual blocks of the result; ``z`` is not read, because the
    caller keeps its own primal point.  When K_J is singular the duals are
    not unique and these are the minimum-norm ones.
    Returns ``(lam, mu)`` with mu scattered to full length (zero off J).
    """
    if not np.array_equal(active.indices, fact.rows):
        raise ValueError("fact is a factorization on rows other than the active set")
    point = _point_on(problem, active.indices, fact)
    return point.lam, point.mu


def forward_directional(sol: DifferentiableSolution, direction: ParamDirection):
    """Directional derivatives (dz, dlam, dmu) for a parameter perturbation.

    Solves the reduced system with right-hand side
    (-dq, db, dd_J) - dK_J (z, lam, mu_J); the mu block is scattered back to
    full length with zeros on inactive rows.
    """
    problem = sol.problem
    n, p, m = problem.n, problem.p, problem.m
    z = sol.point.z
    lam = sol.point.lam if p else np.zeros(0)

    top = np.zeros(n)
    if direction.dq is not None:
        dq = np.asarray(direction.dq, dtype=float).ravel()
        _check_len(dq, n, "dq")
        top += dq
    if direction.dP is not None:
        dP = _check_mat(direction.dP, (n, n), "dP")
        if not is_symmetric(dP):
            raise ValueError("dP must be symmetric")
        top += dP @ z
    mid = np.zeros(p)
    if direction.db is not None:
        db = np.asarray(direction.db, dtype=float).ravel()
        _check_len(db, p, "db")
        mid += db
    if direction.dA is not None:
        dA = _check_mat(direction.dA, (p, n), "dA")
        top += dA.T @ lam
        mid -= dA @ z
    bot = np.zeros(m)
    if direction.dd is not None:
        dd = np.asarray(direction.dd, dtype=float).ravel()
        _check_len(dd, m, "dd")
        bot += dd
    if direction.dC is not None:
        dC = _check_mat(direction.dC, (m, n), "dC")
        J = sol.fact.rows
        top += sp.csr_array(dC)[J].T @ sol.point.mu[J]
        bot -= dC @ z

    return solve_on(problem, sol.fact, -top, mid, bot)


def backward(sol: DifferentiableSolution, grad_z, grad_lam=None, grad_mu=None,
             ) -> GradientBundle:
    """Pull a loss gradient on (z, lam, mu) back to the problem parameters.

    Components of ``grad_mu`` on inactive rows cannot influence the result
    (complementary slackness) and are ignored.  The cost is one solve with
    ``sol.fact``; the matrix blocks of the returned bundle are built only
    when read.
    """
    problem = sol.problem
    n, p, m = problem.n, problem.p, problem.m

    gz = np.asarray(grad_z, dtype=float).ravel()
    _check_len(gz, n, "grad_z")
    gl = np.zeros(p)
    if grad_lam is not None:
        gl = np.asarray(grad_lam, dtype=float).ravel()
        _check_len(gl, p, "grad_lam")
    gm = np.zeros(m)
    if grad_mu is not None:
        gm = np.asarray(grad_mu, dtype=float).ravel()
        _check_len(gm, m, "grad_mu")
        off = np.setdiff1d(np.flatnonzero(gm != 0.0), sol.fact.rows)
        if off.size:
            log.debug(
                "backward: ignoring mu-gradient on %d inactive rows", off.size
            )

    # symmetric K_J: the adjoint solve is the same solve
    u_z, u_lam, u_mu = solve_on(problem, sol.fact, gz, gl, gm)
    return GradientBundle(problem, sol.point, u_z, u_lam, u_mu)


def _pattern_outer(mat, left, right, left2, right2, half=False):
    """(left right' + left2 right2') restricted to the sparsity pattern of mat.

    ``mat`` is a problem block, so its CSC arrays are canonical (sorted,
    duplicate-free) and the result reuses its pattern as is.
    """
    rows = mat.indices
    cols = np.repeat(np.arange(mat.shape[1]), np.diff(mat.indptr))
    vals = left[rows] * right[cols] + left2[rows] * right2[cols]
    if half:
        vals = 0.5 * vals
    return sp.csc_array((vals, rows.copy(), mat.indptr.copy()), shape=mat.shape)


def _check_len(vec, length, name):
    if vec.shape[0] != length:
        raise ValueError(f"{name} has length {vec.shape[0]}, expected {length}")


def _check_mat(mat, shape, name):
    out = sp.csc_array(mat)
    if out.shape != shape:
        raise ValueError(f"{name} has shape {out.shape}, expected {shape}")
    return out


def differentiable_solve(
    problem: QpProblem,
    backend: str | SolverBackend = "active_set",
    settings: SolveSettings | None = None,
    eps_active: float = DEFAULT_EPS_ACTIVE,
    normalize: bool = False,
) -> DifferentiableSolution:
    """Solve a QP with any registered backend and prepare its differentiation.

    Pipeline: (optional constraint normalization) -> solve -> active-set
    identification -> the point on J with its factorization, which
    certifies J and gives the duals if the backend returned none ->
    diagnosis.  The factorization is retained on the returned solution for
    any number of subsequent :func:`forward_directional` and
    :func:`backward` calls.

    The point on J is (z_J, lam_J, mu_J) = K_J^{-1} (-q, b, d_J): the
    backend's own, certified as it is, when it carries duals and the
    factorization of exactly the identified rows and no row scaling is
    active; else one solve with a fresh factorization.  J is certified when
    that point is finite, breaks no row by more than ``eps_active``, and
    has multipliers whose entries on J are all at least ``-eps_active``:
    its own on a ``direct`` K_J, and on a bordered one its minimum-norm
    duals moved along the null basis (:func:`qpdiff.solvers.certify`).
    An uncertified J (slack active rows from a barrier method, a slack row
    taken in by a loose threshold, or a row stated twice and held) is
    repaired by crossover rounds, one solve on a new J each
    (:func:`qpdiff.solvers._crossover`); the solution reports the certified
    point.  Its duals, and those given to a backend's point that has none,
    are the multipliers the certificate found.  Past
    ``qpdiff.solvers.CROSSOVER_ROUNDS`` rounds
    :class:`SolveFailedError` names the worst row, with the solver's point.

    With ``normalize`` the solver, the identification, the certificate and
    the diagnosis see the row-scaled problem (scale-invariant residuals,
    multipliers times the row norms); the factorization, duals and all
    gradients refer to the original problem, with backend duals unscaled
    accordingly.

    A backend that does not report success raises :class:`SolveFailedError`
    with the failed point attached.
    """
    settings = settings or SolveSettings()
    backend_obj = get_backend(backend) if isinstance(backend, str) else backend

    scaling = None
    work = problem
    if normalize:
        work, scaling = normalize_constraints(problem)

    t0 = time.perf_counter()
    point = backend_obj.solve(work, settings)
    t1 = time.perf_counter()
    if point.status != SOLVED:
        raise SolveFailedError(
            f"backend '{backend_obj.name}' returned status '{point.status}'", point
        )

    active = identify(work, point.z, eps_active)

    if scaling is not None:
        # the backend's duals and factorization belong to the scaled problem
        point = replace(point, fact=None)
        if point.has_duals:
            point.lam = point.lam / scaling.eq_scales
            point.mu = point.mu / scaling.ineq_scales

    # the backend's point on these rows is, bit for bit, a fresh point on J
    fact = point.fact
    if point.has_duals and fact is not None and np.array_equal(active.indices, fact.rows):
        on_J = point
    else:
        on_J = _point_on(problem, active.indices)
    # the first point is judged once, by the crossover; a point on another J
    # comes with a fresh factorization
    certified = _crossover(problem, work, on_J, point, eps_active, scaling)
    if certified.fact is not on_J.fact:
        # derivatives are read at the certified point, which solves the QP
        point = replace(certified, status=point.status, iterations=point.iterations)
        active = ActiveSet(indices=certified.fact.rows, eps=eps_active,
                           residuals=work.C @ certified.z - work.d)

    if not point.has_duals:
        point.lam, point.mu = certified.lam, certified.mu
    point.r_p, point.r_d = _primal_dual(problem, _blocks(problem), point.z, point.lam, point.mu)

    diag = diagnose(work, _in_frame(point, scaling), active, eps_active)
    t2 = time.perf_counter()

    return DifferentiableSolution(
        problem=problem,
        point=point,
        active=active,
        fact=certified.fact,
        diagnosis=diag,
        solve_ms=(t1 - t0) * 1e3,
        prepare_ms=(t2 - t1) * 1e3,
    )
