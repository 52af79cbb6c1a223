"""Diagnostic tools: solver profiling, gradient verification, conditioning.

These are the operational checks a user runs before trusting a solver or a
gradient: time each backend across tolerance regimes, compare the backward
pass against finite differences and the unreduced implicit system, and
compare conditioning of the full versus reduced sensitivity systems.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .differentiation import ParamDirection, backward, differentiable_solve, forward_directional
from .errors import QpdiffError
from .generators import TWO_PARAM_BOX, gen_two_param_family
from .kkt import condition_estimate
from .metrics import residuals
from .oracles import finite_difference_jacobian, full_implicit_jacobian, full_implicit_matrix
from .solvers import DEFAULT_TIME_LIMIT, SOLVED, SolveSettings, get_backend

__all__ = [
    "profile_backends",
    "GradientCheck",
    "check_gradients",
    "random_direction",
    "conditioning_report",
]

# the largest relative gradient error check_gradients passes by default
GRADIENT_REL_TOL = 1e-4
# stored entries of each of P, A and C that check_gradients samples
MATRIX_ENTRIES = 4


def profile_backends(problem, backends, tolerances=(1e-8, 1e-5, 1e-2),
                     time_limit=DEFAULT_TIME_LIMIT) -> list[dict]:
    """Run every backend at every tolerance regime and report achieved accuracy.

    A cell "meets" its regime when the recomputed residuals are within the
    regime tolerance; backends that fail a regime are marked, not ranked.
    """
    cells = []
    for tol in tolerances:
        for name in backends:
            backend = get_backend(name)
            settings = SolveSettings(eps_abs=tol, time_limit=time_limit)
            t0 = time.perf_counter()
            try:
                point = backend.solve(problem, settings)
                solve_ms = (time.perf_counter() - t0) * 1e3
                if point.has_duals:
                    res = residuals(problem, point)
                    r_p, r_d = res.r_p, res.r_d
                else:
                    r_p, r_d = point.r_p, point.r_d
                meets = point.status == SOLVED and r_p <= tol and r_d <= tol
                cells.append(
                    dict(backend=name, tolerance=tol, status=point.status,
                         solve_ms=solve_ms, r_p=r_p, r_d=r_d, meets=meets)
                )
            except QpdiffError as exc:
                cells.append(
                    dict(backend=name, tolerance=tol, status=f"error: {exc}",
                         solve_ms=np.nan, r_p=np.nan, r_d=np.nan, meets=False)
                )
    return cells


def fastest_per_tolerance(cells) -> dict:
    """Name of the fastest backend meeting each tolerance (None if nobody does)."""
    best = {}
    for cell in cells:
        prev = best.setdefault(cell["tolerance"], None)
        if cell["meets"] and (prev is None or cell["solve_ms"] < prev["solve_ms"]):
            best[cell["tolerance"]] = cell
    return {tol: None if cell is None else cell["backend"] for tol, cell in best.items()}


def random_direction(problem, rng, blocks=("P", "q", "A", "b", "C", "d")
                     ) -> ParamDirection:
    """Random parameter direction confined to the problem's sparsity patterns.

    The P-block direction is symmetrized so it stays a valid curvature
    perturbation.
    """

    def on_pattern(mat):
        coo = sp.coo_array(mat)
        return sp.coo_array(
            (rng.standard_normal(coo.nnz), (coo.row.copy(), coo.col.copy())),
            shape=mat.shape,
        )

    dP = dq = dA = db = dC = dd = None
    if "P" in blocks and problem.P.nnz:
        raw = on_pattern(problem.P)
        dP = sp.csc_array((raw + raw.T) * 0.5)
    if "q" in blocks:
        dq = rng.standard_normal(problem.n)
    if "A" in blocks and problem.A.nnz:
        dA = sp.csc_array(on_pattern(problem.A))
    if "b" in blocks and problem.p:
        db = rng.standard_normal(problem.p)
    if "C" in blocks and problem.C.nnz:
        dC = sp.csc_array(on_pattern(problem.C))
    if "d" in blocks and problem.m:
        dd = rng.standard_normal(problem.m)
    return ParamDirection(dP=dP, dq=dq, dA=dA, db=db, dC=dC, dd=dd)


@dataclass
class GradientCheck:
    """Outcome of comparing the backward pass against independent oracles.

    ``block_errors`` holds the largest relative error of each group (``qbd``,
    ``P``, ``A``, ``C``, ``forward_vs_implicit``); ``max_rel_error`` is their
    maximum, NaN if any is.  ``flagged_columns`` are labelled ``qbd[k]`` or
    ``P[i,j]``.
    """

    passed: bool
    skipped: bool = False
    notice: str = ""
    max_rel_error: float = float("nan")
    block_errors: dict = field(default_factory=dict)
    flagged_columns: list = field(default_factory=list)


def check_gradients(problem, backend="active_set", h=1e-6, seed=0,
                    rel_tol=GRADIENT_REL_TOL) -> GradientCheck:
    """Verify backward gradients against independent oracles.

    For a random scalar loss g'z, each parameter group gets one
    central-difference Jacobian (step ``h``, finite and positive) whose
    columns are every entry of (q, b, d), or ``MATRIX_ENTRIES`` sampled
    stored entries of P, A or C; a random forward directional derivative is
    compared against the unreduced implicit system.  Columns where the
    finite-difference samples change active set are excluded from the pass
    criterion and reported.  Weakly active problems are skipped with a
    notice.
    """
    # written so that NaN is rejected as well
    if not 0 < h < np.inf:
        raise ValueError("h must be finite and positive")
    sol = differentiable_solve(problem, backend)
    if sol.diagnosis.weakly_active.size:
        return GradientCheck(
            passed=True, skipped=True,
            notice=f"weakly active rows {sol.diagnosis.weakly_active.tolist()}; "
                   "gradient is not defined here",
        )

    n, p, m = problem.n, problem.p, problem.m
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xC6))))
    g_z = rng.standard_normal(n)
    bundle = backward(sol, g_z)

    block_errors = {}
    flagged = []

    def compare(name, labels, direction, analytic):
        """One finite-difference Jacobian over a group's columns; the
        columns it flags are reported and left out."""
        fd = finite_difference_jacobian(
            lambda th: direction(th).apply(problem, 1.0),
            np.zeros(len(labels)), h, backend,
        )
        flagged.extend(labels[k] for k in fd.flagged_columns)
        keep = np.setdiff1d(np.arange(len(labels)), fd.flagged_columns)
        if keep.size:
            fd_loss_grad = fd.matrix[:n].T @ g_z
            block_errors[name] = _rel_err(analytic[keep], fd_loss_grad[keep])

    compare("qbd", [f"qbd[{k}]" for k in range(n + p + m)],
            lambda th: ParamDirection(dq=th[:n], db=th[n : n + p], dd=th[n + p :]),
            np.concatenate([bundle.grad_q, bundle.grad_b, bundle.grad_d]))
    # sampled stored entries E_k of P, A, C, moved together as sum_k th_k E_k
    for name, mat in (("P", problem.P), ("A", problem.A), ("C", problem.C)):
        if mat.nnz == 0:
            continue
        coo = sp.coo_array(mat)
        picks = rng.choice(coo.nnz, size=min(MATRIX_ENTRIES, coo.nnz), replace=False)
        labels, units = [], []
        for k in picks:
            i, j = int(coo.row[k]), int(coo.col[k])
            unit = sp.csc_array(([1.0], ([i], [j])), shape=mat.shape)
            labels.append(f"{name}[{i},{j}]")
            # a P entry moves with its mirror
            units.append(unit + unit.T if name == "P" and i != j else unit)
        grad = getattr(bundle, f"grad_{name}")
        compare(name, labels,
                lambda th: ParamDirection(**{f"d{name}": sum(t * E for t, E in zip(th, units))}),
                np.array([grad.multiply(E).sum() for E in units]))

    # forward directional derivative against the unreduced implicit system
    direction = random_direction(problem, rng)
    fwd = np.concatenate(forward_directional(sol, direction))
    imp = np.concatenate(full_implicit_jacobian(problem, sol.point, direction))
    block_errors["forward_vs_implicit"] = _rel_err(fwd, imp)

    # np.max, unlike max, keeps a NaN wherever it is
    max_err = float(np.max(list(block_errors.values())))
    return GradientCheck(
        passed=max_err <= rel_tol,
        max_rel_error=max_err,
        block_errors=block_errors,
        flagged_columns=flagged,
    )


def _rel_err(a, b):
    denom = np.maximum(1.0, np.abs(b))
    return float((np.abs(a - b) / denom).max(initial=0.0))


def conditioning_report(n_samples=20, seed=0, backend="active_set",
                        margin=0.05) -> list[dict]:
    """Condition numbers of the full and reduced sensitivity systems.

    Samples the two-parameter family inside its box (shrunk by ``margin`` to
    stay away from region boundaries), solves each instance, and estimates
    the condition number of the unreduced implicit matrix and of the reduced
    KKT matrix.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    (t1_lo, t1_hi), (t2_lo, t2_hi) = TWO_PARAM_BOX
    w1, w2 = t1_hi - t1_lo, t2_hi - t2_lo
    records = []
    for _ in range(n_samples):
        theta1 = rng.uniform(t1_lo + margin * w1, t1_hi - margin * w1)
        theta2 = rng.uniform(t2_lo + margin * w2, t2_hi - margin * w2)
        problem = gen_two_param_family(theta1, theta2)
        sol = differentiable_solve(problem, backend)
        records.append(
            dict(
                theta1=theta1,
                theta2=theta2,
                active=sol.active.indices.tolist(),
                cond_full=condition_estimate(full_implicit_matrix(problem, sol.point)),
                cond_reduced=condition_estimate(sol.fact.matrix),
                strictly_complementary=sol.diagnosis.weakly_active.size == 0,
            )
        )
    return records
