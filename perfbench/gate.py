"""Correctness gate: every timed instance is checked outside the timed window.

The checks use the library's public results and its independent oracle;
the random direction is drawn here rather than through the library so that
the gate does not depend on the code it checks.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from qpdiff import (
    DegeneracyError,
    ParamDirection,
    backward,
    forward_directional,
    full_implicit_jacobian,
    residuals,
)
from qpdiff.kkt import DIRECT

from workloads import EPS_ABS

ORACLE_MAX_ORDER = 2000  # dense unreduced system n + p + m
COMPLEMENTARITY_MARGIN = 1e-3
ADJOINT_RTOL = 1e-8
ORACLE_TOL = 1e-6
SYMMETRY_RTOL = 1e-8


def _on_pattern(mat, rng):
    coo = sp.coo_array(mat)
    return sp.csc_array(
        sp.coo_array(
            (rng.standard_normal(coo.nnz), (coo.row.copy(), coo.col.copy())),
            shape=mat.shape,
        )
    )


def random_direction(problem, instance_seed) -> ParamDirection:
    """Seeded direction on the sparsity patterns of all six blocks."""
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((instance_seed, 0xD1)))
    )
    dP = _on_pattern(problem.P, rng)
    return ParamDirection(
        dP=sp.csc_array((dP + dP.T) * 0.5),
        dq=rng.standard_normal(problem.n),
        dA=_on_pattern(problem.A, rng) if problem.p else None,
        db=rng.standard_normal(problem.p) if problem.p else None,
        dC=_on_pattern(problem.C, rng) if problem.m else None,
        dd=rng.standard_normal(problem.m) if problem.m else None,
    )


def _pairing(grads, direction):
    """Terms of <grads, direction> over the six blocks."""
    terms = []
    for g, d in (
        (grads.grad_q, direction.dq), (grads.grad_b, direction.db),
        (grads.grad_d, direction.dd),
    ):
        if g is not None and d is not None:
            terms.append(float(np.dot(g, d)))
    for g, d in (
        (grads.grad_P, direction.dP), (grads.grad_A, direction.dA),
        (grads.grad_C, direction.dC),
    ):
        if g is not None and d is not None:
            terms.append(float(sp.csc_array(g).multiply(d).sum()))
    return terms


def _strictly_complementary(problem, sol):
    idx = sol.active.indices
    inactive = np.setdiff1d(np.arange(problem.m), idx)
    mu_ok = not idx.size or sol.point.mu[idx].min() >= COMPLEMENTARITY_MARGIN
    slack_ok = (
        not inactive.size
        or np.abs(sol.active.residuals[inactive]).min() >= COMPLEMENTARITY_MARGIN
    )
    return mu_ok and slack_ok and sol.diagnosis.weakly_active.size == 0


def check_instance(sol, grad_z, outputs, instance_seed) -> list[str]:
    """Names of the checks this instance fails; empty when all pass."""
    problem = sol.problem
    failures = []

    res = residuals(problem, sol.point)
    if not (res.r_p <= EPS_ABS and res.r_d <= EPS_ABS):
        failures.append(f"residuals r_p={res.r_p:.2e} r_d={res.r_d:.2e} > {EPS_ABS}")

    if isinstance(outputs, np.ndarray):
        asym = np.abs(outputs - outputs.T).max()
        if asym > SYMMETRY_RTOL * max(np.abs(outputs).max(), 1.0):
            failures.append(f"dz/dq asymmetric by {asym:.2e}")
        grads = backward(sol, grad_z)
    else:
        grads = outputs[0]

    direction = random_direction(problem, instance_seed)
    dz, dlam, dmu = forward_directional(sol, direction)
    lhs = float(np.dot(grad_z, dz))
    terms = _pairing(grads, direction)
    scale = abs(lhs) + sum(abs(t) for t in terms)
    if abs(lhs - sum(terms)) > ADJOINT_RTOL * max(scale, 1.0):
        failures.append(f"adjoint identity off by {abs(lhs - sum(terms)):.2e}")

    order = problem.n + problem.p + problem.m
    if (
        order <= ORACLE_MAX_ORDER
        and sol.fact.mode == DIRECT
        and _strictly_complementary(problem, sol)
    ):
        try:
            full = np.concatenate(full_implicit_jacobian(problem, sol.point, direction))
        except DegeneracyError as exc:
            failures.append(f"oracle singular: {exc}")
        else:
            reduced = np.concatenate([dz, dlam, dmu])
            err = np.abs(reduced - full).max()
            if err > ORACLE_TOL * (1.0 + np.abs(full).max()):
                failures.append(f"forward differs from the oracle by {err:.2e}")
    return failures
