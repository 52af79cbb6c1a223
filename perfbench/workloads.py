"""The benchmark's workloads: seeded instance lists and their derivative calls.

Each workload stresses a different layer of a differentiated solve, so a
change aimed at one layer has a workload where it should show and others
where the prediction is no change:

- ``dense-admm``: the ADMM backend (``solvers``) is almost all of the time.
- ``sparse-degenerate``: a redundant equality row makes the reduced KKT matrix
  singular, so ``kkt.factorize`` takes its dense least-squares fallback.
- ``dense-active-set``: the dense active-set backend rebuilds a saddle system
  every iteration.
- ``dense-jacobian``: the instances of ``dense-admm``, but one factorization
  serves ``n`` backward calls, so derivative work (``differentiation``,
  ``kkt.solve``) dominates.

Sizes are chosen so that a 25-second run sees tens to hundreds of instances.
Failures are rare: the active-set backend cycles to its iteration cap on
about one ``dense-active-set`` instance in 500.  Backends stop on iteration
count, never on a wall-clock limit, so a failure repeats on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from qpdiff import (
    QpProblem,
    SolveSettings,
    backward,
    gen_random_dense,
    gen_simplex,
)

EPS_ABS = 1e-6
SETTINGS = SolveSettings(eps_abs=EPS_ABS, time_limit=None)


def _redundant_simplex(n):
    """Simplex projection with its sum-to-one row stated twice.

    The rows are consistent, so the solution is unchanged, but [A; C_J] loses
    a rank and K_J is singular: duals are not unique (LICQ fails).
    """

    def make(seed):
        base = gen_simplex(n, seed)[0]
        return QpProblem(
            base.P, base.q,
            sp.vstack([base.A, base.A]), np.concatenate([base.b, base.b]),
            base.C, base.d,
        )

    return make


def _dense(n):
    return lambda seed: gen_random_dense(n, seed)


def one_backward(sol, grad_z, bwd=backward):
    """One loss gradient pulled back; returns the gradient bundles."""
    return [bwd(sol, grad_z)]


def full_jacobian(sol, grad_z, bwd=backward):
    """dz/dq column by column: one backward call per unit ``grad_z = e_i``.

    Only ``grad_q`` of each call is kept, which is row ``i`` of dz/dq.
    """
    n = sol.problem.n
    rows = np.empty((n, n))
    unit = np.zeros(n)
    for i in range(n):
        unit[i] = 1.0
        rows[i] = bwd(sol, unit).grad_q
        unit[i] = 0.0
    return rows


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    make: Callable[[int], QpProblem]
    derive: Callable
    pool: int  # instances generated during set-up; the run cycles through them


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-admm", "admm", _dense(200), one_backward, pool=80),
        Workload("sparse-degenerate", "admm", _redundant_simplex(300), one_backward,
                 pool=160),
        Workload("dense-active-set", "active_set", _dense(150), one_backward, pool=64),
        Workload("dense-jacobian", "admm", _dense(200), full_jacobian, pool=24),
    )
}


def instance_seeds(seed: int, count: int) -> list[int]:
    """Generator seeds of a run's instances, in the order they run."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def loss_gradient(problem: QpProblem, instance_seed: int) -> np.ndarray:
    """Standard-normal ``grad_z`` for one instance."""
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((instance_seed, 0xB0)))
    )
    return rng.standard_normal(problem.n)
