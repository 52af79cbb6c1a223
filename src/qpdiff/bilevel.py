"""Toy bi-level optimization: drive the inner QP's dual norm to zero.

The outer problem minimizes ||mu*(theta)||^2 where theta shifts the
inequality right-hand side, d(theta) = d0 + theta.  Each outer iteration
solves the inner QP, pulls the loss gradient back through the solution map
(only the d-block is unmasked), and takes a gradient step with optional
halving on loss increase.  Once every constraint is inactive the duals
vanish and the loss is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .differentiation import ParamDirection, backward, differentiable_solve
from .errors import QpdiffError
from .identification import DEFAULT_EPS_ACTIVE
from .problem import QpProblem, _is_int
from .solvers import SolveSettings

__all__ = ["BilevelConfig", "BilevelResult", "run_bilevel", "toy_bilevel_config"]


@dataclass
class BilevelConfig:
    """Inner problem template and outer-loop hyperparameters.

    ``problem`` holds the base right-hand side d0; the decision variable
    theta enters as d(theta) = d0 + theta.  ``max_iterations`` is an integer
    of at least 0 outer steps, and ``target`` a finite loss.
    """

    problem: QpProblem
    theta0: np.ndarray
    step_size: float = 1e-2
    max_iterations: int = 500
    target: float = 1e-10
    backend: str = "active_set"
    eps_abs: float = SolveSettings.eps_abs
    eps_active: float = DEFAULT_EPS_ACTIVE
    warm_start: bool = False

    def __post_init__(self):
        if not self.step_size > 0:
            raise ValueError("step_size must be positive")
        if not _is_int(self.max_iterations) or self.max_iterations < 0:
            raise ValueError("max_iterations must be an integer, at least 0")
        if not np.isfinite(self.target):
            raise ValueError("target must be finite")
        self.theta0 = np.asarray(self.theta0, dtype=float).ravel()
        if self.theta0.shape[0] != self.problem.m:
            raise ValueError("theta0 must have one entry per inequality row")


@dataclass
class BilevelResult:
    theta: np.ndarray
    losses: list = field(default_factory=list)
    active_sizes: list = field(default_factory=list)
    set_changes: list = field(default_factory=list)
    halvings: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    final_active: np.ndarray | None = None
    final_mu: np.ndarray | None = None


def run_bilevel(config: BilevelConfig, log_fn=None) -> BilevelResult:
    """Gradient descent on ||mu*||^2 over the inequality offsets.

    Stops when the loss reaches ``target`` or the iteration budget runs out.
    On a loss increase the step is halved and the iterate reverted, so the
    recorded loss sequence is non-increasing.  Any outer optimizer could
    consume the same gradients; plain descent keeps the iteration log easy
    to reason about.
    """
    theta = config.theta0.copy()
    step = config.step_size
    settings = SolveSettings(eps_abs=config.eps_abs)
    result = BilevelResult(theta=theta)
    prev = None  # (theta, loss, sol)
    prev_active = None

    for it in range(config.max_iterations + 1):
        try:
            sol = differentiable_solve(
                ParamDirection(dd=theta).apply(config.problem, 1.0),
                config.backend,
                settings,
                eps_active=config.eps_active,
            )
        except QpdiffError as exc:
            result.iterations = it
            if log_fn:
                log_fn(f"iteration {it}: inner solve failed: {exc}")
            return result

        mu = sol.point.mu
        loss = float(mu @ mu)

        if prev is not None and loss > prev[1] * (1.0 + 1e-12):
            theta, _, sol = prev
            mu = sol.point.mu
            loss = prev[1]
            step *= 0.5
            result.halvings.append(it)
            if log_fn:
                log_fn(f"iteration {it}: loss increased, halving step to {step:g}")

        result.losses.append(loss)
        result.active_sizes.append(sol.active.size)
        if prev_active is not None and not np.array_equal(
            prev_active, sol.active.indices
        ):
            result.set_changes.append(it)
        prev_active = sol.active.indices
        if log_fn:
            log_fn(
                f"iteration {it}: loss={loss:.6e} |J|={sol.active.size} step={step:g}"
            )

        result.theta = theta
        result.iterations = it
        result.final_active = sol.active.indices
        result.final_mu = mu
        if loss <= config.target:
            result.converged = True
            break
        if it == config.max_iterations:
            break

        bundle = backward(
            sol,
            grad_z=np.zeros(config.problem.n),
            grad_mu=2.0 * mu,
        )
        grad_theta = bundle.grad_d  # d(theta) = d0 + theta, identity chain rule
        if config.warm_start:
            settings = SolveSettings(eps_abs=config.eps_abs, warm_start=sol.point)
        prev = (theta, loss, sol)
        theta = theta - step * grad_theta

    return result


def toy_bilevel_config(**overrides) -> BilevelConfig:
    """Two-variable demo whose constraints all deactivate along the descent.

    min 0.5 ||z||^2 + (1, 1)'z  s.t.  0.3 z <= -0.45 + theta, starting at
    theta = 0 where both rows are active with mu = 5/3.  Loosening d past
    -0.3 frees the unconstrained optimum (-1, -1), at which point mu = 0
    exactly and the loss hits zero.
    """
    problem = QpProblem(
        sp.identity(2, format="csc"),
        np.array([1.0, 1.0]),
        C=0.3 * sp.identity(2, format="csc"),
        d=np.array([-0.45, -0.45]),
    )
    params = dict(problem=problem, theta0=np.zeros(2))
    params.update(overrides)
    return BilevelConfig(**params)
