import numpy as np
import pytest

from qpdiff import (
    DegeneracyError,
    EnumerationLimitError,
    InfeasibleProblemError,
    ParamDirection,
    QpProblem,
    brute_force_solve,
    differentiable_solve,
    finite_difference_jacobian,
    forward_directional,
    full_implicit_jacobian,
    identify,
    residuals,
    solve_active_set,
)

from helpers import dense_equality_qp, random_mixed_qp, simplex_projection_sort


def simplex_problem(x):
    x = np.asarray(x, dtype=float)
    n = x.size
    return QpProblem(
        2 * np.eye(n), -2 * x, A=np.ones((1, n)), b=[1.0],
        C=np.vstack([-np.eye(n), np.eye(n)]),
        d=np.concatenate([np.zeros(n), np.ones(n)]),
    )


class TestBruteForce:
    def test_one_dimensional_bound(self):
        prob = QpProblem([[1.0]], [0.0], C=[[1.0]], d=[-1.0])
        point = brute_force_solve(prob)
        np.testing.assert_allclose(point.z, [-1.0], atol=1e-12)
        np.testing.assert_allclose(point.mu, [1.0], atol=1e-12)
        np.testing.assert_array_equal(identify(prob, point.z).indices, [0])

    def test_slack_constraints_reduce_to_unconstrained(self):
        rng = np.random.Generator(np.random.PCG64(1))
        W = rng.standard_normal((4, 4))
        P = W.T @ W + np.eye(4)
        q = rng.standard_normal(4)
        prob = QpProblem(P, q, C=rng.standard_normal((3, 4)), d=1e6 * np.ones(3))
        point = brute_force_solve(prob)
        np.testing.assert_allclose(point.z, np.linalg.solve(P, -q), atol=1e-9)
        assert identify(prob, point.z).size == 0

    def test_simplex_clipping_matches_active_set_solver(self):
        prob = simplex_problem([0.9, 0.9, 0.9])
        brute = brute_force_solve(prob)
        exact = solve_active_set(prob)
        np.testing.assert_allclose(brute.z, exact.z, atol=1e-8)
        np.testing.assert_allclose(brute.z, [1 / 3, 1 / 3, 1 / 3], atol=1e-9)

    def test_kkt_conditions_hold(self):
        for seed in range(20):
            prob = random_mixed_qp(5, 6, 2, seed=700 + seed)
            point = brute_force_solve(prob)
            res = residuals(prob, point)
            assert res.r_p <= 1e-8
            assert res.r_d <= 1e-8
            assert res.r_g <= 1e-10
            assert point.mu.min(initial=0.0) >= -1e-10

    def test_enumeration_guard(self):
        prob = random_mixed_qp(4, 2, 0, seed=0)
        big = QpProblem(
            prob.P, prob.q,
            C=np.ones((21, 4)) + np.arange(21)[:, None], d=np.ones(21),
        )
        with pytest.raises(EnumerationLimitError):
            brute_force_solve(big)

    def test_infeasible_reported(self):
        prob = QpProblem([[1.0]], [0.0], C=[[1.0], [-1.0]], d=[-1.0, -2.0])
        with pytest.raises(InfeasibleProblemError):
            brute_force_solve(prob)


class TestFiniteDifferences:
    def test_bound_sensitivity(self):
        def param_map(theta):
            return QpProblem([[1.0]], [0.0], C=[[1.0]], d=[-1.0 + theta[0]])

        jac = finite_difference_jacobian(param_map, np.zeros(1))
        assert jac.flagged_columns == []
        # rows are (z, mu): dz/dd = 1
        np.testing.assert_allclose(jac.matrix[0, 0], 1.0, atol=1e-6)

    def test_unconstrained_cost_jacobian_is_minus_identity(self):
        def param_map(theta):
            return QpProblem(np.eye(3), theta)

        jac = finite_difference_jacobian(param_map, np.array([1.0, -1.0, 0.5]))
        np.testing.assert_allclose(jac.matrix[:3], -np.eye(3), atol=1e-6)

    def test_simplex_input_jacobian_closed_form(self):
        x0 = np.array([0.6, 0.2])

        def param_map(theta):
            return simplex_problem(theta)

        jac = finite_difference_jacobian(param_map, x0)
        np.testing.assert_allclose(
            jac.matrix[:2], [[0.5, -0.5], [-0.5, 0.5]], atol=1e-6
        )
        # cross-check the reduced-system forward path, dx = e1 means dq = -2 e1
        sol = differentiable_solve(simplex_problem(x0))
        dz, _, _ = forward_directional(sol, ParamDirection(dq=np.array([-2.0, 0.0])))
        np.testing.assert_allclose(jac.matrix[:2, 0], dz, atol=1e-6)

    def test_active_set_change_flagged(self):
        # minimize 0.5 z^2 - theta z s.t. z <= 0 kinks at theta = 0
        def param_map(theta):
            return QpProblem([[1.0]], [-theta[0]], C=[[1.0]], d=[0.0])

        jac = finite_difference_jacobian(param_map, np.zeros(1))
        assert jac.flagged_columns == [0]


class TestFullImplicit:
    def test_matches_forward_on_bound_shift(self):
        prob = QpProblem([[1.0]], [0.0], C=[[1.0]], d=[-1.0])
        sol = differentiable_solve(prob)
        direction = ParamDirection(dd=np.array([1.0]))
        dz_full, _, dmu_full = full_implicit_jacobian(prob, sol.point, direction)
        np.testing.assert_allclose(dz_full, [1.0], atol=1e-12)
        np.testing.assert_allclose(dmu_full, [-1.0], atol=1e-12)

    def test_equality_only_reduces_to_saddle_sensitivity(self):
        rng = np.random.Generator(np.random.PCG64(2))
        W = rng.standard_normal((4, 4))
        P = W.T @ W + np.eye(4)
        q = rng.standard_normal(4)
        A = rng.standard_normal((2, 4))
        b = rng.standard_normal(2)
        prob = QpProblem(P, q, A=A, b=b)
        sol = differentiable_solve(prob)
        db = np.array([1.0, -2.0])
        dz, dlam, _ = full_implicit_jacobian(prob, sol.point, ParamDirection(db=db))
        # direct sensitivity of the saddle system
        h = 1e-7
        z_plus, lam_plus = dense_equality_qp(P, q, A, b + h * db)
        z_minus, lam_minus = dense_equality_qp(P, q, A, b - h * db)
        np.testing.assert_allclose(dz, (z_plus - z_minus) / (2 * h), atol=1e-6)
        np.testing.assert_allclose(dlam, (lam_plus - lam_minus) / (2 * h), atol=1e-6)

    def test_degenerate_problem_raises_naming_rows(self):
        prob = QpProblem([[1.0]], [0.0], C=[[1.0]], d=[0.0])
        sol_point = solve_active_set(prob)
        with pytest.raises(DegeneracyError, match=r"\[0\]"):
            full_implicit_jacobian(prob, sol_point, ParamDirection(dd=np.array([1.0])))


class TestFdForwardAgreement:
    def test_stable_columns_match_forward_directional(self):
        h = 1e-6
        prob = random_mixed_qp(5, 6, 2, seed=42)
        sol = differentiable_solve(prob)
        n, p, m = prob.n, prob.p, prob.m

        def param_map(theta):
            return QpProblem(
                prob.P, prob.q + theta[:n], prob.A, prob.b + theta[n : n + p],
                prob.C, prob.d + theta[n + p :],
            )

        jac = finite_difference_jacobian(param_map, np.zeros(n + p + m), h)
        tol = max(1e-4, 10 * h)
        for k in range(n + p + m):
            if k in jac.flagged_columns:
                continue
            direction = ParamDirection(
                dq=np.eye(n + p + m)[k][:n],
                db=np.eye(n + p + m)[k][n : n + p],
                dd=np.eye(n + p + m)[k][n + p :],
            )
            analytic = np.concatenate(forward_directional(sol, direction))
            np.testing.assert_allclose(
                analytic, jac.matrix[:, k], atol=tol, err_msg=f"column {k}"
            )


class TestSimplexOracleAgreement:
    def test_sort_projection_matches_brute_force(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(10):
            x = rng.standard_normal(4)
            prob = simplex_problem(x)
            brute = brute_force_solve(prob)
            np.testing.assert_allclose(
                brute.z, simplex_projection_sort(x), atol=1e-9
            )
