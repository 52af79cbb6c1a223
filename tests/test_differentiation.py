import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from qpdiff import (
    ParamDirection,
    QpProblem,
    SolveFailedError,
    SolveSettings,
    backward,
    differentiable_solve,
    differentiation,
    forward_directional,
    gen_random_dense,
    gen_simplex,
    gen_two_param_family,
    get_backend,
    identify,
    random_direction,
    recover_duals,
)
from qpdiff.kkt import (
    DENSE,
    DIRECT,
    LEAST_SQUARES,
    SPARSE,
    assemble_reduced_kkt,
    factorize,
    solve_on,
)
from qpdiff.generators import TWO_PARAM_BREAKS
from qpdiff.oracles import full_implicit_jacobian
from qpdiff.solvers import (
    AdmmBackend,
    PrimalDualPoint,
    SolverBackend,
)

from helpers import (
    PrimalOnlyBackend,
    TrustConstrBackend,
    complementarity_margins,
    count_matrix_builds,
    dense_equality_qp,
    dims_for_seed,
    parameter_pairing,
    random_mixed_qp,
    solve_active_set,
)


def one_dee():
    return QpProblem([[1.0]], [0.0], C=[[1.0]], d=[-1.0])


def two_dee():
    return QpProblem(np.eye(2), np.zeros(2), C=[[-1.0, -1.0]], d=[-1.0])


def primal_only(name="active_set"):
    return PrimalOnlyBackend(get_backend(name))


class TestRecoverDuals:
    def test_one_dimensional(self):
        sol = differentiable_solve(one_dee(), primal_only())
        np.testing.assert_allclose(sol.point.mu, [1.0], atol=1e-10)

    def test_two_dimensional(self):
        sol = differentiable_solve(two_dee(), primal_only())
        np.testing.assert_allclose(sol.point.mu, [0.5], atol=1e-10)

    def test_recovered_match_solver_duals_on_random_problems(self):
        for seed in range(50):
            prob = random_mixed_qp(5 + seed % 5, 3 + seed % 8, seed % 3, seed=seed)
            exact = solve_active_set(prob)
            assert exact.status == "solved"
            active = identify(prob, exact.z, 1e-5)
            fact = factorize(assemble_reduced_kkt(prob, active))
            lam, mu = recover_duals(prob, exact.z, active, fact)
            np.testing.assert_allclose(mu, exact.mu, atol=1e-6, err_msg=f"seed {seed}")
            if prob.p:
                np.testing.assert_allclose(lam, exact.lam, atol=1e-6)

    def test_factorization_on_other_rows_raises(self):
        # the optimum (-2, -3) holds row 0 tight; a factorization on row 1
        # alone has the same order and would give mu = (-1, 0), not (1, 0)
        prob = QpProblem(np.eye(2), [1.0, 3.0], C=np.eye(2), d=[-2.0, 5.0])
        z = np.array([-2.0, -3.0])
        active = identify(prob, z)
        np.testing.assert_array_equal(active.indices, [0])
        fact = factorize(assemble_reduced_kkt(prob, np.array([1])))
        with pytest.raises(ValueError, match="rows"):
            recover_duals(prob, z, active, fact)

    def test_least_squares_mode_minimizes_stationarity(self):
        # duplicated active row: K_J singular, duals from least squares
        prob = QpProblem([[1.0]], [0.0], C=[[1.0], [1.0]], d=[-1.0, -1.0])
        z = np.array([-1.0])
        active = identify(prob, z, 1e-5)
        fact = factorize(assemble_reduced_kkt(prob, active))
        assert fact.mode == LEAST_SQUARES
        lam, mu = recover_duals(prob, z, active, fact)
        stationarity = prob.P @ z + prob.q + prob.C.T @ mu
        assert np.abs(stationarity).max() < 1e-10
        # minimum-norm split of the needed total multiplier
        np.testing.assert_allclose(mu, [0.5, 0.5], atol=1e-10)


class TestForwardDirectional:
    def test_bound_shift(self):
        sol = differentiable_solve(one_dee())
        dz, _, dmu = forward_directional(sol, ParamDirection(dd=np.array([1.0])))
        np.testing.assert_allclose(dz, [1.0], atol=1e-12)
        np.testing.assert_allclose(dmu, [-1.0], atol=1e-12)

    def test_cost_shift_pinned_by_active_constraint(self):
        sol = differentiable_solve(one_dee())
        dz, _, dmu = forward_directional(sol, ParamDirection(dq=np.array([1.0])))
        np.testing.assert_allclose(dz, [0.0], atol=1e-12)
        np.testing.assert_allclose(dmu, [-1.0], atol=1e-12)

    def test_simplex_interior_matches_centered_projection(self):
        x = np.array([0.6, 0.2])
        prob = QpProblem(
            2 * np.eye(2), -2 * x, A=[[1.0, 1.0]], b=[1.0],
            C=np.vstack([-np.eye(2), np.eye(2)]), d=[0.0, 0.0, 1.0, 1.0],
        )
        sol = differentiable_solve(prob)
        # moving x along e1 means dq = -2 e1
        dz, _, _ = forward_directional(sol, ParamDirection(dq=np.array([-2.0, 0.0])))
        np.testing.assert_allclose(dz, [0.5, -0.5], atol=1e-10)

        # cross-check by central differences on x
        h = 1e-6
        def solve_at(x_pert):
            pert = QpProblem(
                2 * np.eye(2), -2 * x_pert, A=[[1.0, 1.0]], b=[1.0],
                C=np.vstack([-np.eye(2), np.eye(2)]), d=[0.0, 0.0, 1.0, 1.0],
            )
            return solve_active_set(pert).z

        fd = (solve_at(x + [h, 0.0]) - solve_at(x - [h, 0.0])) / (2 * h)
        np.testing.assert_allclose(dz, fd, atol=1e-6)

    def test_shape_mismatch(self):
        sol = differentiable_solve(one_dee())
        with pytest.raises(ValueError):
            forward_directional(sol, ParamDirection(dq=np.ones(3)))

    def test_asymmetric_curvature_direction_rejected(self):
        prob = QpProblem(np.eye(2), np.zeros(2), C=[[-1.0, -1.0]], d=[-1.0])
        sol = differentiable_solve(prob)
        with pytest.raises(ValueError, match="symmetric"):
            forward_directional(
                sol, ParamDirection(dP=np.array([[0.0, 1.0], [0.0, 0.0]]))
            )


class TestBackward:
    def test_two_dimensional_closed_form(self):
        sol = differentiable_solve(two_dee())
        bundle = backward(sol, np.array([1.0, 0.0]))
        np.testing.assert_allclose(bundle.grad_q, [-0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(bundle.grad_d, [-0.5], atol=1e-12)

    def test_unconstrained_identity(self):
        prob = QpProblem(np.eye(3), np.array([1.0, -1.0, 2.0]))
        sol = differentiable_solve(prob)
        g = np.array([0.3, -0.7, 1.1])
        bundle = backward(sol, g)
        np.testing.assert_allclose(bundle.grad_q, -g, atol=1e-12)

    def test_grad_p_symmetric_and_pattern_confined(self):
        prob = random_mixed_qp(6, 5, 2, seed=21)
        sol = differentiable_solve(prob)
        bundle = backward(sol, np.ones(6))
        gp = bundle.grad_P
        assert (abs(gp - gp.T)).max() < 1e-12
        assert gp.nnz <= prob.P.nnz
        # sparse problem: pattern strictly respected
        sparse_prob = QpProblem(
            sp.diags_array([2.0, 3.0, 4.0], format="csc"),
            np.ones(3),
            C=sp.csc_array(np.array([[1.0, 0.0, 0.0]])), d=[5.0],
        )
        sparse_sol = differentiable_solve(sparse_prob)
        gp = backward(sparse_sol, np.ones(3)).grad_P
        off_diag = gp - sp.diags_array(gp.diagonal())
        assert abs(off_diag).max() == 0.0 if off_diag.nnz else True
        assert gp.nnz <= 3

    def test_inactive_mu_gradient_has_no_influence(self):
        prob = random_mixed_qp(5, 6, 1, seed=22)
        sol = differentiable_solve(prob)
        inactive = np.setdiff1d(np.arange(prob.m), sol.active.indices)
        assert inactive.size > 0
        grad_mu = np.zeros(prob.m)
        grad_mu[inactive] = 123.0
        with_junk = backward(sol, np.ones(5), grad_mu=grad_mu)
        without = backward(sol, np.ones(5))
        np.testing.assert_array_equal(with_junk.grad_q, without.grad_q)
        np.testing.assert_array_equal(
            with_junk.grad_C.toarray(), without.grad_C.toarray()
        )


def same_block(a, b):
    if a is None or b is None:
        return a is None and b is None
    if hasattr(a, "indptr"):
        return a.shape == b.shape and all(
            np.array_equal(getattr(a, k), getattr(b, k))
            for k in ("indptr", "indices", "data")
        )
    return np.array_equal(a, b)


class TestLazyMatrixBlocks:
    def test_jacobian_loop_reading_grad_q_builds_no_matrix_block(self, monkeypatch):
        prob = random_mixed_qp(20, 12, 2, seed=24)
        sol = differentiable_solve(prob)
        calls = count_matrix_builds(monkeypatch)
        unit = np.zeros(prob.n)
        rows = np.empty((prob.n, prob.n))
        for i in range(prob.n):
            unit[i] = 1.0
            rows[i] = backward(sol, unit).grad_q
            unit[i] = 0.0
        assert calls == []
        # dz/dq is symmetric: the loop did compute the Jacobian
        np.testing.assert_allclose(rows, rows.T, atol=1e-10)

    def test_matrix_block_built_once_on_first_read(self, monkeypatch):
        prob = random_mixed_qp(6, 5, 2, seed=25)
        sol = differentiable_solve(prob)
        calls = count_matrix_builds(monkeypatch)
        bundle = backward(sol, np.ones(6))
        assert calls == []
        first = bundle.grad_P
        assert calls == [(6, 6)]
        assert bundle.grad_P is first
        assert calls == [(6, 6)]

    @pytest.mark.parametrize("read_first", [(), ("P",), ("A", "C")],
                             ids=["none", "P", "A-C"])
    @pytest.mark.parametrize("m, p", [(5, 2), (4, 0), (0, 2)],
                             ids=["mixed", "no-equalities", "no-inequalities"])
    def test_blocks_match_the_eager_formula(self, monkeypatch, read_first, m, p):
        prob = random_mixed_qp(6, m, p, seed=26)
        sol = differentiable_solve(prob)
        rng = np.random.Generator(np.random.PCG64(27))
        gz, gl, gm = (rng.standard_normal(k) for k in (prob.n, p, m))
        outer = differentiation._pattern_outer
        u_z, u_lam, u_mu = solve_on(prob, sol.fact, gz, gl, gm)
        d_z, d_lam, d_mu = -u_z, -u_lam, -u_mu
        z, lam, mu = sol.point.z, sol.point.lam, sol.point.mu
        expected = {
            "grad_P": outer(prob.P, d_z, z, z, d_z, half=True),
            "grad_q": d_z,
            "grad_A": outer(prob.A, d_lam, z, lam, d_z) if p else sp.csc_array((0, 6)),
            "grad_b": u_lam,
            "grad_C": outer(prob.C, d_mu, z, mu, d_z) if m else sp.csc_array((0, 6)),
            "grad_d": u_mu,
        }

        calls = count_matrix_builds(monkeypatch)
        bundle = backward(sol, gz, gl, gm)
        assert calls == []
        # reading some blocks first builds those and no other
        for name in read_first:
            getattr(bundle, f"grad_{name}")
        rows = {"P": 6, "A": p, "C": m}
        assert len(calls) == sum(1 for k in read_first if rows[k])
        for name, want in expected.items():
            assert same_block(getattr(bundle, name), want), name
        assert len(calls) == sum(1 for k in rows.values() if k)


class TestAdjointConsistency:
    def test_pairing_identity(self):
        rng = np.random.Generator(np.random.PCG64(30))
        for seed in range(20):
            prob = random_mixed_qp(4 + seed % 6, 3 + seed % 7, seed % 3, seed=300 + seed)
            sol = differentiable_solve(prob)
            direction = random_direction(prob, rng)
            dz, dlam, dmu = forward_directional(sol, direction)
            g_z = rng.standard_normal(prob.n)
            g_lam = rng.standard_normal(prob.p)
            g_mu = np.zeros(prob.m)
            g_mu[sol.active.indices] = rng.standard_normal(sol.active.size)
            bundle = backward(sol, g_z, g_lam, g_mu)

            lhs = g_z @ dz + g_lam @ dlam + g_mu @ dmu
            rhs = float(bundle.grad_q @ direction.dq)
            rhs += float((bundle.grad_P.multiply(direction.dP)).sum())
            if prob.p:
                rhs += float(bundle.grad_b @ direction.db)
                rhs += float((bundle.grad_A.multiply(direction.dA)).sum())
            rhs += float(bundle.grad_d @ direction.dd)
            rhs += float((bundle.grad_C.multiply(direction.dC)).sum())
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


class TestReducedFullEquivalence:
    def test_reduced_equals_full_implicit(self):
        rng = np.random.Generator(np.random.PCG64(31))
        checked = 0
        for seed in range(60):
            prob = random_mixed_qp(4 + seed % 7, 2 + seed % 9, seed % 3, seed=400 + seed)
            sol = differentiable_solve(prob)
            mu_min, res_min = complementarity_margins(prob, sol.point, sol.active)
            if mu_min < 1e-3 or res_min < 1e-3:
                continue
            direction = random_direction(prob, rng)
            reduced = np.concatenate(forward_directional(sol, direction))
            full = np.concatenate(full_implicit_jacobian(prob, sol.point, direction))
            assert np.abs(reduced - full).max() <= 1e-8, f"seed {400 + seed}"
            checked += 1
        assert checked >= 30

    def test_local_equivalence_reduced_equality_qp(self):
        for seed in range(20):
            prob = random_mixed_qp(5 + seed % 4, 4 + seed % 6, seed % 2, seed=500 + seed)
            sol = differentiable_solve(prob)
            idx = sol.active.indices
            stacked_A = np.vstack([
                prob.A.toarray(),
                prob.C.toarray()[idx],
            ])
            stacked_b = np.concatenate([prob.b, prob.d[idx]])
            z_eq, _ = dense_equality_qp(prob.P.toarray(), prob.q, stacked_A, stacked_b)
            np.testing.assert_allclose(
                z_eq, sol.point.z, atol=1e-8, err_msg=f"seed {500 + seed}"
            )


class TestGradientCorrectness:
    def test_backward_matches_finite_differences_away_from_boundaries(self):
        # margin filter: active multipliers and inactive residuals >= 1e-3
        from qpdiff import check_gradients

        checked = 0
        for seed in range(12):
            prob = random_mixed_qp(4 + seed % 5, 3 + seed % 6, seed % 3, seed=800 + seed)
            sol = differentiable_solve(prob)
            mu_min, res_min = complementarity_margins(prob, sol.point, sol.active)
            if mu_min < 1e-3 or res_min < 1e-3:
                continue
            check = check_gradients(prob, h=1e-6, seed=seed)
            assert check.passed, f"seed {800 + seed}: {check.block_errors}"
            assert check.max_rel_error <= 1e-4
            checked += 1
        assert checked >= 5


class TestDifferentiableSolve:
    def test_simplex_interior_through_admm(self):
        prob, _ = gen_simplex(3, seed=1)
        sol = differentiable_solve(prob, "admm")
        assert sol.point.status == "solved"
        assert sol.active.size == 0  # interior point: only the equality binds
        assert sol.point.lam is not None and sol.point.lam.shape == (1,)
        assert sol.point.r_p <= 1e-6 and sol.point.r_d <= 1e-6

    def test_weakly_active_flagged(self):
        prob = QpProblem([[1.0]], [0.0], C=[[1.0]], d=[0.0])
        sol = differentiable_solve(prob)
        np.testing.assert_array_equal(sol.diagnosis.weakly_active, [0])
        assert sol.diagnosis.recommended_mode == LEAST_SQUARES

    def test_cross_backend_agreement(self):
        for seed in (601, 602, 603):
            prob = random_mixed_qp(6, 7, 2, seed=seed)
            sol_exact = differentiable_solve(prob, "active_set")
            sol_first = differentiable_solve(
                prob, "admm", SolveSettings(eps_abs=1e-9)
            )
            np.testing.assert_array_equal(
                sol_exact.active.indices, sol_first.active.indices
            )
            g = np.arange(1.0, 7.0)
            a = backward(sol_exact, g)
            b = backward(sol_first, g)
            np.testing.assert_allclose(a.grad_q, b.grad_q, atol=1e-5)
            np.testing.assert_allclose(a.grad_d, b.grad_d, atol=1e-5)
            np.testing.assert_allclose(
                a.grad_C.toarray(), b.grad_C.toarray(), atol=1e-5
            )

    def test_nan_eps_active_rejected(self):
        # a NaN threshold would identify no row: active [] and grad_d 0, not 1
        with pytest.raises(ValueError, match="eps_active"):
            differentiable_solve(one_dee(), eps_active=np.nan)

    def test_backend_failure_surfaces_point(self):
        prob = one_dee()  # equality backend cannot satisfy the active bound
        with pytest.raises(SolveFailedError) as excinfo:
            differentiable_solve(prob, "equality")
        assert excinfo.value.point is not None
        assert excinfo.value.point.status == "failed"

    def test_normalized_pipeline_gradients_match_original(self):
        rng = np.random.Generator(np.random.PCG64(33))
        scales = np.array([1e-3, 1.0, 100.0, 5.0])
        C = rng.standard_normal((4, 3)) * scales[:, None]
        z0 = rng.standard_normal(3)
        prob = QpProblem(
            np.eye(3), rng.standard_normal(3), C=C, d=C @ z0 + rng.uniform(0.1, 0.5, 4)
        )
        plain = differentiable_solve(prob, "active_set")
        scaled = differentiable_solve(prob, "active_set", normalize=True)
        np.testing.assert_array_equal(plain.active.indices, scaled.active.indices)
        g = np.ones(3)
        np.testing.assert_allclose(
            backward(plain, g).grad_q, backward(scaled, g).grad_q, atol=1e-8
        )
        # duals are reported in the original problem's scale
        np.testing.assert_allclose(plain.point.mu, scaled.point.mu, atol=1e-7)

    def test_zero_direction_gives_zero_derivative(self):
        prob = random_mixed_qp(4, 3, 1, seed=35)
        sol = differentiable_solve(prob)
        dz, dlam, dmu = forward_directional(sol, ParamDirection())
        assert np.abs(dz).max() == 0.0
        assert np.abs(dlam).max(initial=0.0) == 0.0
        assert np.abs(dmu).max(initial=0.0) == 0.0

    def test_overdetermined_duals_use_least_squares_end_to_end(self):
        # |J| + p > n: duals not unique, factorization degrades, but the
        # pipeline still produces finite gradients.  The second input states
        # the simplex's equality row twice, so the active-set backend itself
        # meets dependent equality rows
        base = gen_simplex(300, seed=881707420)[0]
        problems = [
            QpProblem(
                np.eye(2), np.zeros(2), A=[[1.0, 0.0]], b=[0.0],
                C=[[1.0, 1.0], [1.0, -1.0]], d=[0.0, 0.0],
            ),
            QpProblem(
                base.P, base.q, sp.vstack([base.A, base.A]),
                np.concatenate([base.b, base.b]), base.C, base.d,
            ),
        ]
        for prob in problems:
            sol = differentiable_solve(prob, "active_set")
            assert not sol.diagnosis.dimension_ok
            assert sol.fact.mode == LEAST_SQUARES
            g = np.where(np.arange(prob.n) % 2, -1.0, 1.0)  # (1, -1, 1, ...)
            bundle = backward(sol, g)
            assert np.all(np.isfinite(bundle.grad_q))
            assert np.all(np.isfinite(bundle.grad_d))
            # forward and backward read the same minimum-norm solve, so the
            # adjoint identity <g, dz> = <backward(g), direction> still holds
            direction = random_direction(prob, np.random.Generator(np.random.PCG64(37)))
            dz, _, _ = forward_directional(sol, direction)
            pairing = parameter_pairing(bundle, direction)
            assert abs(g @ dz - pairing) <= 1e-10 * abs(pairing)

    def test_normalize_and_refine_compose(self, monkeypatch):
        # on this barrier point the row-scaled identification misses rows,
        # so the certificate fails in the scaled frame and refinement runs
        prob = gen_random_dense(30, 5)
        calls = []
        original = differentiation.refine

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(differentiation, "refine", counting)
        sol = differentiable_solve(prob, TrustConstrBackend(1e-6), normalize=True)
        assert len(calls) == 1
        plain = differentiable_solve(prob, "active_set")
        np.testing.assert_array_equal(sol.active.indices, plain.active.indices)
        g = np.ones(prob.n)
        np.testing.assert_allclose(
            backward(sol, g).grad_q, backward(plain, g).grad_q, atol=1e-8
        )


class TestCertification:
    """``differentiable_solve`` checks J by the point on J and refines only
    when that point is infeasible or, on a direct K_J, has a negative
    multiplier."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_trust_constr_points_give_active_set_gradients(self, tol):
        # thresholding the slack barrier points misses active rows on 8 of
        # 10 at 1e-6 and on 3 of 10 at 1e-9
        for seed in range(10):
            prob = gen_random_dense(30, seed)
            g = np.random.Generator(np.random.PCG64(seed)).standard_normal(prob.n)
            want = backward(differentiable_solve(prob, "active_set"), g).grad_q
            sol = differentiable_solve(prob, TrustConstrBackend(tol))
            np.testing.assert_allclose(backward(sol, g).grad_q, want, atol=1e-4,
                                       err_msg=f"seed {seed}")

    def test_loose_admm_at_tight_threshold_returns_true_set(self):
        # acceptance criterion 7's degraded regime: ADMM without its
        # finishing solve, identified at 1e-7, loses truly active rows
        loose = AdmmBackend()
        loose.polish = False
        settings = SolveSettings(eps_abs=1e-4)
        b1, b2 = TWO_PARAM_BREAKS
        rng = np.random.Generator(np.random.PCG64(7))
        degraded = 0
        for _ in range(10):
            prob = gen_two_param_family(
                rng.uniform(0.1, b1 - 0.1), rng.uniform(-0.4, b2 - 0.1)
            )
            tight = solve_active_set(prob, SolveSettings(eps_abs=1e-10))
            truth = identify(prob, tight.z, 1e-5).indices
            sol = differentiable_solve(prob, loose, settings, eps_active=1e-7)
            degraded += not np.array_equal(
                identify(prob, sol.point.z, 1e-7).indices, truth
            )
            np.testing.assert_array_equal(sol.active.indices, truth)
        assert degraded

    def test_builtin_backends_never_refine(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("refine called on a built-in backend's point")

        monkeypatch.setattr(differentiation, "refine", refuse)
        for seed in range(5):
            prob = gen_random_dense(60, seed)
            for backend in ("admm", "active_set"):
                assert differentiable_solve(prob, backend).point.status == "solved"
        base = gen_simplex(300, seed=881707420)[0]
        stated_twice = QpProblem(
            base.P, base.q, sp.vstack([base.A, base.A]),
            np.concatenate([base.b, base.b]), base.C, base.d,
        )
        assert differentiable_solve(stated_twice, "admm").point.status == "solved"

    def test_point_refinement_cannot_repair_raises(self):
        # min |z|^2 / 2 - 2 z_1 s.t. z_1 <= 1 (active), z_2 <= 0.1.  At the
        # reported z = 0, J is empty and its point (2, 0) breaks row 0; the
        # least slack candidate, row 1, is orthogonal to the stationarity
        # residual, so refinement stops before reaching row 0
        prob = QpProblem(np.eye(2), [-2.0, 0.0], C=np.eye(2), d=[1.0, 0.1])

        class Stuck(SolverBackend):
            name = "stuck"

            def solve(self, problem, settings):
                return PrimalDualPoint(z=np.zeros(2))

        with pytest.raises(SolveFailedError, match="row 0 by 1.000e") as excinfo:
            differentiable_solve(prob, Stuck())
        np.testing.assert_array_equal(excinfo.value.point.z, [0.0, 0.0])

    def test_refined_set_with_negative_multiplier_raises(self):
        # identification gives [4]; refinement adds rows 0 and 2, and the
        # point on [0, 2, 4] is feasible, but row 2 is slack at the optimum
        # and its unique multiplier on that J is -1.244e-2
        n, m, p = dims_for_seed(211)
        prob = random_mixed_qp(n, m, p, seed=211)
        loose = AdmmBackend()
        loose.polish = False
        with pytest.raises(SolveFailedError, match="gives row 2 the multiplier -1.244e-02"):
            differentiable_solve(prob, loose, SolveSettings(eps_abs=1e-2), eps_active=1e-7)

    @pytest.mark.parametrize("seed, row", [(0, 23), (1, 32), (4, 44)])
    def test_loose_threshold_adds_a_row_with_negative_multiplier(self, seed, row):
        # the threshold 1.0 takes in a slack row, so the derivative would be
        # that of another QP
        with pytest.raises(SolveFailedError, match=f"gives row {row} the multiplier -"):
            differentiable_solve(gen_random_dense(60, seed), "admm", eps_active=1.0)

    def test_multipliers_judged_in_scaled_frame(self):
        # min |z|^2 / 2 s.t. s z_1 <= s c, reported at z = (c, 0): holding
        # the row gives mu = -c / s, which is -c in the row-scaled frame
        class Held(SolverBackend):
            name = "held"

            def __init__(self, c):
                self.c = c

            def solve(self, problem, settings):
                return PrimalDualPoint(z=np.array([self.c, 0.0]))

        for s, c, fails_scaled in ((1e-3, 1e-4, False), (1e3, 1e-2, True)):
            prob = QpProblem(np.eye(2), np.zeros(2), C=[[s, 0.0]], d=[s * c])
            for normalize in (False, True):
                if normalize == fails_scaled:
                    with pytest.raises(SolveFailedError, match="row 0 the multiplier"):
                        differentiable_solve(prob, Held(c), eps_active=1e-3,
                                             normalize=normalize)
                else:
                    sol = differentiable_solve(prob, Held(c), eps_active=1e-3,
                                               normalize=normalize)
                    np.testing.assert_allclose(sol.point.mu, [-c / s])


def _flat(bundle, step):
    """Every number in a gradient bundle and a forward step, in one vector."""
    parts = [bundle.grad_q, bundle.grad_b, bundle.grad_d, *step]
    parts += [g.toarray().ravel() for g in (bundle.grad_P, bundle.grad_A, bundle.grad_C)]
    return np.concatenate(parts)


class TestThreadSafety:
    @pytest.mark.parametrize(
        "backend, case, mode, engine",
        [
            pytest.param("active_set", "mixed", DIRECT, DENSE, id="active_set"),
            pytest.param("admm", "mixed", DIRECT, DENSE, id="admm"),
            # K_J singular: the shared factorization is the bordered one
            pytest.param("admm", "duplicated", LEAST_SQUARES, DENSE,
                         id="admm-duplicated-rows"),
            pytest.param("admm", "simplex", DIRECT, SPARSE, id="admm-sparse"),
            pytest.param("admm", "redundant-simplex", LEAST_SQUARES, SPARSE,
                         id="admm-sparse-bordered"),
        ],
    )
    def test_shared_solution_matches_serial(self, backend, case, mode, engine):
        n_threads, repeats = 8, 20
        prob = random_mixed_qp(12, 10, 2, seed=77)
        if case in ("simplex", "redundant-simplex"):
            prob = gen_simplex(200, 0)[0]
        if case in ("duplicated", "redundant-simplex"):  # equality rows stated twice
            prob = QpProblem(
                prob.P, prob.q, sp.vstack([prob.A, prob.A]),
                np.concatenate([prob.b, prob.b]), prob.C, prob.d,
            )
        sol = differentiable_solve(prob, backend)
        assert (sol.fact.mode, sol.fact.engine) == (mode, engine)
        rng = np.random.Generator(np.random.PCG64(78))
        grads = [rng.standard_normal(prob.n) for _ in range(n_threads)]
        dirs = [random_direction(prob, rng) for _ in range(n_threads)]

        def run(k):
            return _flat(backward(sol, grads[k]), forward_directional(sol, dirs[k]))

        serial = [run(k) for k in range(n_threads)]
        mismatches, errors = [], []

        def worker(k):
            try:
                for _ in range(repeats):
                    if not np.array_equal(run(k), serial[k]):
                        mismatches.append(k)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert mismatches == []

    def test_threads_solving_one_shared_sparse_problem(self):
        # each round's threads start together on a fresh problem, so state
        # that a solve kept on the problem would be raced on
        n_threads, rounds = 8, 10
        simplex = gen_simplex(200, 0)[0]

        def redundant_simplex():
            return QpProblem(simplex.P, simplex.q, sp.vstack([simplex.A, simplex.A]),
                             np.concatenate([simplex.b, simplex.b]), simplex.C, simplex.d)

        g = np.random.Generator(np.random.PCG64(80)).standard_normal(simplex.n)

        def outputs(prob):
            sol = differentiable_solve(prob, "admm")
            assert (sol.fact.mode, sol.fact.engine) == (LEAST_SQUARES, SPARSE)
            return sol.point.z, sol.active.indices, backward(sol, g).grad_q

        expected = outputs(redundant_simplex())
        mismatches, errors, stuck = [], [], []

        def worker(shared, barrier, k):
            try:
                barrier.wait(timeout=60)
                got = outputs(shared)
                if not all(np.array_equal(a, b) for a, b in zip(got, expected)):
                    mismatches.append(k)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(rounds):
                shared, barrier = redundant_simplex(), threading.Barrier(n_threads)
                threads = [
                    threading.Thread(target=worker, args=(shared, barrier, k))
                    for k in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                stuck += [t for t in threads if t.is_alive()]
        finally:
            sys.setswitchinterval(interval)
        assert stuck == []
        assert errors == []
        assert mismatches == []

    def test_racing_first_reads_of_matrix_blocks(self):
        n_threads, rounds = 8, 20
        blocks = ("grad_P", "grad_A", "grad_C")
        prob = random_mixed_qp(12, 10, 2, seed=77)
        sol = differentiable_solve(prob)
        g = np.random.Generator(np.random.PCG64(79)).standard_normal(prob.n)
        reference = backward(sol, g)
        serial = [getattr(reference, name) for name in blocks]
        mismatches, errors, stuck = [], [], []

        def worker(bundle, barrier, k):
            try:
                barrier.wait(timeout=60)
                # each thread starts on a different block
                for j in range(len(blocks)):
                    i = (k + j) % len(blocks)
                    if not same_block(getattr(bundle, blocks[i]), serial[i]):
                        mismatches.append((k, blocks[i]))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(rounds):
                bundle = backward(sol, g)  # fresh: no block read yet
                barrier = threading.Barrier(n_threads)
                threads = [
                    threading.Thread(target=worker, args=(bundle, barrier, k))
                    for k in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                stuck += [t for t in threads if t.is_alive()]
        finally:
            sys.setswitchinterval(interval)
        assert stuck == []
        assert errors == []
        assert mismatches == []
