import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from qpdiff import (
    DuplicateBackendError,
    QpProblem,
    SolveSettings,
    UnknownBackendError,
    brute_force_solve,
    factorize,
    gen_chain,
    gen_random_dense,
    gen_random_sparse,
    gen_simplex,
    get_backend,
    identify,
    list_backends,
    register_backend,
    residuals,
)
from qpdiff.errors import RankDeficiencyError
from qpdiff.kkt import DIRECT, LEAST_SQUARES
from qpdiff.solvers import (
    ADMM_CHECK_INTERVAL,
    FAILED,
    SOLVED,
    AdmmBackend,
    EqualityBackend,
    PrimalDualPoint,
    SolverBackend,
    _point_on,
    certify,
)

from helpers import (
    child_env,
    count_fresh_points,
    parameter_pairing,
    random_mixed_qp,
    solve_active_set,
    solve_admm,
)


def run_fresh_python(code, **env):
    """Run ``code`` in a new interpreter; returns its stripped stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=child_env(**env),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def equality_solve(P, q, A=None, b=None):
    """``(z, lam)`` of the equality backend on min 0.5 z'Pz + q'z, Az = b."""
    point = EqualityBackend().solve(QpProblem(P, q, A, b), SolveSettings())
    assert point.status == SOLVED
    return point.z, point.lam


def dependent_rows_qp(q):
    """A 4-variable QP whose third equality row is the sum of the first two;
    its start violates a bound at ``q = -10`` but not at ``q = 1``."""
    rng = np.random.Generator(np.random.PCG64(0))
    A = rng.standard_normal((2, 4))
    A = np.vstack([A, A[0] + A[1]])
    z0 = rng.standard_normal(4)
    return QpProblem(np.eye(4), np.full(4, q), A=A, b=A @ z0, C=np.eye(4), d=z0 + 1.0)


class TestEqualitySolve:
    def test_unconstrained_minimum_is_minus_q(self):
        z, lam = equality_solve(np.eye(2), np.array([1.0, 1.0]))
        np.testing.assert_allclose(z, [-1.0, -1.0])
        assert lam.shape == (0,)

    def test_symmetric_split(self):
        z, lam = equality_solve(
            np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0])
        )
        np.testing.assert_allclose(z, [0.5, 0.5])
        np.testing.assert_allclose(lam, [-0.5])
        # stationarity z + A' lam = 0
        np.testing.assert_allclose(z + lam[0] * np.ones(2), 0.0, atol=1e-12)

    def test_matches_schur_elimination_oracle(self):
        rng = np.random.Generator(np.random.PCG64(5))
        W = rng.standard_normal((6, 6))
        P = W.T @ W + 0.5 * np.eye(6)
        q = rng.standard_normal(6)
        A = rng.standard_normal((2, 6))
        b = rng.standard_normal(2)
        z, lam = equality_solve(P, q, A, b)
        # independent elimination: lam from the Schur complement, then z
        Pinv_q = np.linalg.solve(P, -q)
        Pinv_At = np.linalg.solve(P, A.T)
        lam_oracle = np.linalg.solve(A @ Pinv_At, A @ Pinv_q - b)
        z_oracle = Pinv_q - Pinv_At @ lam_oracle
        np.testing.assert_allclose(z, z_oracle, atol=1e-8)
        np.testing.assert_allclose(lam, lam_oracle, atol=1e-8)
        assert np.abs(P @ z + q + A.T @ lam).max() < 1e-10
        assert np.abs(A @ z - b).max() < 1e-10

    def test_singular_kkt_raises(self):
        with pytest.raises(RankDeficiencyError):
            equality_solve(
                np.eye(2), np.zeros(2),
                np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]),
            )


class TestActiveSetSolver:
    def test_one_dimensional_bound(self):
        prob = QpProblem([[1.0]], [0.0], C=[[1.0]], d=[-1.0])
        point = solve_active_set(prob)
        assert point.status == SOLVED
        np.testing.assert_allclose(point.z, [-1.0], atol=1e-12)
        np.testing.assert_allclose(point.mu, [1.0], atol=1e-12)

    def test_infinite_bound(self):
        # an infinite bound made the feasibility tolerance infinite, so the
        # infeasible start (2, 2) passed and the solve failed on r_p = 1
        prob = QpProblem(np.eye(2), [-2.0, -2.0], C=np.eye(2), d=[np.inf, 1.0])
        for point in (solve_active_set(prob), solve_admm(prob)):
            assert point.status == SOLVED
            np.testing.assert_allclose(point.z, [2.0, 1.0], atol=1e-12)
            np.testing.assert_allclose(point.mu, [0.0, 1.0], atol=1e-12)
        # a bound of -inf is infeasible
        prob = QpProblem(np.eye(2), [-2.0, -2.0], C=np.eye(2), d=[-np.inf, 1.0])
        assert solve_active_set(prob).status == FAILED

    def test_two_dimensional_symmetric(self):
        prob = QpProblem(np.eye(2), np.zeros(2), C=[[-1.0, -1.0]], d=[-1.0])
        point = solve_active_set(prob)
        np.testing.assert_allclose(point.z, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(point.mu, [0.5], atol=1e-12)

    def test_matches_brute_force_on_random_problems(self):
        drop_steps = 0
        for seed in range(30):
            prob = random_mixed_qp(6, 8, 0, seed=seed)
            point = solve_active_set(prob)
            assert point.status == SOLVED
            oracle = brute_force_solve(prob)
            np.testing.assert_allclose(point.z, oracle.z, atol=1e-6)
            # every step adds a row unless a working multiplier hits zero
            drop_steps += point.iterations > point.fact.rows.size
        assert drop_steps >= 1

    def test_phase_one_handles_infeasible_equality_start(self):
        # equality-relaxed optimum violates the inequalities
        prob = QpProblem(np.eye(2), np.array([0.0, 0.0]),
                         A=[[1.0, 0.0]], b=[2.0], C=[[0.0, 1.0]], d=[-1.0])
        point = solve_active_set(prob)
        assert point.status == SOLVED
        np.testing.assert_allclose(point.z, [2.0, -1.0], atol=1e-9)

    def test_parallel_tighter_row_replaces_working_row(self):
        # z1 <= -1 is most violated at the start and joins the working rows;
        # 0.1 z1 <= -0.2 is parallel to it, so the next step is purely dual
        # and drops row 0 before row 1 joins
        prob = QpProblem(np.eye(2), np.zeros(2),
                         C=[[1.0, 0.0], [0.1, 0.0]], d=[-1.0, -0.2])
        point = solve_active_set(prob)
        assert point.status == SOLVED
        np.testing.assert_allclose(point.z, [-2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(point.mu, [0.0, 20.0], atol=1e-10)
        np.testing.assert_array_equal(point.fact.rows, [1])
        assert point.iterations == 3

    @pytest.mark.parametrize("with_equality", [False, True])
    def test_infeasible_inequalities_fail_without_raising(self, with_equality):
        # z1 <= -1 and -z1 <= -1 admit no point: the dual ray is unbounded
        A, b = ([[0.0, 1.0]], [0.5]) if with_equality else (None, None)
        prob = QpProblem(np.eye(2), np.zeros(2), A=A, b=b,
                         C=[[1.0, 0.0], [-1.0, 0.0]], d=[-1.0, -1.0])
        point = solve_active_set(prob)
        assert point.status == "failed"

    def test_solves_instance_that_cycled_under_one_blas_thread(self):
        # one BLAS thread changes the last bits of every dense solve, and an
        # active-set method that can cycle loops to its cap on this instance;
        # the thread count must be set before numpy loads, hence a new process
        status = run_fresh_python(
            "from qpdiff import ActiveSetBackend, SolveSettings, gen_random_dense\n"
            "print(ActiveSetBackend().solve(gen_random_dense(150, 274394284),"
            " SolveSettings()).status)",
            OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        )
        assert status == SOLVED

    def test_iteration_cap_returns_consistent_duals(self):
        # exiting mid-iteration must not leave stale multipliers behind
        prob = random_mixed_qp(8, 10, 1, seed=77)
        for budget in (1, 2, 3):
            point = solve_active_set(prob, SolveSettings(max_iterations=budget))
            assert point.mu.shape == (prob.m,)
            assert np.all(np.isfinite(point.mu))
            assert point.fact.rows.size <= prob.m

    def test_steps_make_no_equality_solve(self, monkeypatch):
        # the start and the steps work from one Cholesky factor and an
        # updated QR, so the final solve is the only factorization of a
        # saddle matrix at any iteration count
        import qpdiff.solvers as solvers

        calls = []

        def counting_factorize(*args, **kwargs):
            calls.append(1)
            return factorize(*args, **kwargs)

        monkeypatch.setattr(solvers, "factorize", counting_factorize)
        point = solve_active_set(gen_random_dense(150, 0))
        assert point.status == SOLVED
        assert point.iterations >= 40
        assert len(calls) == 1
        # dependent equality rows take the same path: no start of their own
        calls.clear()
        point = solve_active_set(dependent_rows_qp(-10.0))
        assert point.status == SOLVED
        assert point.iterations >= 1
        assert len(calls) == 1

    def test_semidefinite_p_positive_definite_on_equality_null_space(self):
        # P = diag(1, 0) has no Cholesky factor, but P + A'A does: P is
        # positive definite on null(A) = {z2 = 0}, where every step moves
        prob = QpProblem(np.diag([1.0, 0.0]), [-1.0, 0.0], A=[[0.0, 1.0]], b=[0.5],
                         C=[[1.0, 0.0]], d=[0.2])
        point = solve_active_set(prob)
        assert point.status == SOLVED
        np.testing.assert_allclose(point.z, [0.2, 0.5], atol=1e-12)
        np.testing.assert_allclose(point.mu, [0.8], atol=1e-12)

    @pytest.mark.parametrize("with_equality", [False, True])
    def test_indefinite_on_equality_null_space_fails_without_raising(
        self, with_equality
    ):
        # the objective is unbounded below along z2, which null(A) contains
        P = np.diag([1.0, -1.0, 1.0])
        A, b = ([[0.0, 0.0, 1.0]], [0.5]) if with_equality else (None, None)
        prob = QpProblem(P, [-1.0, 0.0, 0.0], A=A, b=b, C=[[1.0, 0.0, 0.0]], d=[0.2])
        point = solve_active_set(prob)
        assert point.status == "failed"

    def test_dependent_equality_rows_solve(self):
        # row 2 is row 0 + row 1 up to rounding: the pivoted QR keeps two
        # rows, and the answer equals the one on those two rows alone
        for q, stepped in ((1.0, False), (-10.0, True)):
            prob = dependent_rows_qp(q)
            point = solve_active_set(prob)
            assert point.status == SOLVED
            # at q = 1 the start satisfies the inequalities and needs no step
            assert (point.iterations > 0) == stepped
            oracle = brute_force_solve(
                QpProblem(prob.P, prob.q, prob.A[:2], prob.b[:2], prob.C, prob.d)
            )
            np.testing.assert_allclose(point.z, oracle.z, atol=1e-8)
            np.testing.assert_allclose(point.mu, oracle.mu, atol=1e-8)

    def test_inconsistent_dependent_equality_rows_fail_without_raising(self):
        # z1 + z2 = 1 and z1 + z2 = 2: the loop ends solved on the kept row,
        # and the residual check on every equality row turns it to failed
        prob = QpProblem(np.eye(2), np.zeros(2), A=[[1.0, 1.0], [1.0, 1.0]],
                         b=[1.0, 2.0], C=[[1.0, 0.0]], d=[-5.0])
        point = solve_active_set(prob)
        assert point.status == "failed"
        assert point.iterations == 1
        assert point.r_p == pytest.approx(0.5)

    def test_consistent_dependent_equality_rows_solve_at_the_start(self):
        # the equality row stated twice, or more rows than variables: the
        # start on the rows the pivoted QR keeps already satisfies the
        # inequality
        for A, b in (([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0]),
                     ([[1.0, 1.0], [1.0, -1.0], [2.0, 0.0]], [1.0, 0.0, 1.0])):
            prob = QpProblem(np.eye(2), np.zeros(2), A=A, b=b,
                             C=[[1.0, 0.0]], d=[5.0])
            point = solve_active_set(prob)
            assert point.status == SOLVED
            assert point.iterations == 0
            np.testing.assert_allclose(point.z, [0.5, 0.5], atol=1e-12)

    def test_structurally_dependent_equality_rows_solve_without_crashing(self):
        # A has rank 440 of 500 here because some rows share their only
        # column, so K_J with J empty is structurally singular; the sparse LU
        # never sees it (its zero-pivot path crashed the interpreter)
        out = run_fresh_python(
            "from qpdiff import ActiveSetBackend, EqualityBackend, SolveSettings,"
            " gen_random_sparse\n"
            "from qpdiff.errors import RankDeficiencyError\n"
            "prob = gen_random_sparse(1000, 2)\n"
            "print(ActiveSetBackend().solve(prob, SolveSettings()).status)\n"
            "try:\n"
            "    EqualityBackend().solve(prob, SolveSettings())\n"
            "except RankDeficiencyError:\n"
            "    print('rank deficient')\n",
            OPENBLAS_NUM_THREADS="1",
        )
        assert out.splitlines() == [SOLVED, "rank deficient"]

    def test_duals_complementary_and_nonnegative(self):
        for seed in range(20):
            prob = random_mixed_qp(5, 7, 1, seed=100 + seed)
            point = solve_active_set(prob)
            assert point.status == SOLVED
            assert point.mu.min(initial=0.0) >= 0.0
            slack = prob.C @ point.z - prob.d
            assert np.abs(point.mu * slack).max(initial=0.0) < 1e-8


class TestAdmmSolver:
    def test_one_dimensional_bound_tight(self):
        prob = QpProblem([[1.0]], [0.0], C=[[1.0]], d=[-1.0])
        point = solve_admm(prob, SolveSettings(eps_abs=1e-8))
        assert point.status == SOLVED
        np.testing.assert_allclose(point.z, [-1.0], atol=1e-7)

    def test_interior_simplex_projection_closed_form(self):
        x = np.array([0.6, 0.2])
        prob = QpProblem(
            2 * np.eye(2), -2 * x, A=[[1.0, 1.0]], b=[1.0],
            C=np.vstack([-np.eye(2), np.eye(2)]), d=[0.0, 0.0, 1.0, 1.0],
        )
        point = solve_admm(prob, SolveSettings(eps_abs=1e-6))
        np.testing.assert_allclose(point.z, [0.7, 0.3], atol=1e-6)

    def test_sparse_residuals_recomputed_independently(self):
        prob = gen_random_sparse(500, seed=0)
        point = solve_admm(prob, SolveSettings(eps_abs=1e-6))
        assert point.status == SOLVED
        res = residuals(prob, point)
        assert res.r_p <= 1e-6
        assert res.r_d <= 1e-6

    def test_polish_reaches_working_precision_on_sparse(self):
        # the finishing solve is exact on its rows (bordered here, since K_J
        # is singular), so r_p ends far below eps_abs
        prob = gen_random_sparse(1000, seed=1)
        point = solve_admm(prob, SolveSettings(eps_abs=1e-6))
        assert point.status == SOLVED
        assert point.r_p <= 1e-12

    def test_polish_skipped_when_reduced_kkt_is_singular(self):
        # P is only semidefinite and no row binds x2, so the finishing
        # K_J = P is singular even after bordering; the ADMM iterate stands
        prob = QpProblem(
            np.diag([1.0, 0.0]), [1.0, 0.0], C=[[0.0, 1.0], [0.0, -1.0]], d=[1.0, 1.0]
        )
        point = solve_admm(prob, SolveSettings(eps_abs=1e-8))
        assert point.status == SOLVED
        np.testing.assert_allclose(point.z[0], -1.0, atol=1e-6)
        assert abs(point.z[1]) <= 1.0 + 1e-6

    def test_finishes_early_on_the_active_set(self):
        prob = gen_random_dense(60, seed=0)
        loose_backend = AdmmBackend()
        loose_backend.polish = False
        loose = loose_backend.solve(prob, SolveSettings())
        point = solve_admm(prob)
        again = solve_admm(prob)
        assert loose.status == point.status == SOLVED
        assert point.iterations < loose.iterations
        res = residuals(prob, point)
        assert max(res.r_p, res.r_d) <= SolveSettings().eps_abs
        assert point.mu.min() >= 0.0
        np.testing.assert_array_equal(point.fact.rows, identify(prob, point.z).indices)
        # the attempt rule reads no clock: the same finish on every run
        assert again.iterations == point.iterations
        np.testing.assert_array_equal(again.z, point.z)

    def test_finish_rejected_on_negative_minimum_norm_duals(self, monkeypatch):
        # the equality row stated twice makes K_J singular; the minimum-norm
        # duals of the finishing solve are negative at this degenerate vertex
        from qpdiff import backward, differentiable_solve, forward_directional, random_direction
        from qpdiff.kkt import LEAST_SQUARES

        base = gen_simplex(300, seed=881707420)[0]
        prob = QpProblem(
            base.P, base.q, sp.vstack([base.A, base.A]),
            np.concatenate([base.b, base.b]), base.C, base.d,
        )
        point = solve_admm(prob)
        assert point.status == SOLVED
        assert point.mu.min() >= -1e-9
        assert point.fact is None

        calls = count_fresh_points(monkeypatch)
        sol = differentiable_solve(prob, "admm")
        assert len(calls) == 1
        assert sol.fact.mode == LEAST_SQUARES
        g = np.random.Generator(np.random.PCG64(5)).standard_normal(prob.n)
        bundle = backward(sol, g)
        direction = random_direction(prob, np.random.Generator(np.random.PCG64(6)))
        dz, _, _ = forward_directional(sol, direction)
        pairing = parameter_pairing(bundle, direction)
        assert abs(g @ dz - pairing) <= 1e-10 * abs(pairing)

    def test_deterministic(self):
        prob = gen_random_dense(12, seed=3)
        a = solve_admm(prob, SolveSettings(eps_abs=1e-7))
        b = solve_admm(prob, SolveSettings(eps_abs=1e-7))
        np.testing.assert_array_equal(a.z, b.z)
        assert a.iterations == b.iterations

    def test_warm_start_converges_immediately(self):
        prob = gen_random_dense(10, seed=1)
        first = solve_admm(prob, SolveSettings(eps_abs=1e-6))
        again = solve_admm(prob, SolveSettings(eps_abs=1e-6, warm_start=first))
        assert again.status == SOLVED
        assert again.iterations <= 5

    def test_unconstrained_problem(self):
        prob = QpProblem(np.eye(3), np.array([1.0, -2.0, 0.5]))
        point = solve_admm(prob, SolveSettings(eps_abs=1e-9))
        np.testing.assert_allclose(point.z, [-1.0, 2.0, -0.5], atol=1e-8)

    def test_max_iterations_reports_best_iterate(self):
        prob = gen_random_dense(20, seed=2)
        point = solve_admm(prob, SolveSettings(eps_abs=1e-12, max_iterations=5))
        assert point.status == "max_iter"
        assert point.z.shape == (20,)
        assert np.isfinite(point.r_p)

    def test_time_limit_stops_early(self):
        prob = gen_random_dense(30, seed=4)
        point = solve_admm(
            prob, SolveSettings(eps_abs=1e-14, time_limit=1e-9)
        )
        assert point.status == "max_iter"
        assert point.iterations < 100

    def test_reduced_cholesky_matches_quasi_definite_lu(self, monkeypatch):
        import qpdiff.kkt as kkt_module

        prob = gen_random_dense(60, 0)
        dense = solve_admm(prob)
        monkeypatch.setattr(kkt_module, "_DENSE_FILL", np.inf)  # every matrix sparse
        sparse = solve_admm(prob)
        assert dense.status == sparse.status == SOLVED
        assert (dense.fact.engine, sparse.fact.engine) == ("dense", "sparse")
        assert dense.iterations == sparse.iterations
        np.testing.assert_allclose(dense.z, sparse.z, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_dense_checks_match_the_sparse_residuals_and_identify(
        self, monkeypatch, seed
    ):
        import qpdiff.solvers as solvers
        from qpdiff.metrics import _primal_dual

        prob = gen_random_dense(60, seed)
        checks, finishes = [], []
        in_finish = []
        split = []  # the latest split variable zs, which only np.clip forms

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def clip(self, *args):
                split[:] = [np.clip(*args)]
                return split[0]

        def recording_primal_dual(problem, ops, z, lam, mu):
            if not in_finish:
                checks.append((ops, z.copy(), lam.copy(), mu.copy(), split[0]))
            return _primal_dual(problem, ops, z, lam, mu)

        def recording_finish(problem, ops, J):
            finishes.append((J, checks[-1]))
            in_finish.append(1)
            try:
                return original_finish(problem, ops, J)
            finally:
                in_finish.pop()

        original_finish = solvers._finish
        monkeypatch.setattr(solvers, "_primal_dual", recording_primal_dual)
        monkeypatch.setattr(solvers, "_finish", recording_finish)
        monkeypatch.setattr(solvers, "np", RecordingNumpy())
        assert solve_admm(prob).status == SOLVED
        assert checks and finishes
        for ops, z, lam, mu, _ in checks:
            # the dense path's own blocks, never the sparse ones
            assert all(isinstance(op, np.ndarray) for op in ops)
            dense = np.array(_primal_dual(prob, ops, z, lam, mu))
            res = residuals(prob, PrimalDualPoint(z=z, lam=lam, mu=mu))
            sparse = np.array([res.r_p, res.r_d])
            # relative to the size of the terms each residual sums
            scale = np.array([
                max(np.abs(prob.A @ z).max() + np.abs(prob.b).max(),
                    np.abs(prob.C @ z).max() + np.abs(prob.d).max()),
                np.abs(prob.P @ z).max() + np.abs(prob.q).max()
                + np.abs(prob.A.T @ lam).max() + np.abs(prob.C.T @ mu).max(),
            ])
            assert np.all(np.abs(dense - sparse) <= 1e-12 * np.maximum(scale, sparse))
        for J, (_, _, _, mu, zs) in finishes:
            # the dual guess at the check before: slack below the multiplier
            np.testing.assert_array_equal(J, np.flatnonzero(prob.d - zs[prob.p:] < mu))

    @pytest.mark.parametrize("seed", range(3))
    def test_rejected_finish_backs_off_by_half(self, monkeypatch, seed):
        import qpdiff.solvers as solvers
        from qpdiff.metrics import _primal_dual

        checks, tries = [], []

        def counting_primal_dual(*args):
            checks.append(1)
            return _primal_dual(*args)

        def rejecting_finish(problem, ops, J):
            tries.append(len(checks))  # the check it follows, counted from 1
            return None

        monkeypatch.setattr(solvers, "_primal_dual", counting_primal_dual)
        monkeypatch.setattr(solvers, "_finish", rejecting_finish)
        point = solve_admm(gen_random_dense(60, seed))
        # ended by its residual check: the converged exit's finish is rejected too
        assert point.status == SOLVED and point.fact is None
        assert tries[-1] == len(checks)
        every = ADMM_CHECK_INTERVAL
        check_its = [
            k for k in range(1, point.iterations + 1) if k <= 5 or k % every == 0
        ]
        assert len(check_its) == len(checks)
        tried = [check_its[c - 1] for c in tries[:-1]]
        assert len(tried) >= 3
        for k, later in zip(tried, tried[1:]):
            assert later >= int(1.5 * k)
        assert len(tried) <= np.log(point.iterations) / np.log(1.5) + 2
        # sooner than a doubling backoff would allow
        assert any(later < 2 * k for k, later in zip(tried, tried[1:]))

    def test_indefinite_dense_problem_fails_without_raising(self):
        # P + sigma I + G' diag(rho) G has no Cholesky factor; the quasi-definite
        # sparse form would iterate to the saddle point (-1, 0.01) instead
        prob = QpProblem(np.diag([1.0, -100.0]), np.array([1.0, 1.0]))
        point = solve_admm(prob)
        assert point.status == FAILED
        assert point.iterations == 0


class TestBackendAgreement:
    def test_active_set_vs_admm_on_random_dense(self):
        agreements = 0
        for seed in range(100):
            prob = random_mixed_qp(
                4 + seed % 7, 2 + seed % 9, seed % 3, seed=2000 + seed
            )
            exact = solve_active_set(prob)
            first_order = solve_admm(prob, SolveSettings(eps_abs=1e-8))
            if exact.status == SOLVED and first_order.status == SOLVED:
                np.testing.assert_allclose(
                    exact.z, first_order.z, atol=1e-5,
                    err_msg=f"seed {2000 + seed}",
                )
                agreements += 1
        assert agreements >= 95

    @pytest.mark.parametrize("backend_name", ["active_set", "admm"])
    def test_residuals_within_twice_tolerance(self, backend_name):
        backend = get_backend(backend_name)
        cases = [
            gen_simplex(40, seed=0)[0],
            gen_chain(6, 2, seed=0)[0],
            gen_random_dense(16, seed=0),
            random_mixed_qp(8, 6, 3, seed=7),
        ]
        settings = SolveSettings(eps_abs=1e-6)
        for prob in cases:
            point = backend.solve(prob, settings)
            assert point.status == SOLVED
            res = residuals(prob, point)
            assert res.r_p <= 2e-6
            assert res.r_d <= 2e-6


class TestEqualityBackend:
    def test_residuals_within_twice_tolerance_on_equality_only(self):
        rng = np.random.Generator(np.random.PCG64(55))
        W = rng.standard_normal((6, 6))
        prob = QpProblem(
            W.T @ W + np.eye(6), rng.standard_normal(6),
            A=rng.standard_normal((2, 6)), b=rng.standard_normal(2),
        )
        point = EqualityBackend().solve(prob, SolveSettings(eps_abs=1e-6))
        assert point.status == SOLVED
        res = residuals(prob, point)
        assert res.r_p <= 2e-6 and res.r_d <= 2e-6

    def test_solves_when_inequalities_slack(self):
        prob = QpProblem(np.eye(2), np.array([1.0, 1.0]), C=[[1.0, 0.0]], d=[5.0])
        point = EqualityBackend().solve(prob, SolveSettings())
        assert point.status == SOLVED
        np.testing.assert_allclose(point.z, [-1.0, -1.0])
        np.testing.assert_array_equal(point.mu, [0.0])

    def test_fails_when_inequality_binds(self):
        prob = QpProblem([[1.0]], [0.0], C=[[1.0]], d=[-1.0])
        point = EqualityBackend().solve(prob, SolveSettings())
        assert point.status == "failed"

    @pytest.mark.parametrize("key", ["q", "d"])
    def test_fails_on_nan_data(self, key):
        # a NaN q gives a NaN point, a NaN d a NaN row excess
        data = {"q": [0.0], "d": [5.0], key: [np.nan]}
        prob = QpProblem([[1.0]], data["q"], C=[[1.0]], d=data["d"])
        point = EqualityBackend().solve(prob, SolveSettings())
        assert point.status == "failed"

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_P_fails_before_factoring(self, entry):
        # bad data fails; it is not reported as a singular K_J
        prob = QpProblem([[entry, 0.0], [0.0, 1.0]], [1.0, 1.0], A=[[1.0, 1.0]],
                         b=[1.0], C=[[1.0, 0.0]], d=[5.0])
        point = EqualityBackend().solve(prob, SolveSettings())
        assert point.status == FAILED
        assert point.fact is None


class TestCertify:
    # min |z|^2 / 2 - z_1 / 2 s.t. z_1 <= 1, stated once or twice: the
    # optimum (0.5, 0) is interior, so holding the row gives it mu < 0
    @staticmethod
    def held_row(times):
        return QpProblem(np.eye(2), [-0.5, 0.0], C=[[1.0, 0.0]] * times,
                         d=[1.0] * times)

    def test_negative_unique_multiplier_fails(self):
        point = _point_on(self.held_row(1), [0])
        assert point.fact.mode == DIRECT
        assert certify(self.held_row(1), point, 1e-9) == (
            "gives row 0 the multiplier -5.000e-01 (eps 1e-09)"
        )
        assert certify(self.held_row(1), point, 1.0) == ""

    def test_minimum_norm_multiplier_sign_is_not_read(self):
        # the duplicated row makes K_J singular; its minimum-norm duals
        # (-0.25, -0.25) could be negative on a right J as well
        prob = self.held_row(2)
        point = _point_on(prob, [0, 1])
        assert point.fact.mode == LEAST_SQUARES
        np.testing.assert_allclose(point.mu, [-0.25, -0.25])
        assert certify(prob, point, 1e-9) == ""

    def test_row_violation_and_non_finite_point_fail(self):
        prob = self.held_row(1)
        point = _point_on(prob, [])
        point.z = np.array([2.0, 0.0])
        assert certify(prob, point, 1e-9).startswith("violates row 0 by 1.000e+00")
        point.z = np.array([np.nan, 0.0])
        assert certify(prob, point, 1e-9) == "is not finite"


class TestImports:
    def test_import_leaves_scipy_optimize_unloaded(self):
        loaded = run_fresh_python(
            "import sys, qpdiff; print('scipy.optimize' in sys.modules)"
        )
        assert loaded == "False"


class TestSettings:
    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            SolveSettings(eps_abs=0.0)

    @pytest.mark.parametrize("eps_abs", [np.inf, np.nan])
    def test_tolerance_must_be_finite(self, eps_abs):
        # at inf, admm and equality would report "solved" at infeasible points
        with pytest.raises(ValueError, match="eps_abs"):
            SolveSettings(eps_abs=eps_abs)

    def test_iteration_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            SolveSettings(max_iterations=0)

    @pytest.mark.parametrize("budget", [np.nan, 2.5, True])
    def test_iteration_budget_must_be_an_integer(self, budget):
        # NaN would run no ADMM iteration and cap active_set at NaN; True,
        # an int in Python, would run one
        with pytest.raises(ValueError, match="max_iterations"):
            SolveSettings(max_iterations=budget)

    @pytest.mark.parametrize("time_limit", [np.nan, 0.0, -1.0])
    def test_time_limit_must_be_positive(self, time_limit):
        with pytest.raises(ValueError, match="time_limit"):
            SolveSettings(time_limit=time_limit)


def _spoiled(block):
    """A small solvable QP with one entry of ``block`` set non-finite."""
    P, q = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -1.0])
    A, b = np.array([[1.0, 1.0]]), np.array([0.5])
    C, d = np.array([[1.0, -1.0], [0.0, 1.0]]), np.array([0.2, 1.0])
    if block == "P":
        P[0, 0] = np.nan
    elif block == "q":
        q[1] = np.nan
    else:
        d[0] = -np.inf
    return QpProblem(P, q, A, b, C, d)


class TestNonFiniteData:
    @pytest.mark.parametrize("block", ["P", "q", "d"])
    @pytest.mark.parametrize("solve", [solve_admm, solve_active_set])
    def test_fails_before_the_first_iteration(self, solve, block):
        # a NaN in P or q, or a bound of -inf that no point can hold
        point = solve(_spoiled(block))
        assert point.status == FAILED
        assert point.iterations == 0
        assert point.fact is None


class TestRegistry:
    def test_builtins_registered_alphabetical(self):
        names = list_backends()
        assert names == sorted(names)
        for expected in ("active_set", "admm", "equality"):
            assert expected in names

    def test_register_then_get(self):
        class Dummy(SolverBackend):
            name = "dummy_for_test"

        backend = Dummy()
        register_backend("dummy_for_test", backend)
        try:
            assert get_backend("dummy_for_test") is backend
            with pytest.raises(DuplicateBackendError):
                register_backend("dummy_for_test", backend)
        finally:
            from qpdiff.solvers import _registry

            _registry.pop("dummy_for_test", None)

    def test_unknown_backend(self):
        with pytest.raises(UnknownBackendError, match="nonexistent"):
            get_backend("nonexistent")
