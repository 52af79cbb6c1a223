import numpy as np
import pytest

from qpdiff import (
    PrimalDualPoint,
    QpProblem,
    SolveSettings,
    TWO_PARAM_BOX,
    TWO_PARAM_BREAKS,
    brute_force_solve,
    conditioning_report,
    gen_chain,
    gen_random_dense,
    gen_random_sparse,
    gen_simplex,
    gen_two_param_family,
    identify,
    residuals,
    solve_active_set,
    solve_admm,
    validate,
)

from helpers import simplex_projection_sort


class TestResiduals:
    def test_zero_at_exact_solution(self):
        prob = QpProblem(np.eye(2), np.zeros(2), C=[[-1.0, -1.0]], d=[-1.0])
        point = PrimalDualPoint(
            z=np.array([0.5, 0.5]), lam=np.zeros(0), mu=np.array([0.5])
        )
        res = residuals(prob, point)
        assert res.r_p == 0.0
        assert res.r_d == 0.0
        # gap terms: z'Pz = 0.5, q'z = 0, d'mu = -0.5
        assert res.r_g == 0.0

    def test_equality_violation_measured(self):
        prob, _ = gen_simplex(3, seed=0)
        point = PrimalDualPoint(z=np.zeros(3), lam=np.zeros(1), mu=np.zeros(6))
        assert residuals(prob, point).r_p == 1.0

    def test_gap_decreases_with_perturbation(self):
        prob = QpProblem(
            np.diag([2.0, 1.0]), np.array([1.0, -2.0]),
            C=[[1.0, 1.0]], d=[0.3],
        )
        exact = brute_force_solve(prob)
        gaps = []
        for t in (1e-3, 1e-6, 0.0):
            point = PrimalDualPoint(
                z=exact.z + t * np.array([1.0, -0.5]), lam=exact.lam, mu=exact.mu
            )
            gaps.append(residuals(prob, point).r_g)
        assert gaps[0] > 0.0
        assert gaps[0] > gaps[1] > gaps[2] or gaps[2] <= 1e-12
        assert gaps[2] <= 1e-12

    @pytest.mark.parametrize("equalities", [True, False], ids=["p=1", "p=0"])
    def test_nan_inequality_violation_propagates(self, equalities):
        eq = dict(A=[[1.0, 1.0]], b=[1.0]) if equalities else {}
        prob = QpProblem(np.eye(2), np.zeros(2), C=[[1.0, 0.0]], d=[np.nan], **eq)
        point = PrimalDualPoint(
            z=np.array([0.5, 0.5]), lam=np.zeros(prob.p), mu=np.zeros(1)
        )
        res = residuals(prob, point)
        assert np.isnan(res.r_p)
        assert res.r_d == 0.5

    def test_missing_duals_rejected(self):
        prob, _ = gen_simplex(3, seed=0)
        with pytest.raises(ValueError, match="lambda"):
            residuals(prob, PrimalDualPoint(z=np.zeros(3)))


class TestSimplexGenerator:
    def test_structure(self):
        prob, x = gen_simplex(3, seed=0)
        assert (prob.n, prob.p, prob.m) == (3, 1, 6)
        np.testing.assert_array_equal(prob.P.toarray(), 2 * np.eye(3))
        np.testing.assert_allclose(prob.q, -2 * x)
        np.testing.assert_array_equal(prob.b, [1.0])

    def test_deterministic(self):
        a, xa = gen_simplex(5, seed=7)
        b, xb = gen_simplex(5, seed=7)
        assert a.data_equal(b)
        np.testing.assert_array_equal(xa, xb)

    def test_solution_on_simplex_and_matches_sort_oracle(self):
        for seed in (0, 1, 2):
            prob, x = gen_simplex(6, seed=seed)
            point = solve_active_set(prob)
            assert abs(point.z.sum() - 1.0) < 1e-9
            assert point.z.min() >= -1e-9
            assert point.z.max() <= 1.0 + 1e-9
            np.testing.assert_allclose(
                point.z, simplex_projection_sort(x), atol=1e-8
            )


class TestChainGenerator:
    def test_minimal_structure(self):
        prob, _ = gen_chain(2, 1, seed=0)
        assert (prob.n, prob.p, prob.m) == (2, 0, 2)
        np.testing.assert_array_equal(
            prob.C.toarray(), [[1.0, -1.0], [-1.0, 1.0]]
        )
        np.testing.assert_array_equal(prob.d, [1.0, 1.0])

    def test_feasible_cloud_projects_to_itself(self):
        base, _ = gen_chain(2, 1, seed=0)
        x = np.array([0.0, 0.5])
        prob = QpProblem(base.P, -2 * x, C=base.C, d=base.d)
        point = solve_active_set(prob)
        np.testing.assert_allclose(point.z, x, atol=1e-10)
        assert identify(prob, point.z).size == 0

    def test_stretched_link_binds(self):
        base, _ = gen_chain(2, 1, seed=0)
        x = np.array([0.0, 10.0])
        prob = QpProblem(base.P, -2 * x, C=base.C, d=base.d)
        brute = brute_force_solve(prob)
        assert abs(abs(brute.z[0] - brute.z[1]) - 1.0) < 1e-9
        np.testing.assert_allclose(brute.z, [4.5, 5.5], atol=1e-9)

    def test_constraint_count(self):
        prob, _ = gen_chain(10, 2, seed=1)
        assert prob.m == 2 * 2 * 9
        assert prob.n == 20

    def test_deterministic(self):
        a, xa = gen_chain(6, 3, seed=9)
        b, xb = gen_chain(6, 3, seed=9)
        assert a.data_equal(b)
        np.testing.assert_array_equal(xa, xb)


class TestRandomGenerators:
    def test_sparse_feasible_by_construction(self):
        prob = gen_random_sparse(100, seed=0)
        ones = np.ones(100)
        np.testing.assert_allclose(prob.A @ ones, prob.b, atol=0)
        np.testing.assert_allclose((prob.C @ ones) - prob.d, -1.0, atol=1e-12)

    def test_sparse_deterministic(self):
        assert gen_random_sparse(50, seed=3).data_equal(gen_random_sparse(50, seed=3))

    def test_sparse_solvable_to_tolerance(self):
        prob = gen_random_sparse(100, seed=1)
        point = solve_admm(prob, SolveSettings(eps_abs=1e-6))
        assert point.status == "solved"
        res = residuals(prob, point)
        assert res.r_p <= 1e-6 and res.r_d <= 1e-6

    def test_dense_curvature_bounded_below(self):
        prob = gen_random_dense(12, seed=0)
        eigs = np.linalg.eigvalsh(prob.P.toarray())
        assert eigs.min() >= 1e-4 - 1e-12

    def test_dense_deterministic(self):
        assert gen_random_dense(8, seed=5).data_equal(gen_random_dense(8, seed=5))

    def test_dense_brute_force_agrees_with_active_set(self):
        prob = gen_random_dense(8, seed=2)
        brute = brute_force_solve(prob)
        exact = solve_active_set(prob)
        np.testing.assert_allclose(brute.z, exact.z, atol=1e-7)

    def test_all_generated_problems_validate(self):
        cases = [
            gen_simplex(20, seed=0)[0],
            gen_chain(5, 3, seed=0)[0],
            gen_random_sparse(60, seed=0),
            gen_random_dense(10, seed=0),
            gen_two_param_family(0.5, 0.0),
        ]
        for prob in cases:
            report = validate(prob, check_pd=True)
            assert report.symmetric
            assert report.positive_definite
            assert report.empty_rows == []

    def test_gap_zero_at_brute_solutions(self):
        for seed in range(5):
            prob = gen_random_dense(7, seed=seed)
            point = brute_force_solve(prob)
            assert residuals(prob, point).r_g <= 1e-10


class TestTwoParamFamily:
    def test_region_sets_from_brute_force(self):
        b1, b2 = TWO_PARAM_BREAKS
        centers = {
            (b1 - 0.5, b2 - 0.5): [0, 1],
            (b1 - 0.5, b2 + 0.5): [0],
            (b1 + 0.5, b2 - 0.5): [1],
            (b1 + 0.5, b2 + 0.5): [],
        }
        for (t1, t2), expected in centers.items():
            prob = gen_two_param_family(t1, t2)
            point = brute_force_solve(prob)
            active = identify(prob, point.z, 1e-5)
            np.testing.assert_array_equal(active.indices, expected)

    def test_at_least_four_distinct_sets_over_box(self):
        rng = np.random.Generator(np.random.PCG64(0))
        (l1, u1), (l2, u2) = TWO_PARAM_BOX
        seen = set()
        for _ in range(40):
            prob = gen_two_param_family(rng.uniform(l1, u1), rng.uniform(l2, u2))
            point = solve_active_set(prob)
            seen.add(tuple(identify(prob, point.z, 1e-5).indices))
        assert len(seen) >= 4

    def test_conditioning_report_finite_at_strict_complementarity(self):
        records = conditioning_report(n_samples=20, seed=0)
        assert len(records) == 20
        for rec in records:
            assert "cond_full" in rec and "cond_reduced" in rec
            if rec["strictly_complementary"]:
                assert np.isfinite(rec["cond_full"])
                assert np.isfinite(rec["cond_reduced"])
