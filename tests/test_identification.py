import time

import numpy as np
import pytest
import scipy.sparse as sp

from qpdiff import (
    QpProblem,
    SolveSettings,
    TWO_PARAM_BOX,
    TWO_PARAM_BREAKS,
    diagnose,
    gen_simplex,
    gen_two_param_family,
    identify,
    refine,
    solve_active_set,
)
from qpdiff.kkt import DIRECT, LEAST_SQUARES
from qpdiff.solvers import AdmmBackend

from helpers import random_mixed_qp, refine_by_lstsq, simplex_projection_sort


class TestIdentify:
    def test_threshold_forced(self):
        # residuals (-1e-9, -0.3) at eps 1e-5 keep only the first row
        prob = QpProblem(
            np.eye(2), np.zeros(2),
            C=[[1.0, 0.0], [0.0, 1.0]], d=[1e-9, 0.3],
        )
        active = identify(prob, np.zeros(2), 1e-5)
        np.testing.assert_array_equal(active.indices, [0])
        np.testing.assert_allclose(active.residuals, [-1e-9, -0.3])

    def test_all_slack_empty_set(self):
        prob = QpProblem(np.eye(2), np.zeros(2), C=np.eye(2), d=[1.0, 1.0])
        active = identify(prob, np.zeros(2), 1e-5)
        assert active.size == 0

    def test_interior_simplex_point_only_equality_binds(self):
        x = np.array([0.6, 0.2])
        prob = QpProblem(
            2 * np.eye(2), -2 * x, A=[[1.0, 1.0]], b=[1.0],
            C=np.vstack([-np.eye(2), np.eye(2)]), d=[0.0, 0.0, 1.0, 1.0],
        )
        z = np.array([0.7, 0.3])
        assert identify(prob, z, 1e-5).size == 0

    def test_monotone_in_eps(self):
        prob = random_mixed_qp(5, 9, 0, seed=0)
        point = solve_active_set(prob)
        small = identify(prob, point.z, 1e-8).indices
        large = identify(prob, point.z, 1e-2).indices
        assert set(small) <= set(large)

    def test_matches_solver_working_rows(self):
        hits = 0
        for seed in range(100):
            prob = random_mixed_qp(5 + seed % 5, 4 + seed % 6, seed % 2, seed=seed)
            point = solve_active_set(prob)
            if point.status != "solved":
                continue
            active = identify(prob, point.z, 1e-5)
            np.testing.assert_array_equal(
                active.indices, point.fact.rows, err_msg=f"seed {seed}"
            )
            hits += 1
        assert hits >= 95

    def test_rejects_bad_eps(self):
        prob = random_mixed_qp(3, 2, 0, seed=1)
        for eps in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                identify(prob, np.zeros(3), eps)


class TestTwoParamStability:
    def region_set(self, theta1, theta2):
        expected = []
        if theta1 < TWO_PARAM_BREAKS[0]:
            expected.append(0)
        if theta2 < TWO_PARAM_BREAKS[1]:
            expected.append(1)
        return expected

    def test_constant_set_inside_each_region(self):
        rng = np.random.Generator(np.random.PCG64(42))
        (t1_lo, t1_hi), (t2_lo, t2_hi) = TWO_PARAM_BOX
        b1, b2 = TWO_PARAM_BREAKS
        regions = [
            ((t1_lo, b1), (t2_lo, b2)),
            ((t1_lo, b1), (b2, t2_hi)),
            ((b1, t1_hi), (t2_lo, b2)),
            ((b1, t1_hi), (b2, t2_hi)),
        ]
        for (r1, r2) in regions:
            sets = []
            for _ in range(10):
                margin1 = 0.05 * (r1[1] - r1[0])
                margin2 = 0.05 * (r2[1] - r2[0])
                theta1 = rng.uniform(r1[0] + margin1, r1[1] - margin1)
                theta2 = rng.uniform(r2[0] + margin2, r2[1] - margin2)
                prob = gen_two_param_family(theta1, theta2)
                point = solve_active_set(prob)
                sets.append(tuple(identify(prob, point.z, 1e-5).indices))
                assert list(sets[-1]) == self.region_set(theta1, theta2)
            assert len(set(sets)) == 1

    def test_boundary_crossing_flips_one_index(self):
        b1, _ = TWO_PARAM_BREAKS
        theta2 = 0.0
        fine = np.linspace(b1 - 0.01, b1 + 0.01, 9)
        sets = []
        for theta1 in fine:
            prob = gen_two_param_family(theta1, theta2)
            point = solve_active_set(prob)
            sets.append(set(identify(prob, point.z, 1e-5).indices))
        changes = [a ^ b for a, b in zip(sets, sets[1:]) if a != b]
        assert changes and all(len(c) == 1 for c in changes)


class TestDiagnose:
    def test_strictly_complementary_direct(self):
        prob = QpProblem([[1.0]], [0.0], C=[[1.0]], d=[-1.0])
        point = solve_active_set(prob)
        active = identify(prob, point.z, 1e-5)
        diag = diagnose(prob, point, active)
        assert diag.weakly_active.size == 0
        assert diag.dimension_ok
        assert diag.recommended_mode == DIRECT

    def test_weakly_active_degenerate_case(self):
        # min 0.5 z^2 s.t. z <= 0: z* = 0 with mu* = 0
        prob = QpProblem([[1.0]], [0.0], C=[[1.0]], d=[0.0])
        point = solve_active_set(prob)
        active = identify(prob, point.z, 1e-5)
        diag = diagnose(prob, point, active)
        np.testing.assert_array_equal(diag.weakly_active, [0])
        assert diag.recommended_mode == LEAST_SQUARES

    def test_dimension_check(self):
        prob = QpProblem(
            np.eye(2), np.zeros(2), A=[[1.0, 0.0]], b=[0.0],
            C=[[1.0, 1.0], [1.0, -1.0]], d=[0.0, 0.0],
        )
        point = solve_active_set(prob)
        active = identify(prob, point.z, 1e-5)
        assert active.size == 2
        diag = diagnose(prob, point, active)
        assert not diag.dimension_ok
        assert diag.recommended_mode == LEAST_SQUARES


class TestRefine:
    def test_exact_solution_unchanged(self):
        prob = random_mixed_qp(6, 8, 1, seed=11)
        point = solve_active_set(prob)
        active = identify(prob, point.z, 1e-5)
        refined = refine(prob, point.z, active)
        np.testing.assert_array_equal(refined.indices, active.indices)

    def test_full_set_unchanged(self):
        prob = QpProblem(np.eye(2), -np.ones(2), C=np.eye(2), d=[0.0, 0.0])
        point = solve_active_set(prob)
        active = identify(prob, point.z, 1e-5)
        assert active.size == prob.m
        refined = refine(prob, point.z, active)
        np.testing.assert_array_equal(refined.indices, active.indices)

    def test_recovers_ground_truth_under_degraded_regime(self):
        # loose solver (eps_abs 1e-4) with a much tighter identification
        # threshold (1e-7) loses truly active rows; refinement restores them
        rng = np.random.Generator(np.random.PCG64(3))
        degraded_count = recovered = 0
        b1, b2 = TWO_PARAM_BREAKS
        for _ in range(10):
            theta1 = rng.uniform(0.1, b1 - 0.1)
            theta2 = rng.uniform(-0.4, b2 - 0.1)
            prob = gen_two_param_family(theta1, theta2)

            tight = solve_active_set(prob, SolveSettings(eps_abs=1e-10))
            truth = identify(prob, tight.z, 1e-5).indices

            loose_backend = AdmmBackend()
            loose_backend.polish = False
            loose = loose_backend.solve(prob, SolveSettings(eps_abs=1e-4))
            degraded = identify(prob, loose.z, 1e-7)
            if np.array_equal(degraded.indices, truth):
                continue  # this sample was not actually degraded
            degraded_count += 1
            refined = refine(prob, loose.z, degraded)
            if np.array_equal(refined.indices, truth):
                recovered += 1
        assert degraded_count >= 5
        assert recovered == degraded_count

    def test_never_raises_on_pathological_input(self):
        # duplicated rows at a feasible point, and a NaN point
        prob = QpProblem([[1.0]], [0.0], C=[[1.0], [1.0]], d=[-1.0, -1.0])
        for z in (np.array([-1.0]), np.array([np.nan])):
            active = identify(prob, z, 1e-7)
            refined = refine(prob, z, active)
            assert refined.size >= active.size
        assert refined is active

    @pytest.mark.parametrize("duplicated", [False, True], ids=["plain", "duplicated-rows"])
    def test_matches_least_squares_per_candidate(self, duplicated):
        # loose ADMM points identified at several thresholds; with duplicated
        # rows every inequality is stated twice, so candidates can be dependent
        changed = 0
        for seed in range(30):
            n, m, p = 3 + seed % 8, 2 + seed % 11, seed % 3
            prob = random_mixed_qp(n, m, p, seed=700 + seed, margin_lo=-0.5)
            if duplicated:
                prob = QpProblem(
                    prob.P, prob.q, prob.A if p else None, prob.b if p else None,
                    sp.vstack([prob.C, prob.C]), np.concatenate([prob.d, prob.d]),
                )
            backend = AdmmBackend()
            backend.polish = False
            for tol in (1e-2, 1e-4):
                z = backend.solve(prob, SolveSettings(eps_abs=tol)).z
                for eps in (1e-7, 1e-5, 1e-3):
                    active = identify(prob, z, eps)
                    want = refine_by_lstsq(prob, z, active)
                    got = refine(prob, z, active).indices
                    np.testing.assert_array_equal(got, want, err_msg=f"seed {seed}")
                    changed += not np.array_equal(want, active.indices)
        assert changed >= 10

    def test_large_simplex_in_one_pass(self):
        # a loose point at a tight threshold identifies no bound; refinement
        # adds the 995 bounds of the exact projection.  The time bound is
        # generous: a least-squares solve per candidate takes about 30 s
        prob, x = gen_simplex(1000, 0)
        backend = AdmmBackend()
        backend.polish = False
        z = backend.solve(prob, SolveSettings(eps_abs=1e-3)).z
        active = identify(prob, z, 1e-7)
        assert active.size == 0
        start = time.perf_counter()
        refined = refine(prob, z, active)
        elapsed = time.perf_counter() - start
        truth = identify(prob, simplex_projection_sort(x), 1e-9).indices
        assert truth.size == 995
        np.testing.assert_array_equal(refined.indices, truth)
        assert elapsed < 5.0
