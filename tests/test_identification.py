import numpy as np
import pytest

from qpdiff import (
    QpProblem,
    TWO_PARAM_BOX,
    TWO_PARAM_BREAKS,
    diagnose,
    gen_two_param_family,
    identify,
)
from qpdiff.kkt import DIRECT, LEAST_SQUARES

from helpers import random_mixed_qp, solve_active_set


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
