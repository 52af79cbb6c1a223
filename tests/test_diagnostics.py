import numpy as np
import pytest

import qpdiff.diagnostics as diagnostics
from qpdiff import (
    BilevelConfig,
    QpProblem,
    check_gradients,
    gen_chain,
    gen_simplex,
    profile_backends,
    run_bilevel,
    toy_bilevel_config,
)
from qpdiff.diagnostics import fastest_per_tolerance


class TestProfile:
    def test_cells_cover_backends_and_tolerances(self):
        prob, _ = gen_simplex(50, seed=0)
        cells = profile_backends(prob, ["active_set", "admm"], (1e-8, 1e-5, 1e-2))
        assert len(cells) == 6
        assert {c["backend"] for c in cells} == {"active_set", "admm"}

    def test_exact_solver_meets_tight_regime(self):
        prob, _ = gen_simplex(60, seed=1)
        cells = profile_backends(prob, ["active_set"], (1e-8,))
        assert cells[0]["meets"]

    def test_exact_solver_meets_tight_regime_on_dense(self):
        from qpdiff import gen_random_dense

        cells = profile_backends(gen_random_dense(50, seed=0), ["active_set"], (1e-8,))
        assert cells[0]["meets"]

    def test_failing_backend_marked_not_ranked(self):
        # the equality backend cannot handle an active inequality
        prob = QpProblem([[1.0]], [0.0], C=[[1.0]], d=[-1.0])
        cells = profile_backends(prob, ["equality", "active_set"], (1e-5,))
        by_name = {c["backend"]: c for c in cells}
        assert not by_name["equality"]["meets"]
        ranking = fastest_per_tolerance(cells)
        assert ranking[1e-5] == "active_set"

    def test_fastest_keeps_the_first_of_a_tie_and_none_where_nobody_meets(self):
        def cell(backend, tol, ms, meets):
            return dict(backend=backend, tolerance=tol, solve_ms=ms, meets=meets)

        cells = [
            cell("a", 1e-2, 1.0, False), cell("x", 1e-8, 3.0, True),
            cell("b", 1e-2, np.nan, False), cell("fast-but-unmet", 1e-8, 0.5, False),
            cell("y", 1e-8, 3.0, True), cell("z", 1e-5, 5.0, True),
            cell("w", 1e-5, 2.0, True),
        ]
        ranking = fastest_per_tolerance(cells)
        assert ranking == {1e-2: None, 1e-8: "x", 1e-5: "w"}
        assert list(ranking) == [1e-2, 1e-8, 1e-5]


class TestCheckGradients:
    def test_simplex_passes(self):
        prob, _ = gen_simplex(5, seed=0)
        check = check_gradients(prob)
        assert check.passed and not check.skipped
        assert check.max_rel_error <= 1e-6

    def test_chain_passes(self):
        prob, _ = gen_chain(4, 2, seed=0)
        check = check_gradients(prob)
        assert check.passed

    def test_weakly_active_skipped_with_notice(self):
        prob = QpProblem([[1.0]], [0.0], C=[[1.0]], d=[0.0])
        check = check_gradients(prob)
        assert check.skipped
        assert "weakly active" in check.notice

    def test_one_finite_difference_jacobian_per_parameter_group(self, monkeypatch):
        calls = []
        real = diagnostics.finite_difference_jacobian

        def counting(param_map, theta0, *args):
            calls.append(theta0.size)
            return real(param_map, theta0, *args)

        monkeypatch.setattr(diagnostics, "finite_difference_jacobian", counting)
        prob, _ = gen_simplex(5, seed=0)
        check = check_gradients(prob)
        # (q, b, d), then four sampled entries each of P, A and C
        assert calls == [prob.n + prob.p + prob.m, 4, 4, 4]
        assert set(check.block_errors) == {"qbd", "P", "A", "C", "forward_vs_implicit"}

    def test_nan_in_a_matrix_block_fails(self, monkeypatch):
        # the (q, b, d) call is first; every later call returns NaN differences
        real = diagnostics.finite_difference_jacobian
        calls = []

        def spoiled(*args):
            fd = real(*args)
            if calls:
                fd.matrix[:] = np.nan
            calls.append(1)
            return fd

        monkeypatch.setattr(diagnostics, "finite_difference_jacobian", spoiled)
        prob, _ = gen_simplex(5, seed=0)
        check = check_gradients(prob)
        assert len(calls) > 1
        assert np.isnan(check.block_errors["P"])
        assert np.isnan(check.max_rel_error)
        assert check.passed is False

    @pytest.mark.parametrize("h", [0.0, -1e-6, np.nan, np.inf])
    def test_step_must_be_finite_and_positive(self, h):
        prob, _ = gen_simplex(5, seed=0)
        with pytest.raises(ValueError, match="h must be"):
            check_gradients(prob, h=h)


class TestBilevel:
    def test_toy_converges_with_all_constraints_inactive(self):
        res = run_bilevel(toy_bilevel_config())
        assert res.converged
        assert res.losses[0] > 1.0
        assert res.losses[-1] <= 1e-10
        assert res.final_active.size == 0
        np.testing.assert_array_equal(res.final_mu, np.zeros(2))

    def test_already_inactive_terminates_at_iteration_zero(self):
        cfg = toy_bilevel_config(theta0=np.array([1.0, 1.0]))
        res = run_bilevel(cfg)
        assert res.converged
        assert res.iterations == 0
        assert res.losses == [0.0]

    def test_halving_keeps_loss_non_increasing(self):
        prob = QpProblem([[1.0]], [1.0], C=[[0.3], [0.1]], d=[-0.45, -0.14])
        cfg = BilevelConfig(problem=prob, theta0=np.zeros(2), max_iterations=40)
        res = run_bilevel(cfg)
        assert res.halvings  # step halving was exercised
        assert all(a >= b - 1e-15 for a, b in zip(res.losses, res.losses[1:]))

    @pytest.mark.parametrize("budget", [-1, 2.5, np.nan, True])
    def test_iteration_budget_must_be_an_integer_at_least_zero(self, budget):
        with pytest.raises(ValueError, match="max_iterations"):
            toy_bilevel_config(max_iterations=budget)

    @pytest.mark.parametrize("target", [np.nan, np.inf])
    def test_target_must_be_finite(self, target):
        # a NaN target is never reached, so the run would not stop on it
        with pytest.raises(ValueError, match="target"):
            toy_bilevel_config(target=target)

    def test_warm_start_round_trip(self):
        cfg = toy_bilevel_config(backend="admm", warm_start=True, max_iterations=5)
        res = run_bilevel(cfg)
        assert res.converged
