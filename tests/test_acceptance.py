"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Criteria marked with runtime budgets assert them; budgets assume ordinary
desk hardware.  Every tolerance is pinned here, not configured elsewhere.
"""

import time

import numpy as np
from qpdiff import (
    SolveSettings,
    backward,
    brute_force_solve,
    check_gradients,
    conditioning_report,
    differentiable_solve,
    forward_directional,
    full_implicit_jacobian,
    gen_chain,
    gen_random_dense,
    gen_random_sparse,
    gen_simplex,
    gen_two_param_family,
    get_backend,
    identify,
    random_direction,
    residuals,
    run_bilevel,
    toy_bilevel_config,
)
from qpdiff.bench import run_bench, summarize
from qpdiff.generators import TWO_PARAM_BREAKS

from helpers import (
    PrimalOnlyBackend,
    complementarity_margins,
    dims_for_seed,
    random_mixed_qp,
    solve_active_set,
    solve_admm,
)


def report(criterion, passed, detail=""):
    marker = "PASS" if passed else "FAIL"
    print(f"[{marker}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


class TestAcceptance:
    def test_criterion_1_explicit_implicit_equivalence(self):
        t0 = time.monotonic()
        rng = np.random.Generator(np.random.PCG64(1))
        worst = 0.0
        checked = 0
        for seed in range(200):
            n, m, p = dims_for_seed(seed)
            problem = random_mixed_qp(n, m, p, seed=seed)
            sol = differentiable_solve(problem, "active_set")
            mu_min, res_min = complementarity_margins(problem, sol.point, sol.active)
            if mu_min < 1e-3 or res_min < 1e-3:
                continue  # strict-complementarity filter
            direction = random_direction(problem, rng)
            reduced = np.concatenate(forward_directional(sol, direction))
            full = np.concatenate(full_implicit_jacobian(problem, sol.point, direction))
            worst = max(worst, float(np.abs(reduced - full).max()))
            checked += 1
        elapsed = time.monotonic() - t0
        report(
            1,
            worst <= 1e-8 and checked >= 100 and elapsed < 30.0,
            f"{checked}/200 strictly complementary instances, "
            f"max |Eq6 - Eq3| = {worst:.2e}, {elapsed:.1f} s",
        )

    def test_criterion_2_gradient_correctness(self):
        t0 = time.monotonic()
        cases = [
            ("simplex n=5", gen_simplex(5, seed=0)[0]),
            ("simplex n=50", gen_simplex(50, seed=0)[0]),
            ("chain 10x2", gen_chain(10, 2, seed=0)[0]),
            ("random dense n=8", gen_random_dense(8, seed=0)),
            ("random sparse n=100", gen_random_sparse(100, seed=0)),
        ]
        failures = []
        details = []
        for label, problem in cases:
            check = check_gradients(problem, h=1e-6)
            details.append(f"{label}: {check.max_rel_error:.2e}"
                           + (" (skipped)" if check.skipped else ""))
            if not (check.passed or check.skipped):
                failures.append(label)
        elapsed = time.monotonic() - t0
        report(
            2,
            not failures and elapsed < 60.0,
            "; ".join(details) + f"; {elapsed:.1f} s",
        )

    def test_criterion_3_oracle_equivalence(self):
        t0 = time.monotonic()
        worst_active = worst_admm = 0.0
        for seed in range(100):
            n, m, p = dims_for_seed(seed + 1000)
            m = min(m, 12)
            problem = random_mixed_qp(n, m, p, seed=seed + 1000)
            truth = brute_force_solve(problem)
            exact = solve_active_set(problem, SolveSettings(eps_abs=1e-8))
            first = solve_admm(problem, SolveSettings(eps_abs=1e-8))
            assert exact.status == "solved" and first.status == "solved"
            worst_active = max(worst_active, float(np.abs(exact.z - truth.z).max()))
            worst_admm = max(worst_admm, float(np.abs(first.z - truth.z).max()))
        elapsed = time.monotonic() - t0
        report(
            3,
            worst_active <= 1e-6 and worst_admm <= 1e-6 and elapsed < 60.0,
            f"max |active_set - brute| = {worst_active:.2e}, "
            f"max |admm - brute| = {worst_admm:.2e}, {elapsed:.1f} s",
        )

    def test_criterion_4_dual_recovery(self):
        primal_only = PrimalOnlyBackend(get_backend("active_set"))
        worst = 0.0
        for seed in range(100):
            n, m, p = dims_for_seed(seed + 1000)
            m = min(m, 12)
            problem = random_mixed_qp(n, m, p, seed=seed + 1000)
            reference = solve_active_set(problem)
            sol = differentiable_solve(problem, primal_only)
            diff = float(np.abs(sol.point.mu - reference.mu).max(initial=0.0))
            if problem.p:
                diff = max(diff, float(np.abs(sol.point.lam - reference.lam).max()))
            worst = max(worst, diff)
        report(4, worst <= 1e-6, f"max recovered-dual deviation = {worst:.2e}")

    def test_criterion_5_simplex_scaling(self):
        problem, _ = gen_simplex(10_000, seed=0)
        sol = differentiable_solve(
            problem, "admm", SolveSettings(eps_abs=1e-6)
        )
        t0 = time.perf_counter()
        grad_rng = np.random.Generator(np.random.PCG64(0))
        grads = backward(sol, grad_rng.standard_normal(problem.n))
        grads.grad_P, grads.grad_A, grads.grad_C  # built on first read
        backward_ms = sol.prepare_ms + (time.perf_counter() - t0) * 1e3
        total_s = (sol.solve_ms + backward_ms) / 1e3
        res = residuals(problem, sol.point)
        report(
            5,
            sol.point.status == "solved"
            and res.r_g <= 1e-6
            and total_s < 10.0
            and backward_ms < 1000.0,
            f"status={sol.point.status}, gap={res.r_g:.2e}, "
            f"total={total_s:.2f} s, backward={backward_ms:.0f} ms",
        )

    def test_criterion_6_chain_scaling(self):
        t0 = time.monotonic()
        problem, _ = gen_chain(100, 100, seed=0)
        sol = differentiable_solve(problem, "admm", SolveSettings(eps_abs=1e-6))
        grad_rng = np.random.Generator(np.random.PCG64(0))
        grads = backward(sol, grad_rng.standard_normal(problem.n))
        grads.grad_P, grads.grad_A, grads.grad_C  # built on first read
        res = residuals(problem, sol.point)
        elapsed = time.monotonic() - t0
        report(
            6,
            sol.point.status == "solved" and res.r_g <= 1e-4 and elapsed < 60.0,
            f"status={sol.point.status}, gap={res.r_g:.2e}, total={elapsed:.1f} s",
        )

    def test_criterion_7_active_set_stability_and_repair(self):
        rng = np.random.Generator(np.random.PCG64(7))
        b1, b2 = TWO_PARAM_BREAKS

        # identification constant inside each region
        stable = True
        regions = [
            ((0.1, b1 - 0.1), (-0.4, b2 - 0.1), (0, 1)),
            ((0.1, b1 - 0.1), (b2 + 0.1, 1.4), (0,)),
            ((b1 + 0.1, 1.9), (-0.4, b2 - 0.1), (1,)),
            ((b1 + 0.1, 1.9), (b2 + 0.1, 1.4), ()),
        ]
        for (r1, r2, expected) in regions:
            for _ in range(10):
                problem = gen_two_param_family(
                    rng.uniform(*r1), rng.uniform(*r2)
                )
                point = solve_active_set(problem)
                got = tuple(identify(problem, point.z, 1e-5).indices)
                stable = stable and got == expected

        # degraded regime: loose solve, tight threshold, crossover recovers
        from qpdiff.solvers import AdmmBackend

        loose_backend = AdmmBackend()
        loose_backend.polish = False
        degraded_count = recovered = 0
        for _ in range(10):
            problem = gen_two_param_family(
                rng.uniform(0.1, b1 - 0.1), rng.uniform(-0.4, b2 - 0.1)
            )
            tight = solve_active_set(problem, SolveSettings(eps_abs=1e-10))
            truth = identify(problem, tight.z, 1e-5).indices
            loose = loose_backend.solve(problem, SolveSettings(eps_abs=1e-4))
            degraded = identify(problem, loose.z, 1e-7)
            if np.array_equal(degraded.indices, truth):
                continue
            degraded_count += 1
            sol = differentiable_solve(problem, loose_backend, SolveSettings(eps_abs=1e-4),
                                       eps_active=1e-7)
            recovered += bool(np.array_equal(sol.active.indices, truth))
        report(
            7,
            stable and degraded_count > 0 and recovered == degraded_count,
            f"stable regions={stable}, crossover recovered "
            f"{recovered}/{degraded_count} degraded sets",
        )

    def test_criterion_8_bilevel_demo(self):
        from qpdiff import QpProblem

        t0 = time.monotonic()
        config = toy_bilevel_config()
        result = run_bilevel(config)
        elapsed = time.monotonic() - t0
        inner = config.problem
        terminal = brute_force_solve(
            QpProblem(inner.P, inner.q, C=inner.C, d=inner.d + result.theta)
        )
        report(
            8,
            result.converged
            and result.losses[0] > 0
            and result.losses[-1] <= 1e-10
            and result.final_active.size == 0
            and float(np.abs(terminal.mu).max()) == 0.0
            and elapsed < 10.0,
            f"loss {result.losses[0]:.2e} -> {result.losses[-1]:.2e} in "
            f"{result.iterations} iterations, terminal |mu|={terminal.mu.max():.1e}, "
            f"{elapsed:.1f} s",
        )

    def test_criterion_9_conditioning_report(self):
        records = conditioning_report(n_samples=20, seed=0)
        strict = [r for r in records if r["strictly_complementary"]]
        all_finite = all(
            np.isfinite(r["cond_full"]) and np.isfinite(r["cond_reduced"])
            for r in strict
        )
        report(
            9,
            len(records) == 20 and len(strict) > 0 and all_finite,
            f"{len(records)} samples, {len(strict)} strictly complementary, "
            f"all finite={all_finite}",
        )

    def test_criterion_10_backward_share_bookkeeping(self):
        records = run_bench(
            "simplex", sizes=[100, 1000], seeds=[0, 1, 2], backends=["admm"],
        )
        per_row_ok = all(
            0.0 <= rec.bwd_frac <= 1.0 for rec in records if rec.status == "solved"
        )
        summary = summarize(records)
        medians_ok = all(
            np.isfinite(row["bwd_frac_median"]) for row in summary
        )
        report(
            10,
            len(records) == 6 and per_row_ok and medians_ok,
            f"{len(records)} rows, per-row bwd/total ok={per_row_ok}, "
            f"median bwd/total={[round(r['bwd_frac_median'], 3) for r in summary]}",
        )
