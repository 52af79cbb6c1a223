"""Command-line interface: solve, bench, profile, check-grad, bilevel."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .bench import SUITES, make_problem, run_bench, summarize, write_csv
from .bilevel import run_bilevel, toy_bilevel_config
from .diagnostics import (
    GRADIENT_REL_TOL,
    check_gradients,
    fastest_per_tolerance,
    profile_backends,
)
from .differentiation import differentiable_solve
from .errors import (
    DegeneracyError,
    DimensionError,
    InfeasibleProblemError,
    ProblemFormatError,
    RankDeficiencyError,
    SolveFailedError,
    UnknownBackendError,
)
from .generators import gen_chain
from .identification import DEFAULT_EPS_ACTIVE
from .metrics import residuals
from .problem import load_problem
from .solvers import DEFAULT_TIME_LIMIT, SolveSettings, list_backends

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVE = 3
EXIT_SINGULAR = 4


_FLAGS = {
    "--solver": dict(default=None,
                     help="backend name, or comma list where a list makes sense "
                          "(default: active_set; profile defaults to all)"),
    "--eps-abs": dict(type=float, default=SolveSettings.eps_abs,
                      help="absolute residual tolerance (default %(default)g)"),
    "--eps-active": dict(type=float, default=DEFAULT_EPS_ACTIVE,
                         help="active-set threshold (default %(default)g)"),
    "--normalize": dict(action="store_true",
                        help="row-normalize constraints before solving"),
    "--seed": dict(type=int, default=0),
    "--json": dict(action="store_true", help="emit a machine-readable record"),
    "--out": dict(default=None, metavar="FILE",
                  help="write the command's artifact to FILE"),
    "--time-limit": dict(type=float, default=DEFAULT_TIME_LIMIT,
                         help="per-solve wall-clock limit in seconds"),
}
_SOLVE_FLAGS = ("--eps-abs", "--eps-active", "--normalize", "--time-limit")


def _add_flags(parser, *names):
    """Every subcommand's ``--solver``, ``--json`` and ``--out``, then the
    named flags: a subcommand takes only the flags its handler reads."""
    for name in ("--solver", "--json", "--out", *names):
        parser.add_argument(name, **_FLAGS[name])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qpdiff",
        description="Solve and differentiate strictly convex QPs with any backend.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # whole flag names only: `bench --seed 3` must not pass for `--seeds 3`
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p_solve = add_parser("solve", help="solve one problem file and differentiate")
    p_solve.add_argument("problem", help="path to a JSON problem file")
    _add_flags(p_solve, *_SOLVE_FLAGS)

    p_bench = add_parser("bench", help="run a generated suite, write CSV records")
    p_bench.add_argument("--suite", required=True, choices=SUITES)
    p_bench.add_argument("--sizes", default="100",
                         help="comma list of sizes (chain: link dimension)")
    p_bench.add_argument("--seeds", type=int, default=5,
                         help="number of seeds per size (0..k-1)")
    _add_flags(p_bench, *_SOLVE_FLAGS)

    p_prof = add_parser("profile", help="rank backends across tolerance regimes")
    src = p_prof.add_mutually_exclusive_group(required=True)
    src.add_argument("--problem", help="path to a JSON problem file")
    src.add_argument("--suite", choices=SUITES)
    p_prof.add_argument("--size", type=int, default=100)
    p_prof.add_argument("--tolerances", default="1e-8,1e-5,1e-2")
    _add_flags(p_prof, "--seed", "--time-limit")

    p_grad = add_parser("check-grad", help="verify gradients against oracles")
    p_grad.add_argument("--suite", required=True, choices=SUITES)
    p_grad.add_argument("--size", type=int, default=5)
    p_grad.add_argument("--m-points", type=int, default=10,
                        help="chain suite: number of points")
    p_grad.add_argument("--dim", type=int, default=2,
                        help="chain suite: point dimension")
    p_grad.add_argument("--h", type=float, default=1e-6,
                        help="finite-difference step")
    _add_flags(p_grad, "--seed")

    p_bi = add_parser("bilevel", help="toy bi-level descent on the dual norm")
    p_bi.add_argument("--step", type=float, default=1e-2)
    p_bi.add_argument("--max-iters", type=int, default=500)
    p_bi.add_argument("--target", type=float, default=1e-10)
    p_bi.add_argument("--warm-start", action="store_true")
    _add_flags(p_bi, "--eps-abs", "--eps-active")

    return parser


def _emit(payload, args):
    text = _json_text(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _json_text(payload):
    """Strict JSON (RFC 8259) of ``payload``: NaN and +-inf are written as
    null, where ``json.dumps`` alone writes the bare tokens ``NaN`` and
    ``Infinity``."""
    return json.dumps(_jsonable(payload), indent=1, allow_nan=False)


def _jsonable(obj):
    """``obj`` with numpy arrays and scalars as Python lists and numbers, and
    every non-finite float as None."""
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _vec(v, max_entries=16):
    return np.array2string(np.asarray(v), threshold=max_entries, precision=8)


def cmd_solve(args):
    backend = args.solver or "active_set"
    problem = load_problem(args.problem)
    settings = SolveSettings(eps_abs=args.eps_abs, time_limit=args.time_limit)
    sol = differentiable_solve(
        problem,
        backend,
        settings,
        eps_active=args.eps_active,
        normalize=args.normalize,
    )
    res = residuals(problem, sol.point)
    if args.json or args.out:
        _emit(
            {
                "problem": args.problem,
                "backend": backend,
                "status": sol.point.status,
                "n": problem.n,
                "p": problem.p,
                "m": problem.m,
                "z": sol.point.z,
                "lambda": sol.point.lam,
                "mu": sol.point.mu,
                "active_set": sol.active.indices,
                "eps_active": sol.active.eps,
                "residuals": {"r_p": res.r_p, "r_d": res.r_d, "r_g": res.r_g},
                "diagnosis": {
                    "weakly_active": sol.diagnosis.weakly_active,
                    "dimension_ok": sol.diagnosis.dimension_ok,
                    "recommended_mode": sol.diagnosis.recommended_mode,
                },
                "factorization_mode": sol.fact.mode,
                "timing_ms": {"forward": sol.solve_ms, "prepare": sol.prepare_ms},
            },
            args,
        )
    else:
        print(f"status: {sol.point.status}  (backend {backend})")
        print(f"z*      = {_vec(sol.point.z)}")
        print(f"lambda* = {_vec(sol.point.lam)}")
        print(f"mu*     = {_vec(sol.point.mu)}")
        print(f"active set J = {sol.active.indices.tolist()} (eps {sol.active.eps:g})")
        print(f"residuals: r_p={res.r_p:.3e} r_d={res.r_d:.3e} r_g={res.r_g:.3e}")
        print(
            "diagnosis: weakly_active="
            f"{sol.diagnosis.weakly_active.tolist()} "
            f"dimension_ok={sol.diagnosis.dimension_ok} "
            f"mode={sol.diagnosis.recommended_mode}"
        )
        print(f"factorization: {sol.fact.mode}")
    return EXIT_OK


def cmd_bench(args):
    sizes = [int(s) for s in args.sizes.split(",") if s]
    backends = [s for s in (args.solver or "active_set,admm").split(",") if s]
    records = run_bench(
        args.suite,
        sizes,
        list(range(args.seeds)),
        backends,
        eps_abs=args.eps_abs,
        eps_active=args.eps_active,
        normalize=args.normalize,
        time_limit=args.time_limit,
    )
    out = args.out or "bench.csv"
    write_csv(records, out)
    summary = summarize(records)
    if args.json:
        print(_json_text(summary))
    else:
        print(f"wrote {len(records)} records to {out}")
        for row in summary:
            print(
                f"{row['group']:28s} {row['backend']:12s} "
                f"solved {row['solved']}/{row['attempts']}  "
                f"total {row['total_ms_median']:9.2f} ms "
                f"[{row['total_ms_q1']:.2f}, {row['total_ms_q3']:.2f}]  "
                f"bwd/total {row['bwd_frac_median']:.2f}  "
                f"gap {row['r_g_median']:.2e}"
            )
    return EXIT_OK


def cmd_profile(args):
    if args.problem:
        problem = load_problem(args.problem)
        label = args.problem
    else:
        label, problem = make_problem(args.suite, args.size, args.seed)
    tolerances = [float(t) for t in args.tolerances.split(",") if t]
    backends = (
        [s for s in args.solver.split(",") if s] if args.solver else list_backends()
    )
    cells = profile_backends(problem, backends, tolerances, args.time_limit)
    ranking = fastest_per_tolerance(cells)
    if args.json or args.out:
        _emit({"problem": label, "cells": cells, "fastest": {f"{k:g}": v for k, v in ranking.items()}}, args)
    else:
        print(f"profile of {label} (n={problem.n}, p={problem.p}, m={problem.m})")
        print(f"{'backend':14s} {'eps_abs':>8s} {'time ms':>10s} {'r_p':>10s} {'r_d':>10s}  meets")
        for cell in cells:
            print(
                f"{cell['backend']:14s} {cell['tolerance']:8.0e} "
                f"{cell['solve_ms']:10.2f} {cell['r_p']:10.2e} {cell['r_d']:10.2e}  "
                f"{'yes' if cell['meets'] else 'MARKED'}"
            )
        for tol, best in sorted(ranking.items(), reverse=True):
            print(f"fastest at {tol:,.0e}: {best or 'none met the regime'}")
    return EXIT_OK


def cmd_check_grad(args):
    if args.suite == "chain":
        problem, _ = gen_chain(args.m_points, args.dim, args.seed)
        label = f"chain m_points={args.m_points} dim={args.dim} seed={args.seed}"
    else:
        label, problem = make_problem(args.suite, args.size, args.seed)
    check = check_gradients(
        problem, backend=args.solver or "active_set", h=args.h, seed=args.seed
    )
    if args.json or args.out:
        _emit(
            {
                "problem": label,
                "passed": check.passed,
                "skipped": check.skipped,
                "notice": check.notice,
                "max_rel_error": check.max_rel_error,
                "block_errors": check.block_errors,
                "forward_vs_implicit": check.block_errors.get("forward_vs_implicit", np.nan),
                "flagged": check.flagged_columns,
            },
            args,
        )
    else:
        print(f"gradient check on {label}")
        if check.skipped:
            print(f"SKIPPED: {check.notice}")
        else:
            for name, err in sorted(check.block_errors.items()):
                print(f"  {name:22s} max rel error {err:.3e}")
            if check.flagged_columns:
                print(f"  excluded (active-set change): {check.flagged_columns}")
            print(f"{'PASS' if check.passed else 'FAIL'}: max rel error "
                  f"{check.max_rel_error:.3e} (tolerance {GRADIENT_REL_TOL:g})")
    return EXIT_OK if check.passed or check.skipped else 1


def cmd_bilevel(args):
    config = toy_bilevel_config(
        step_size=args.step,
        max_iterations=args.max_iters,
        target=args.target,
        backend=args.solver or "active_set",
        eps_abs=args.eps_abs,
        eps_active=args.eps_active,
        warm_start=args.warm_start,
    )
    lines = []
    result = run_bilevel(config, log_fn=lines.append)
    if args.json or args.out:
        _emit(
            {
                "converged": result.converged,
                "iterations": result.iterations,
                "theta": result.theta,
                "losses": result.losses,
                "active_sizes": result.active_sizes,
                "set_changes": result.set_changes,
                "halvings": result.halvings,
                "final_active": result.final_active,
            },
            args,
        )
    else:
        for line in lines:
            print(line)
        print(
            f"{'converged' if result.converged else 'stopped'} after "
            f"{result.iterations} iterations; final theta = {_vec(result.theta)}"
        )
    if not result.losses:
        return EXIT_SOLVE
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "bench": cmd_bench,
        "profile": cmd_profile,
        "check-grad": cmd_check_grad,
        "bilevel": cmd_bilevel,
    }
    try:
        return handlers[args.command](args)
    except (ProblemFormatError, DimensionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (UnknownBackendError, SolveFailedError, InfeasibleProblemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    except (RankDeficiencyError, DegeneracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR


if __name__ == "__main__":
    sys.exit(main())
