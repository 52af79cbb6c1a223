"""Benchmark harness: timed solve-and-differentiate runs over problem suites.

Each (size, seed, backend) attempt produces one :class:`BenchRecord` row.
Forward time is the backend solve; backward time runs from the first
post-solve operation (active-set identification and factorization) through
completion of the gradient bundle, its matrix blocks included (they are
built on first read), matching how a differentiation layer spends its time.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, fields

import numpy as np

from .differentiation import backward, differentiable_solve
from .errors import QpdiffError
from .generators import (
    TWO_PARAM_BOX,
    gen_chain,
    gen_random_dense,
    gen_random_sparse,
    gen_simplex,
    gen_two_param_family,
)
from .identification import DEFAULT_EPS_ACTIVE
from .metrics import residuals
from .solvers import DEFAULT_TIME_LIMIT, SolveSettings

__all__ = ["BenchRecord", "SUITES", "make_problem", "run_bench", "summarize",
           "write_csv"]

CHAIN_POINTS = 100


@dataclass
class BenchRecord:
    problem_id: str
    n: int
    p: int
    m: int
    backend: str
    status: str
    forward_ms: float
    backward_ms: float
    total_ms: float
    r_p: float
    r_d: float
    r_g: float
    active_size: int
    fact_mode: str
    bwd_frac: float
    iterations: int


CSV_HEADER = [f.name for f in fields(BenchRecord)]


def make_problem(suite: str, size: int, seed: int):
    """Instantiate one suite problem; returns (problem_id, problem)."""
    if suite == "simplex":
        prob, _ = gen_simplex(size, seed)
    elif suite == "chain":
        prob, _ = gen_chain(CHAIN_POINTS, size, seed)
    elif suite == "random-sparse":
        prob = gen_random_sparse(size, seed)
    elif suite == "random-dense":
        prob = gen_random_dense(size, seed)
    elif suite == "two-param":
        rng = np.random.Generator(np.random.PCG64(seed))
        (t1_lo, t1_hi), (t2_lo, t2_hi) = TWO_PARAM_BOX
        prob = gen_two_param_family(
            rng.uniform(t1_lo, t1_hi), rng.uniform(t2_lo, t2_hi)
        )
    else:
        raise ValueError(f"unknown suite '{suite}' (choose from {sorted(SUITES)})")
    return f"{suite}-{size}-s{seed}", prob


SUITES = ("simplex", "chain", "random-sparse", "random-dense", "two-param")


def run_bench(suite, sizes, seeds, backends, eps_abs=SolveSettings.eps_abs,
              eps_active=DEFAULT_EPS_ACTIVE, normalize=False,
              time_limit=DEFAULT_TIME_LIMIT) -> list[BenchRecord]:
    """One solve plus one backward per (size, seed, backend) combination.

    The backward gradient on z is a unit normal drawn from a per-problem
    child stream of the seed, so non-timing columns are reproducible.
    Failures are recorded as status rows and the run continues.
    """
    records = []
    for size in sizes:
        for seed in seeds:
            problem_id, problem = make_problem(suite, size, seed)
            grad_rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence((seed, size, 0xB0)))
            )
            grad_z = grad_rng.standard_normal(problem.n)
            for backend in backends:
                records.append(
                    _bench_one(
                        problem_id, problem, backend, grad_z,
                        SolveSettings(eps_abs=eps_abs, time_limit=time_limit),
                        eps_active, normalize,
                    )
                )
    return records


def _bench_one(problem_id, problem, backend, grad_z, settings, eps_active,
               normalize):
    base = dict(
        problem_id=problem_id, n=problem.n, p=problem.p, m=problem.m,
        backend=backend,
    )
    try:
        sol = differentiable_solve(
            problem, backend, settings, eps_active=eps_active,
            normalize=normalize,
        )
        t0 = time.perf_counter()
        grads = backward(sol, grad_z)
        grads.grad_P, grads.grad_A, grads.grad_C  # built on first read
        bwd_ms = sol.prepare_ms + (time.perf_counter() - t0) * 1e3
        res = residuals(problem, sol.point)
        total = sol.solve_ms + bwd_ms
        return BenchRecord(
            status=sol.point.status,
            forward_ms=sol.solve_ms,
            backward_ms=bwd_ms,
            total_ms=total,
            r_p=res.r_p,
            r_d=res.r_d,
            r_g=res.r_g,
            active_size=sol.active.size,
            fact_mode=sol.fact.mode,
            bwd_frac=bwd_ms / total if total > 0 else np.nan,
            iterations=sol.point.iterations,
            **base,
        )
    except (QpdiffError, np.linalg.LinAlgError) as exc:
        point = getattr(exc, "point", None)
        return BenchRecord(
            status=getattr(point, "status", None) or "failed", forward_ms=np.nan,
            backward_ms=np.nan, total_ms=np.nan, r_p=np.nan, r_d=np.nan, r_g=np.nan,
            active_size=-1, fact_mode="", bwd_frac=np.nan,
            iterations=getattr(point, "iterations", -1), **base,
        )


def summarize(records) -> list[dict]:
    """Median and quartile timings, gap and backend iterations of the
    solved attempts per (suite prefix, n, backend) group."""
    groups = {}
    for rec in records:
        key = (rec.problem_id.rsplit("-s", 1)[0], rec.backend)
        groups.setdefault(key, []).append(rec)

    out = []
    for (pid, backend), recs in sorted(groups.items()):
        solved = [r for r in recs if r.status == "solved"]
        row = {
            "group": pid,
            "backend": backend,
            "attempts": len(recs),
            "solved": len(solved),
        }
        for name in ("forward_ms", "backward_ms", "total_ms", "bwd_frac", "r_g", "iterations"):
            vals = np.array([getattr(r, name) for r in solved])
            if vals.size:
                q1, med, q3 = np.percentile(vals, [25, 50, 75])
                row[f"{name}_median"] = float(med)
                row[f"{name}_q1"] = float(q1)
                row[f"{name}_q3"] = float(q3)
            else:
                row[f"{name}_median"] = row[f"{name}_q1"] = row[f"{name}_q3"] = float("nan")
        out.append(row)
    return out


def write_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow([getattr(rec, name) for name in CSV_HEADER])
