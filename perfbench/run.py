"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the run times ``differentiable_solve`` plus the
workload's derivative calls, one instance at a time in closed loop, and
prints the end-to-end metrics.  With ``--trace 1`` every instance is run
both untraced and as a traced step-by-step replay, and the run prints the
per-layer metrics and writes its spans to ``.perfbench/``.  Every timed
instance passes the correctness gate outside its timed window.  The last
line of standard output is one JSON object.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: instances run one at a time, and a fixed thread count keeps
# dense kernels comparable between commits on a shared machine.  It must be
# set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
SETUP_CHILDREN = 2  # set-up is timed in this process and in this many more
CHILD_TIMEOUT_S = 120

# On a shared VM the same instance's wall time drifts by up to 1.9x over
# minutes as neighbouring tenants come and go, which no run length averages
# out.  So every timed window is bracketed by a fixed pure-Python reference
# loop, and the bounded times are reported at the host speed where that loop
# takes REFERENCE_MS.  The raw wall figures are printed beside them.
REFERENCE_MS = 10.0

# Import qpdiff from this checkout's src/, never from anywhere else.
if not (SRC / "qpdiff" / "__init__.py").is_file():
    raise SystemExit(f"error: no qpdiff sources under {SRC}")
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402
import qpdiff  # noqa: E402
import scipy  # noqa: E402
from qpdiff import SolveFailedError, differentiable_solve  # noqa: E402
from qpdiff.kkt import DIRECT  # noqa: E402

from gate import check_instance  # noqa: E402
from spans import (  # noqa: E402
    Tracer, per_layer_metrics, replay, replay_fidelity, self_time_by_name,
)
from workloads import SETTINGS, WORKLOADS, instance_seeds, loss_gradient  # noqa: E402

if Path(qpdiff.__file__).resolve().parent != SRC / "qpdiff":
    raise SystemExit(f"error: imported qpdiff from {qpdiff.__file__}")

E2E_UNITS = {
    "e2e_ms_p50": "ms",
    "solved_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time imports and instance generation, print seconds "
                             "at reference speed")
    return parser.parse_args(argv)


def reference_seconds():
    """Wall time of the reference loop, which no change to qpdiff can affect."""
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - t0


def at_reference_speed(seconds, reference):
    """Convert a wall time to the host speed where the loop takes REFERENCE_MS."""
    return seconds * REFERENCE_MS * 1e-3 / reference


def set_up(workload, seed):
    """The run's instances and loss gradients, in the order they run."""
    seeds = instance_seeds(seed, workload.pool)
    problems = [workload.make(s) for s in seeds]
    grads = [loss_gradient(p, s) for p, s in zip(problems, seeds)]
    return seeds, problems, grads


def child_setup_seconds(args):
    """Set-up time measured in fresh processes, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_CHILDREN):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        times.append(float(out.stdout.split()[-1]))
    return times


def timed_attempt(workload, problem, grad_z):
    """One untraced instance: (seconds, solution, outputs, exception)."""
    t0 = time.perf_counter()
    try:
        sol = differentiable_solve(problem, workload.backend, SETTINGS)
        outputs = workload.derive(sol, grad_z)
    except Exception as exc:  # a failed instance is counted; the run goes on
        return time.perf_counter() - t0, None, None, exc
    return time.perf_counter() - t0, sol, outputs, None


class Outcomes:
    """Tally of timed attempts and what the gate said about them."""

    def __init__(self):
        self.times = []
        self.passed = 0
        self.failed = 0
        self.incorrect = []

    def record(self, seconds, sol, outputs, exc, grad_z, instance_seed):
        self.times.append(seconds)
        if exc is not None:
            self.failed += 1
            print(f"instance {instance_seed}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            if not isinstance(exc, SolveFailedError):
                self.incorrect.append(f"{instance_seed}: {type(exc).__name__}")
            return
        failures = check_instance(sol, grad_z, outputs, instance_seed)
        if not failures:
            self.passed += 1
            return
        self.failed += 1
        # a failure at a point that diagnose already flags as non-differentiable
        # or dual-degenerate is reported by the library; any other is a wrong answer
        flagged = sol.diagnosis.recommended_mode != DIRECT
        if not flagged:
            self.incorrect.append(f"{instance_seed}: {'; '.join(failures)}")
        print(f"instance {instance_seed}{' (flagged by diagnose)' if flagged else ''}: "
              f"{'; '.join(failures)}", file=sys.stderr)


def run_untraced(workload, seeds, problems, grads, seconds):
    """Timed attempts, each bracketed by reference loops.

    Returns the tally and each attempt's time at reference speed, using the
    mean of the loops just before and just after it.
    """
    out = Outcomes()
    refs = [reference_seconds()]
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        k = i % len(problems)
        out.record(*timed_attempt(workload, problems[k], grads[k]), grads[k], seeds[k])
        refs.append(reference_seconds())
        i += 1
    scaled = [at_reference_speed(t, 0.5 * (a + b))
              for t, a, b in zip(out.times, refs, refs[1:])]
    return out, scaled, statistics.median(refs)


def run_traced(workload, seeds, problems, grads, seconds):
    """Each instance untraced and as a traced replay, in alternating order."""
    out = Outcomes()
    tracer = Tracer()
    stats, traced_ms, untraced_ms = [], [], []
    failed_solves = 0

    def traced(k, i):
        nonlocal failed_solves
        first = len(tracer.spans)
        try:
            st = replay(problems[k], workload, SETTINGS, grads[k], tracer, i)[2]
        except Exception as exc:  # counted as a failed solve; the run goes on
            failed_solves += 1
            print(f"traced instance {seeds[k]}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return None, None
        return st, tracer.spans[first].ms

    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        k = i % len(problems)
        if i % 2:
            st, ms = traced(k, i)
            attempt = timed_attempt(workload, problems[k], grads[k])
        else:
            attempt = timed_attempt(workload, problems[k], grads[k])
            st, ms = traced(k, i)
        out.record(*attempt, grads[k], seeds[k])
        if st is not None and attempt[3] is None:
            stats.append(st)
            traced_ms.append(ms)
            untraced_ms.append(attempt[0] * 1e3)
        i += 1
    values = per_layer_metrics(stats, tracer.spans, len(out.times), failed_solves,
                               traced_ms, untraced_ms)
    return out, tracer, values


def environment():
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }


def unit_of(name):
    if name.endswith(("_ms", "_ms_p50", "ms_per_iter")):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    seeds, problems, grads = set_up(workload, args.seed)
    own_setup = time.perf_counter() - T_START
    own_setup = at_reference_speed(
        own_setup, statistics.median(reference_seconds() for _ in range(3)))
    if args.setup_only:
        print(repr(own_setup))
        return 0

    setup_times = [own_setup] + child_setup_seconds(args)
    diffs = replay_fidelity(problems[0], workload, SETTINGS, grads[0])  # and warm-up

    env = environment()
    print(f"workload {workload.name}, backend {workload.backend}, seed {args.seed}, "
          f"{args.seconds:g} s, "
          f"closed loop, one process, " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if diffs:
        print(f"replay fidelity FAILED: {', '.join(diffs)} differ", file=sys.stderr)

    if args.trace:
        out, tracer, values = run_traced(workload, seeds, problems, grads, args.seconds)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
        SPAN_DIR.mkdir(exist_ok=True)
        span_path = SPAN_DIR / f"spans-{workload.name}-s{args.seed}.jsonl"
        tracer.write(span_path)
        print(f"{len(tracer.spans)} spans written to {span_path.relative_to(ROOT)}")
        by_name = self_time_by_name(tracer.spans)
        busy = sum(by_name.values())
        for name, ms in sorted(by_name.items(), key=lambda kv: -kv[1]):
            print(f"  self time {name:32s} {ms:12.1f} ms  {100 * ms / busy:5.1f}%")
        for name, m in metrics.items():
            print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    else:
        out, scaled, reference = run_untraced(workload, seeds, problems, grads,
                                              args.seconds)
        values = {
            "e2e_ms_p50": statistics.median(scaled) * 1e3,
            "solved_per_s": out.passed / sum(scaled),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        n = len(out.times)
        print(f"  times at reference speed: the reference loop took {reference * 1e3:.2f} "
              f"ms here (median), {REFERENCE_MS:g} ms by definition")
        print(f"  e2e_ms_p50    {values['e2e_ms_p50']:12.3f} ms   median of {n} instances; "
              f"raw wall {statistics.median(out.times) * 1e3:.3f} ms")
        print(f"  solved_per_s  {values['solved_per_s']:12.4f} 1/s  {out.passed} passed; "
              f"raw wall {out.passed / sum(out.times):.4f} 1/s")
        print(f"  failed_frac   {out.failed / n:12.4f} ratio {out.failed}/{n}")
        print(f"  setup_s       {values['setup_s']:12.4f} s    median of "
              f"{len(setup_times)} set-ups of {len(problems)} instances")
        print(f"  peak_rss_mb   {values['peak_rss_mb']:12.1f} MB")

    correct = not diffs and not out.incorrect
    print(json.dumps({
        "correct": correct,
        "attempted": len(out.times),
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
