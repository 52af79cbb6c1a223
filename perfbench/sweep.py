"""Run workloads over several seeds, each run in a fresh process, and report
each metric's median and spread across the runs.

    python3 perfbench/sweep.py [--workloads a,b] [--seeds 0-9] [--trace 0|1]
                               [--seconds S] [--out FILE]

The spread is the distance between the first and third quartile of the
per-run values (``statistics.quantiles(values, n=4)``) as a share of their
median.  End-to-end spreads are compared with a third of the metric's bound
in ``BENCHMARK.json``.  With ``--out`` the figures are written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 300


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                         cwd=ROOT)
    wall = time.perf_counter() - t0
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    env_line = next((ln for ln in lines if "blas_threads=" in ln), "")
    result["environment"] = dict(
        kv.split("=", 1) for kv in env_line.replace(",", " ").split() if "=" in kv
    )
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("nan")}


def main(argv=None):
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="0-9", help="'a-b' or a comma list")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace,
              "environment": None, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            r = run_once(workload, seed, args.seconds, args.trace)
            runs.append(r)
            report["environment"] = report["environment"] or r["environment"]
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"{r['failed']}/{r['attempted']} failed, {r['wall_s']:.1f} s wall",
                  flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(summarize(values), unit=runs[0]["metrics"][name]["unit"],
                                 values=values)
        report["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "max_wall_s": max(r["wall_s"] for r in runs),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            note = ""
            if name in bounds and name != "setup_s":
                ok = m["spread"] < bounds[name] / 3
                steady &= ok
                note = f"bound {bounds[name]}: {'steady' if ok else 'NOT steady'}"
            print(f"  {name:36s} median {m['median']:12.6g} {m['unit']:6s} "
                  f"spread {m['spread']:7.3f}  {note}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
