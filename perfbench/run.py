"""Benchmark launcher for fairmimic.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each workload runs in a fresh Python process (``harness.py``) whose
environment pins BLAS to one thread and puts the checkout's ``src`` first on
the import path, so the package is measured from source and peak RSS is the
workload's own.  ``all`` runs every workload in turn and ends with a table of
every end-to-end metric and check verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("dif_mc", "pipeline_csv", "select_cv", "score_audit_1m")
TIMEOUT_S = 175
BLAS_THREADS = "1"


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(Path.cwd() / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_one(workload, seed, seconds, trace, timeout=TIMEOUT_S):
    """Run one workload to completion; returns (exit code, stdout lines)."""
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"perfbench: {workload} exceeded {timeout} s", file=sys.stderr)
        return 3, []
    return proc.returncode, proc.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run fairmimic benchmark workloads.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path("src") / "fairmimic" / "__init__.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("perfbench: run from the root of a fairmimic checkout (src/fairmimic and "
              "BENCHMARK.json not found)", file=sys.stderr)
        return 2

    if args.workload != "all":
        code, lines = run_one(args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        return code

    summary = []
    worst = 0
    for workload in WORKLOADS:
        code, lines = run_one(workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        worst = max(worst, code)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary.append((workload, "no result", {}))
            continue
        verdict = "correct" if result["correct"] else "INCORRECT"
        summary.append((workload, f"{verdict}, {result['failed']} of {result['attempted']} failed",
                        result["metrics"]))
    print()
    for workload, verdict, metrics in summary:
        figures = "  ".join(f"{k}={v['value']:.5g} {v['unit']}" for k, v in metrics.items())
        print(f"{workload:15s} {verdict:28s} {figures}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
