"""Run one benchmark workload in this process and print its result.

Started by ``run.py`` with the BLAS thread pins already in the environment
and ``src`` on ``PYTHONPATH``.  Usage (from the root of a checkout):

    python3 perfbench/harness.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is the JSON result.  With ``--trace 0`` it
holds the end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1``
passes alternate between untraced and traced, and it holds the per-layer
metrics.  The exit code is 1 when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fairmimic  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

from tracer import Tracer  # noqa: E402
from workloads import WORK_DIR, WORKLOADS, Checks, Recorder  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 2


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fairmimic": fairmimic.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    here = Path.cwd()
    if Path(fairmimic.__file__).resolve().parent != (here / "src" / "fairmimic").resolve():
        print(f"fairmimic imported from {fairmimic.__file__}, not from ./src", file=sys.stderr)
        return 2
    spec = json.loads((here / "BENCHMARK.json").read_text())
    env = environment()
    wl = WORKLOADS[workload](seed)

    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # release the previous inputs before making new ones
        t0 = time.perf_counter()
        state = wl.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = IMPORT_S + statistics.median(setups)

    tracer = Tracer()
    passes = []  # (traced, seconds, Recorder)
    cpu = []  # process CPU seconds per pass
    t_begin = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t_begin < seconds:
        traced = trace and len(passes) % 2 == 1
        rec = Recorder(traced)
        if traced:
            tracer.install(len(passes))
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            wl.run_pass(state, len(passes), rec)
        finally:
            dt = time.perf_counter() - t0
            tracer.uninstall()
        cpu.append(time.process_time() - c0)
        passes.append((traced, dt, rec))

    checks = Checks()
    try:
        wl.check(state, checks)
    except Exception as exc:  # a check that cannot run is a failed check
        checks.add("checks ran", False, f"{type(exc).__name__}: {exc}")
    ops = [op for _, _, rec in passes for op in rec.ops]
    attempted, failed = len(ops), sum(1 for op in ops if not op[2])
    checks.add("no failed operations", failed == 0, f"{failed} of {attempted}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [p for p in passes if not p[0]]
    plain_ops = [op for _, _, rec in plain for op in rec.ops]
    wall = [dt for _, dt, _ in plain]
    e2e = {
        "setup_s": setup_s,
        "wall_s": statistics.median(wall),
        "peak_rss_mb": peak_rss_mb,
    }

    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"passes {len(plain)} untraced, {len(passes) - len(plain)} traced: "
          f"{', '.join(f'{dt:.3f}' + ('T' if t else '') for t, dt, _ in passes)} s "
          f"(CPU {', '.join(f'{c:.3f}' for c in cpu)} s); "
          f"set-up {', '.join(f'{s:.3f}' for s in setups)} s + imports {IMPORT_S:.3f} s")
    print(f"  fail_frac = {failed / max(attempted, 1):.4g}  ({failed} of {attempted} operations)")
    for line in wl.report(plain_ops, wall):
        print("  " + line)
    for name, ok, detail in checks.results:
        print(f"  check {'PASS' if ok else 'FAIL'}: {name}" + (f"  ({detail})" if detail else ""))

    if trace:
        traced_walls = [dt for t, dt, _ in passes if t]
        overhead = statistics.median(traced_walls) - statistics.median(wall)
        metrics = tracer.layer_metrics(len(traced_walls), overhead)
        for name, calls, busy, self_s in tracer.busiest():
            print(f"  span {name:34s} calls {calls:7d}  busy {busy:9.4f} s  self {self_s:9.4f} s")
        if tracer.absent:
            print("  absent spans: " + ", ".join(tracer.absent))
        write_trace(workload, seed, env, tracer, metrics)
        wanted = spec["per_layer"]
    else:
        metrics = e2e
        wanted = spec["end_to_end"]
    out = {}
    for m in wanted:
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        if not trace:
            print(f"  {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": checks.ok, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0 if checks.ok else 1


def write_trace(workload, seed, env, tracer, metrics):
    """Spans and per-layer metrics go to a file outside any output
    directory the workload compares."""
    path = WORK_DIR / "traces" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "env": env,
        "absent": tracer.absent,
        "metrics": metrics,
        "spans": [sp.to_dict() for sp in tracer.spans],
    }))
    print(f"  trace written to {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
