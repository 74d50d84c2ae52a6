"""drshift benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload drst --seed 3 --seconds 25 --trace 0

Workloads: drst, drssl, plugin-sim, score-large (see perfbench/README.md).
With --trace 0 the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with --trace 1 it holds the per-layer metrics from a traced
run. Lines before it name every metric with its unit, the output-quality
numbers and the environment. Exit status is non-zero, with no result line,
when the benchmark cannot run at all (for example without the drshift
sources next to it).

This process imports only the standard library. The measuring happens in
child processes (perfbench/worker.py) started with BLAS pinned to one
thread: SETUP_SAMPLES - 1 processes that only start up and prepare inputs,
then one that prepares inputs and runs the workload's closed loop. Set-up
time is the median over all of them, scaled to host speed like the run
times (see worker.host_time).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("drst", "drssl", "plugin-sim", "score-large")
SETUP_SAMPLES = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TIME_LIMIT_S = 170.0
QUALITY_UNITS = {"target_acc": "frac", "target_brier": "score", "target_ece": "frac",
                 "target_logloss": "nats"}


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def spawn_worker(args, work, env, deadline, setup_only=False, tiny=False):
    """Run worker.py to completion; return its result record and spawn time."""
    os.makedirs(work, exist_ok=True)
    result = os.path.join(work, "result.json")
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--result", result]
    if setup_only:
        cmd.append("--setup-only")
    if tiny:
        cmd.append("--tiny")
    spawned = time.time()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        record = json.load(fh)
    record["setup_s"] = record["ready_at"] - spawned
    return record


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or None


def _git(*argv):
    # Only ask git about a checkout that is itself a repository, so git never
    # walks up into directories outside it.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def fingerprint(versions, env):
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        **versions,
        "blas_threads": {var: env.get(var) for var in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def end_to_end(main, raw_setups):
    walls = main["scaled_walls_s"]
    items = main["items_per_run"]
    return {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(items / w for w in walls),
        "setup_s": statistics.median(raw_setups) * main["speed_scale"],
        "peak_rss_mb": main["peak_rss_mb"],
    }


def benchmark(args, tiny=False):
    """Run the workload; return (result line dict, detail dict)."""
    spec = load_spec()
    env = child_env()
    deadline = time.monotonic() + TIME_LIMIT_S
    work_root = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    try:
        probes = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                probes.append(spawn_worker(args, os.path.join(work_root, f"setup{i}"), env,
                                           deadline, setup_only=True, tiny=tiny))
        main = spawn_worker(args, os.path.join(work_root, "main"), env, deadline, tiny=tiny)
        probes.append(main)
        raw_setups = [p["setup_s"] for p in probes]
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:
            pass

    if main["walls_s"]:
        values = main["layers"] if args.trace else end_to_end(main, raw_setups)
    else:
        values = {}
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in spec[kind]}
    result = {
        "correct": main["failed"] == 0 and bool(main["walls_s"]),
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_frac": main["failed"] / main["attempted"],
        "quality": main["quality"] or {},
        "runs_timed": main["runs_timed"],
        "walls_s": main["walls_s"],
        "scaled_walls_s": main["scaled_walls_s"],
        "raw_setups_s": raw_setups,
        "errors": main["errors"],
        "env": fingerprint(main["versions"], env),
    }
    return result, detail


def report(result, detail):
    """Print every metric by name with its unit, then the result line."""
    print(f"workload {detail['workload']} seed {detail['seed']} trace {detail['trace']}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    if detail["walls_s"]:
        print(f"raw_wall_s {statistics.median(detail['walls_s'])} s (median, not host-scaled)")
    print(f"raw_setup_s {statistics.median(detail['raw_setups_s'])} s (median, not host-scaled)")
    print(f"failed_frac {detail['failed_frac']} frac "
          f"({result['failed']} of {result['attempted']} runs)")
    for name, value in sorted(detail["quality"].items()):
        if name in QUALITY_UNITS:
            print(f"{name} {value} {QUALITY_UNITS[name]}")
    for error in detail["errors"]:
        print(f"error {error}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        result, detail = benchmark(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report(result, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
