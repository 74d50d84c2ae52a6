"""Run the benchmark over several seeds and workloads and summarise it.

    python3 perfbench/collect.py --seeds 0-9 --out perfbench/results/BENCH_x.json
    python3 perfbench/collect.py --workloads drssl --seeds 0-4 --trace-runs 0

For every workload this runs ``run.py --trace 0`` once per seed and prints,
per end-to-end metric, the median, the quartiles and the spread (quartile
distance over the median) against the metric's bound from BENCHMARK.json.
It then makes ``--trace-runs`` traced runs of the first seed, checks that
their call and row counts agree exactly, and records the per-layer numbers.
With --out the whole summary, environment included, is written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def invoke(workload, seed, seconds, trace):
    """One run.py invocation; returns (result line, detail)."""
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line[len("detail "):]) for line in lines if line.startswith("detail "))
    return json.loads(lines[-1]), detail


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def collect_workload(workload, seeds, seconds, trace_runs, spec):
    results = [invoke(workload, seed, seconds, 0) for seed in seeds]
    attempted = sum(r["attempted"] for r, _ in results)
    failed = sum(r["failed"] for r, _ in results)
    summary = {
        "seeds": seeds,
        "correct": all(r["correct"] for r, _ in results),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "end_to_end": {},
        "quality": {},
    }
    for metric in spec["end_to_end"]:
        entry = summarise([r["metrics"][metric["name"]]["value"] for r, _ in results])
        entry.update(unit=metric["unit"], bound=metric["bound"])
        summary["end_to_end"][metric["name"]] = entry
    summary["raw_wall_s"] = summarise([statistics.median(d["walls_s"]) for _, d in results])
    summary["raw_setup_s"] = summarise([statistics.median(d["raw_setups_s"]) for _, d in results])
    for name in results[0][1]["quality"]:
        summary["quality"][name] = summarise([d["quality"][name] for _, d in results])
    summary["env"] = results[0][1]["env"]

    traced = [invoke(workload, seeds[0], seconds, 1) for _ in range(trace_runs)]
    if traced:
        layers = [{k: v["value"] for k, v in r["metrics"].items()} for r, _ in traced]
        counts = [{k: v for k, v in lay.items() if not k.endswith(("self_s", "overhead_s"))}
                  for lay in layers]
        summary["per_layer"] = {
            "seed": seeds[0],
            "runs": len(traced),
            "correct": all(r["correct"] for r, _ in traced),
            "counts_repeat": all(c == counts[0] for c in counts),
            "metrics": {k: {"value": statistics.median(lay[k] for lay in layers),
                            "unit": traced[0][0]["metrics"][k]["unit"]} for k in layers[0]},
        }
    return summary


def print_summary(workload, summary):
    print(f"== {workload}: seeds {summary['seeds'][0]}..{summary['seeds'][-1]}, "
          f"failed_frac {summary['failed_frac']} ({summary['failed']}/{summary['attempted']}), "
          f"correct {summary['correct']}")
    for name, e in summary["end_to_end"].items():
        flag = "" if name == "setup_s" or e["spread"] < e["bound"] / 3 else "  SPREAD ABOVE BOUND/3"
        print(f"  {name:12s} median {e['median']:.6g} {e['unit']}  q1 {e['q1']:.6g}  "
              f"q3 {e['q3']:.6g}  spread {e['spread']:.4f} (bound {e['bound']}){flag}")
    for name in ("raw_wall_s", "raw_setup_s"):
        raw = summary[name]
        print(f"  {name:12s} median {raw['median']:.6g} s  spread {raw['spread']:.4f} (not host-scaled)")
    for name, e in summary["quality"].items():
        print(f"  {name:12s} median {e['median']:.6g}  q1 {e['q1']:.6g}  q3 {e['q3']:.6g}")
    if "per_layer" in summary:
        pl = summary["per_layer"]
        print(f"  traced: {pl['runs']} runs of seed {pl['seed']}, counts repeat {pl['counts_repeat']}, "
              f"correct {pl['correct']}")


def main(argv=None):
    spec = run.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,4,7")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace-runs", type=int, default=2)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    doc = {"run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        summary = collect_workload(workload, seeds, args.seconds, args.trace_runs, spec)
        print_summary(workload, summary)
        doc["workloads"][workload] = summary
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
