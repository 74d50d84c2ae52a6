"""One benchmark process: prepare a workload's inputs, run it in a closed loop,
check every run's outputs and write the measurements as JSON.

``run.py`` starts this file as a child process with BLAS pinned to one
thread, so every number here comes from one single-threaded interpreter.
Usage (normally through run.py):

    python3 perfbench/worker.py --workload drst --seed 3 --seconds 25 \
        --trace 0 --work DIR --result FILE [--setup-only] [--tiny]

Each loop iteration is one CLI invocation, ``drshift.cli.main``, on inputs
derived from ``--seed``: iteration k runs with seed ``seed * 1000 + k``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import drshift.cli as cli  # noqa: E402

from tracing import Tracer  # noqa: E402

if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src", "")):
    sys.exit(f"drshift was imported from {cli.__file__}, not from this checkout's src/")

RUN_FILES = ("metrics.jsonl", "report.json")
TRAIN_FILES = RUN_FILES + ("model.json", "predictions.csv", "reliability.csv")
SCORE_ROWS = 100_000
SOURCE_ROWS = 500
MIN_TIMED = 3
# host_time() on the host the baseline was recorded on (2-vCPU Intel Xeon,
# Python 3.11, numpy 2.4); see host_time.
REF_KERNEL_S = 0.02


class Workload:
    """A CLI command, how to build its config, its work per run and its outputs."""

    def __init__(self, name, command, files, tiny_overrides, items):
        self.name = name
        self.command = command
        self.files = files
        self.tiny_overrides = tiny_overrides
        self.items = items  # items(config) -> work done by one run

    def config(self, seed, out_dir, inputs, tiny):
        cfg = {"seed": seed, "out_dir": out_dir}
        if self.name == "score-large":
            cfg["data"] = {
                "kind": "csv",
                "source_path": inputs["source"],
                "target_path": inputs["target"],
                "target_has_label": True,
            }
            cfg["calibrate"] = {"checkpoint": inputs["checkpoint"]}
        if self.name == "plugin-sim":
            cfg["plugin"] = {"bandwidths": [0.05, 0.2, 0.5, 1.0]}
        if tiny:
            for section, values in self.tiny_overrides.items():
                cfg.setdefault(section, {}).update(values)
        return cfg


def _drst_steps(cfg):
    recipe = cli.SELF_TRAIN_RECIPE
    epochs = cfg.get("train", {}).get("epochs", recipe["epochs"])
    rounds = cfg.get("schedule", {}).get("rounds", recipe["rounds"])
    return (rounds + 1) * epochs * (500 // recipe["batch_size"])


def _drssl_steps(cfg):
    recipe = cli.SEMI_SUP_RECIPE
    epochs = cfg.get("train", {}).get("epochs", recipe["epochs"])
    return epochs * (500 // recipe["unlabeled_batch"])


def _kde_queries(cfg):
    # Per bandwidth: 100 + 100 held-out queries, then two densities for each
    # of the 500 source and 500 target ratios.
    return len(cfg["plugin"]["bandwidths"]) * (100 + 100 + 2 * 500 + 2 * 500)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("drst", "drst", TRAIN_FILES,
                 {"train": {"epochs": 2}, "schedule": {"rounds": 1}}, _drst_steps),
        Workload("drssl", "drssl", TRAIN_FILES, {"train": {"epochs": 2}}, _drssl_steps),
        Workload("plugin-sim", "plugin-sim", RUN_FILES + ("plugin_sim.csv",),
                 {"plugin": {"bandwidths": [0.5]}}, _kde_queries),
        Workload("score-large", "calibrate",
                 RUN_FILES + ("predictions.csv", "reliability.csv"), {}, None),
    )
}


def run_seed(seed, k):
    return seed * 1000 + k


# ---------------------------------------------------------------------------
# Inputs


def prepare(workload, seed, work_dir, tiny=False):
    """Write the workload's input files under work_dir; return their paths."""
    inputs = {}
    os.makedirs(work_dir, exist_ok=True)
    if workload.name != "score-large":
        return inputs
    # The target CSV follows the canonical shift (target mean (1.5, 1.5), unit
    # covariance, labels from the boundary x0 - x1) so the checkpoint, trained
    # on that shift, scores it meaningfully.
    rng = np.random.default_rng(seed)
    rows = 2_000 if tiny else SCORE_ROWS
    for name, n, mean in (("source", SOURCE_ROWS, -1.0), ("target", rows, 1.5)):
        X = mean + rng.standard_normal((n, 2))
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(X[:, 0] - X[:, 1])))).astype(int)
        path = os.path.join(work_dir, f"{name}.csv")
        lines = (f"{a!r},{b!r},{c}\n" for (a, b), c in zip(X.tolist(), y.tolist()))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x0,x1,label\n")
            fh.writelines(lines)
        inputs[name] = path
    ckpt_dir = os.path.join(work_dir, "checkpoint")
    cfg_path = os.path.join(work_dir, "train.json")
    train_cfg = {"seed": seed, "out_dir": ckpt_dir}
    if tiny:
        train_cfg["train"] = {"epochs": 2}
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(train_cfg, fh)
    rc = cli.main(["train-drl", "--config", cfg_path])
    if rc != 0:
        raise RuntimeError(f"train-drl for the score-large checkpoint exited {rc}")
    inputs["checkpoint"] = os.path.join(ckpt_dir, "model.json")
    return inputs


def items_of(workload, cfg, inputs):
    if workload.items is not None:
        return workload.items(cfg)
    with open(inputs["target"], encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


# ---------------------------------------------------------------------------
# One run and its output checks


class CheckError(Exception):
    pass


def _check_finite(value, where):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            raise CheckError(f"{where}: non-finite number {value!r}")
    elif isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_finite(item, f"{where}[{i}]")
    else:
        raise CheckError(f"{where}: unexpected value {value!r}")


def _check_csv(path):
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for lineno, line in enumerate(fh, start=2):
            for cell in line.rstrip("\n").split(","):
                if cell and not math.isfinite(float(cell)):
                    raise CheckError(f"{path}:{lineno}: non-finite value {cell!r}")


def check_outputs(workload, out_dir):
    """Validate a finished run's files; return (metrics.jsonl bytes, quality)."""
    for name in workload.files:
        if not os.path.isfile(os.path.join(out_dir, name)):
            raise CheckError(f"missing output file {name}")
    with open(os.path.join(out_dir, "metrics.jsonl"), "rb") as fh:
        metrics_bytes = fh.read()
    records = [json.loads(line) for line in metrics_bytes.decode("utf-8").splitlines()]
    if not records:
        raise CheckError("metrics.jsonl is empty")
    _check_finite(records, "metrics.jsonl")
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    _check_finite(report["models"], "report.json")
    for name in workload.files:
        if name.endswith(".csv"):
            _check_csv(os.path.join(out_dir, name))

    if workload.name == "plugin-sim":
        quality = {"target_logloss": min(float(r["target_logloss"]) for r in records)}
    else:
        block = report["models"][-1]
        quality = {
            "target_acc": float(block["accuracy"]),
            "target_brier": float(block["brier"]),
            "target_ece": float(block["ece"]),
        }
    if workload.name == "drssl":
        quality["mask_rate"] = statistics.fmean(float(r["mask_rate"]) for r in records)
    return metrics_bytes, quality


def run_once(workload, seed, work_dir, tag, inputs, tiny, tracer=None):
    """One CLI run, traced when a tracer is given.

    Returns (wall seconds, metrics.jsonl bytes, quality, error); error is
    None when the run exited 0 and its outputs passed every check.
    """
    out_dir = os.path.join(work_dir, f"run_{tag}")
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = workload.config(seed, out_dir, inputs, tiny)
    cfg_path = os.path.join(work_dir, f"config_{tag}.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    argv = [workload.command, "--config", cfg_path]
    start = time.perf_counter()
    try:
        if tracer is None:
            rc = cli.main(argv)
        else:
            tracer.reset()
            with tracer:
                rc = cli.main(argv)
    except Exception:  # a crash is a failed run, reported and counted
        traceback.print_exc()
        return time.perf_counter() - start, None, None, "raised"
    wall = time.perf_counter() - start
    try:
        if rc != 0:
            raise CheckError(f"exit code {rc}")
        metrics_bytes, quality = check_outputs(workload, out_dir)
    except (CheckError, OSError, ValueError, KeyError, StopIteration) as exc:
        return wall, None, None, f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        os.remove(cfg_path)
    return wall, metrics_bytes, quality, None


# ---------------------------------------------------------------------------
# The loop


def reference_kernel(loops=1000):
    """Time a fixed mix of small-array numpy calls and interpreter work."""
    rng = np.random.default_rng(0)
    W1, W2 = rng.standard_normal((16, 2)), rng.standard_normal((2, 16))
    X = rng.standard_normal((32, 2))
    total = 0.0
    start = time.perf_counter()
    for i in range(loops):
        Z = np.tanh(X @ W1.T) @ W2.T
        P = np.exp(Z - Z.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        total += float(P[i % 32, 0]) + len({"step": i, "pair": [i, i + 1]}["pair"])
    elapsed = time.perf_counter() - start
    if not math.isfinite(total):
        raise RuntimeError("reference kernel produced a non-finite value")
    return elapsed


def host_time():
    """Median of five reference_kernel timings: the host's current speed.

    The benchmark runs on shared cores whose speed drifts by up to a fifth
    over minutes, far more than any change worth detecting. The kernel,
    which no drshift change can touch, is timed between loop runs; a run's
    scaled wall time is wall * REF_KERNEL_S / (mean of the host times before
    and after it), i.e. seconds on a host where the kernel takes REF_KERNEL_S.
    """
    return statistics.median(reference_kernel() for _ in range(5))


def _layer_metrics(tracer, quality):
    out = {}
    for name, s in tracer.stats.items():
        out[f"{name}.calls"] = s.calls
        out[f"{name}.rows"] = s.rows
        out[f"{name}.bytes"] = s.bytes
        out[f"{name}.self_s"] = s.self_s
    c = tracer.counters
    out["domain.clamped_frac"] = (
        c["density_clamped"] / c["density_samples"] if c["density_samples"] else 0.0
    )
    out["selftrain.n_pseudo"] = c["n_pseudo"]
    out["semisup.mask_rate"] = quality.get("mask_rate", 0.0)
    return out


def measure(workload, seed, seconds, trace, work_dir, inputs, tiny=False):
    """Run the closed loop for `seconds`; return the measurement record.

    Run seeds go 0, 0, 1, 2, ...: the repeat of the first seed must write the
    same metrics.jsonl bytes. In a traced run only the first run is untraced,
    so that pair also gives the tracing overhead and shows that tracing
    changes no output byte.
    """
    items = items_of(workload, workload.config(0, "", inputs, tiny), inputs)
    tracer = Tracer() if trace else None
    attempted = failed = 0
    errors, walls, scaled, layer_runs = [], [], [], []
    first = None
    deadline = time.perf_counter() + seconds
    host_times = [host_time()]
    while True:
        k = max(0, attempted - 1)
        traced = tracer if attempted > 0 else None
        wall, metrics_bytes, quality, error = run_once(
            workload, run_seed(seed, k), work_dir, f"r{attempted}", inputs, tiny, traced
        )
        if error is None and attempted == 1 and first[3] is None and metrics_bytes != first[1]:
            error = "metrics.jsonl differs from the first run of this seed"
        if attempted == 0:
            first = (wall, metrics_bytes, quality, error)
        attempted += 1
        host_times.append(host_time())
        if error is not None:
            failed += 1
            errors.append(f"seed {run_seed(seed, k)}: {error}")
        elif traced is not None or not trace:
            walls.append(wall)
            scaled.append(wall * REF_KERNEL_S * 2.0 / (host_times[-2] + host_times[-1]))
            if traced is not None:
                layer_runs.append(_layer_metrics(tracer, quality))
        if time.perf_counter() >= deadline and attempted >= MIN_TIMED + trace:
            break

    record = {
        "workload": workload.name,
        "seed": seed,
        "items_per_run": items,
        "runs_timed": len(walls),
        "walls_s": walls,
        "scaled_walls_s": scaled,
        # Scales this invocation's set-up times, which have no kernel timings
        # of their own.
        "speed_scale": REF_KERNEL_S / statistics.median(host_times),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "quality": first[2],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if layer_runs:
        # Counts come from the traced repeat of the first seed, so they repeat
        # exactly for a given --seed; times are medians over the traced runs.
        layers = {
            key: statistics.median(run.get(key, 0.0) for run in layer_runs)
            if key.endswith("self_s") else value
            for key, value in layer_runs[0].items()
        }
        layers["trace.overhead_s"] = walls[0] - first[0]
        record["layers"] = layers
    return record


def fingerprint_versions():
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory for this process")
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="shrunken recipes for smoke tests")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = prepare(workload, args.seed, args.work, args.tiny)
    record = {"ready_at": time.time(), "versions": fingerprint_versions()}
    if not args.setup_only:
        record.update(
            measure(workload, args.seed, args.seconds, args.trace, args.work, inputs, args.tiny)
        )
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
