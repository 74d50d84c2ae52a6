"""Tests of the benchmark itself: tiny-size smoke runs of every workload, the
self-time arithmetic, metric names, and tracing that restores the original
functions and leaves the outputs byte-identical.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import argparse
import json
import os
import re
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _spec():
    return run.load_spec()


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_tiny_smoke_run_of_each_workload(name, tmp_path):
    wl = worker.WORKLOADS[name]
    inputs = worker.prepare(wl, 5, str(tmp_path), tiny=True)
    record = worker.measure(wl, 5, 0.0, 0, str(tmp_path), inputs, tiny=True)
    assert record["errors"] == []
    assert record["failed"] == 0
    assert record["attempted"] == worker.MIN_TIMED
    assert len(record["walls_s"]) == worker.MIN_TIMED
    assert len(record["scaled_walls_s"]) == worker.MIN_TIMED
    assert all(w > 0 for w in record["scaled_walls_s"])
    assert record["items_per_run"] > 0
    assert record["quality"]


def test_traced_smoke_run_reports_every_layer_metric(tmp_path):
    wl = worker.WORKLOADS["drst"]
    record = worker.measure(wl, 2, 0.0, 1, str(tmp_path), {}, tiny=True)
    assert record["failed"] == 0, record["errors"]
    layers = record["layers"]
    # 2 passes x 2 epochs x 7 batches of 64 in the tiny recipe.
    assert layers["robust.grad_source.calls"] == 28
    assert layers["robust.grad_source.rows"] == 28 * 64
    assert layers["robust.dual_objective.calls"] == 4
    assert layers["selftrain.select_pseudo.calls"] == 1
    assert "trace.overhead_s" in layers


def test_runner_prints_contract_result(tmp_path, capsys):
    args = argparse.Namespace(workload="drssl", seed=4, seconds=0.0, trace=0)
    result, detail = run.benchmark(args, tiny=True)
    run.report(result, detail)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    parsed = json.loads(last)
    assert set(parsed) == {"correct", "attempted", "failed", "metrics"}
    assert parsed["correct"] is True and parsed["failed"] == 0
    assert list(parsed["metrics"]) == [m["name"] for m in _spec()["end_to_end"]]
    assert all(m["value"] > 0 for m in parsed["metrics"].values())
    assert len(detail["raw_setups_s"]) == run.SETUP_SAMPLES
    assert detail["env"]["blas_threads"]["OMP_NUM_THREADS"] == "1"


def test_self_time_subtracts_child_spans():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def leaf(dt):
        now[0] += dt

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        now[0] += 1.0
        traced_leaf(2.0)
        traced_leaf(3.0)
        now[0] += 0.5

    traced_middle = tracer.wrap("middle", middle)

    def outer():
        now[0] += 0.25
        traced_middle()

    tracer.wrap("outer", outer)()
    stats = tracer.stats
    assert stats["leaf"].calls == 2
    assert stats["leaf"].self_s == pytest.approx(5.0)
    assert stats["middle"].total_s == pytest.approx(6.5)
    assert stats["middle"].self_s == pytest.approx(1.5)
    assert stats["outer"].total_s == pytest.approx(6.75)
    assert stats["outer"].self_s == pytest.approx(0.25)


def test_self_time_is_recorded_when_the_call_raises():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def boom():
        now[0] += 1.0
        raise ValueError("boom")

    traced = tracer.wrap("boom", boom)
    with pytest.raises(ValueError):
        tracer.wrap("outer", lambda: traced())()
    assert tracer.stats["boom"].self_s == pytest.approx(1.0)
    assert tracer.stats["outer"].self_s == pytest.approx(0.0)
    assert tracer._stack == []


def test_metric_names_are_valid_and_unique():
    spec = _spec()
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        assert NAME_RE.fullmatch(name), name
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(worker.WORKLOADS)


def test_every_per_layer_metric_has_a_source():
    produced = {"domain.clamped_frac", "selftrain.n_pseudo", "semisup.mask_rate",
                "trace.overhead_s"}
    for _, _, span, _ in tracing.SPANS:
        produced |= {f"{span}.{field}" for field in ("calls", "rows", "bytes", "self_s")}
    missing = [m["name"] for m in _spec()["per_layer"] if m["name"] not in produced]
    assert missing == []


def test_tracing_restores_functions_and_keeps_outputs_identical(tmp_path):
    namespaces = [m for n, m in sys.modules.items()
                  if n == "drshift" or n.startswith("drshift.")]
    before = {(ns.__name__, attr): value for ns in namespaces
              for attr, value in vars(ns).items() if callable(value)}
    wl = worker.WORKLOADS["drssl"]

    wall, plain, _, err = worker.run_once(wl, 9, str(tmp_path), "plain", {}, tiny=True)
    assert err is None
    tracer = tracing.Tracer()
    with tracer:
        assert sys.modules["drshift.semisup"].grad_source is not before[
            ("drshift.semisup", "grad_source")]
        wall, traced, _, err = worker.run_once(wl, 9, str(tmp_path), "traced", {}, tiny=True)
    assert err is None
    assert traced == plain
    assert tracer.stats["robust.grad_source"].calls == 2 * 31
    after = {(ns.__name__, attr): value for ns in namespaces
             for attr, value in vars(ns).items() if callable(value)}
    assert after == before
