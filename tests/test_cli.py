import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from drshift import load_csv
from drshift.cli import main


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {"seed": 0, "out_dir": str(tmp_path / "run"),
           "data": {"kind": "gaussian", "n_source": 50, "n_target": 50},
           "train": {"epochs": 2}}
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestTrainDrl:
    def test_produces_all_output_files(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path, train={"epochs": 3})
        assert main(["train-drl", "--config", str(cfg_path)]) == 0
        out = tmp_path / "run"
        for name in ["metrics.jsonl", "report.json", "reliability.csv", "predictions.csv", "model.json"]:
            assert (out / name).exists()
        records = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        assert len(records) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 0
        assert report["tool_version"].startswith("drshift")
        assert report["models"][0]["name"] == "drl"

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        assert main(["train-drl", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
        assert main(["train-drl", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "metrics.jsonl").read_bytes() == (
            tmp_path / "b" / "metrics.jsonl"
        ).read_bytes()

    def test_negative_learning_rate_is_config_error(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, train={"lr_model": -0.5})
        assert main(["train-drl", "--config", str(cfg_path)]) == 2
        assert "train.lr_model" in capsys.readouterr().err

    def test_locked_directory_rejected(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").touch()
        assert main(["train-drl", "--config", str(cfg_path)]) == 2


def test_unknown_command_is_usage_error(tmp_path):
    assert main(["frobnicate", "--config", "x.json"]) == 64


def test_failed_run_removes_partial_outputs(tmp_path):
    from drshift.cli import RunDir

    out = tmp_path / "out"
    with pytest.raises(RuntimeError):
        with RunDir(str(out)) as run:
            with open(run.path("metrics.jsonl"), "w") as fh:
                fh.write("partial\n")
            raise RuntimeError("boom")
    assert not (out / "metrics.jsonl").exists()
    assert not (out / ".lock").exists()
    # a fresh run in the same directory succeeds afterwards
    with RunDir(str(out)) as run:
        with open(run.path("metrics.jsonl"), "w") as fh:
            fh.write("{}\n")
    assert (out / "metrics.jsonl").exists()


def exited_pid():
    """The pid of a child process that has exited and been reaped."""
    proc = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                          capture_output=True, text=True, check=True, timeout=60)
    return int(proc.stdout)


class TestRunLock:
    def test_lock_holds_the_run_pid(self, tmp_path):
        from drshift.cli import RunDir

        with RunDir(str(tmp_path / "out")):
            assert (tmp_path / "out" / ".lock").read_text() == str(os.getpid())
        assert not (tmp_path / "out" / ".lock").exists()

    def test_stale_lock_is_removed_and_taken(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").write_text(str(exited_pid()))
        assert main(["train-drl", "--config", str(cfg_path)]) == 0
        assert (out / "metrics.jsonl").exists()
        assert not (out / ".lock").exists()

    @pytest.mark.parametrize("content", ["", "garbage", "0", "-1", str(2**80), "live"])
    def test_live_empty_or_unreadable_lock_is_kept(self, tmp_path, content):
        cfg_path, _ = write_config(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        text = str(os.getpid()) if content == "live" else content
        (out / ".lock").write_text(text)
        assert main(["train-drl", "--config", str(cfg_path)]) == 2
        assert (out / ".lock").read_text() == text
        assert sorted(p.name for p in out.iterdir()) == [".lock"]


def per_row_predictions(path, probs, labels, ratios):
    """write_predictions as a per-row loop, the reference for its bytes."""
    probs = np.asarray(probs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,label,predicted,confidence,ratio\n")
        for i in range(probs.shape[0]):
            lab = "" if labels is None else str(int(labels[i]))
            fh.write(f"{i},{lab},{int(probs[i].argmax())},{probs[i].max()},{ratios[i]}\n")


@pytest.mark.parametrize("with_labels", [True, False])
def test_write_predictions_matches_per_row_loop(tmp_path, with_labels):
    from drshift.cli import write_predictions

    rng = np.random.default_rng(11)
    n = 3000
    logits = rng.normal(size=(n, 4)) * rng.choice([0.01, 1.0, 40.0], size=(n, 1))
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    probs[:4] = [[0.25] * 4, [1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0], [1e-300, 1e-5, 0.1, 1e-17]]
    labels = rng.integers(0, 4, size=n) if with_labels else None
    ratios = np.exp(rng.normal(scale=8.0, size=n))
    ratios[:3] = [1.0, 1e16, 1e-5]
    write_predictions(tmp_path / "new.csv", probs, labels, ratios)
    per_row_predictions(tmp_path / "old.csv", probs, labels, ratios)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_missing_seed_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"out_dir": str(tmp_path / "o")}))
    assert main(["train-erm", "--config", str(path)]) == 2
    assert "seed" in capsys.readouterr().err


class TestSimulate:
    def test_writes_loadable_csvs(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        out = tmp_path / "run"
        source = load_csv(out / "source.csv", has_label=True)
        target = load_csv(out / "target.csv", has_label=True)
        assert len(source) == 50 and len(target) == 50 and source.dim == 2


class TestPluginSim:
    def test_fixed_csv_header(self, tmp_path):
        cfg_path, _ = write_config(
            tmp_path, data={"kind": "gaussian", "n_source": 40, "n_target": 40},
            plugin={"bandwidths": [0.3, 0.6]},
        )
        assert main(["plugin-sim", "--config", str(cfg_path)]) == 0
        lines = (tmp_path / "run" / "plugin_sim.csv").read_text().splitlines()
        assert lines[0] == "h,ll_source,ll_target,target_logloss"
        assert len(lines) == 3

    @pytest.mark.parametrize("field", ["n_source", "n_target"])
    def test_one_row_domain_is_config_error(self, tmp_path, capsys, field):
        cfg_path, _ = write_config(
            tmp_path, data={"kind": "gaussian", "n_source": 40, "n_target": 40, field: 1},
            plugin={"bandwidths": [0.5]},
        )
        assert main(["plugin-sim", "--config", str(cfg_path)]) == 2
        assert f"data.{field}: plugin-sim holds out rows" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestDrstDrssl:
    def test_drst_round_records(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, schedule={"rounds": 2}, train={"epochs": 2})
        assert main(["drst", "--config", str(cfg_path)]) == 0
        records = [
            json.loads(line)
            for line in (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        ]
        assert [r["round"] for r in records] == [0, 1]

    def test_drssl_epoch_records(self, tmp_path):
        cfg_path, _ = write_config(
            tmp_path, ssl={"labeled_count": 10}, train={"epochs": 2},
            data={"kind": "gaussian", "n_source": 80, "n_target": 40},
        )
        assert main(["drssl", "--config", str(cfg_path)]) == 0
        records = [
            json.loads(line)
            for line in (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        ]
        assert len(records) == 2
        assert {"sup_loss", "unsup_loss", "mask_rate"} <= set(records[0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command,overrides", [
    ("train-drl", {"train": {"batch_size": 16}}),
    ("drssl", {"ssl": {"labeled_count": 10}}),
    ("train-erm", {"train": {"batch_size": 16}}),
    ("drst", {"train": {"batch_size": 16}}),
])
def test_divergence_exits_with_divergence_code(tmp_path, capsys, command, overrides):
    # 200 target rows in batches of 16 give 12 batches per epoch, so the
    # domain net takes several steps after the model state goes non-finite.
    # Every trainer checks theta after each model step.
    overrides = {key: dict(val) for key, val in overrides.items()}
    overrides.setdefault("train", {}).update(epochs=2, lr_model=1e300)
    cfg_path, _ = write_config(
        tmp_path, data={"kind": "gaussian", "n_source": 200, "n_target": 200}, **overrides
    )
    assert main([command, "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert "numeric divergence" in err and "non-finite theta at epoch" in err
    assert not (tmp_path / "run" / "metrics.jsonl").exists()


class TestCalibrate:
    def test_calibrate_from_checkpoint(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, train={"epochs": 3})
        assert main(["train-erm", "--config", str(cfg_path)]) == 0
        cal_path, _ = write_config(
            tmp_path, name="cal.json",
            out_dir=str(tmp_path / "cal"),
            calibrate={"checkpoint": str(tmp_path / "run" / "model.json")},
        )
        assert main(["calibrate", "--config", str(cal_path)]) == 0
        report = json.loads((tmp_path / "cal" / "report.json").read_text())
        names = [m["name"] for m in report["models"]]
        assert names == ["raw", "temperature_scaled"]
        rec = json.loads((tmp_path / "cal" / "metrics.jsonl").read_text())
        assert rec["nll_after"] <= rec["nll_before"] + 1e-9

    @staticmethod
    def csv_setup(tmp_path, target_rows):
        """A 2-input checkpoint trained on a 40-row CSV source, and a calibrate
        config over that source and the given target lines."""
        rng = np.random.default_rng(0)
        rows = [f"{a!r},{b!r},{i % 2}"
                for i, (a, b) in enumerate(rng.normal(size=(40, 2)).tolist())]
        (tmp_path / "source.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "target.csv").write_text("\n".join(target_rows) + "\n")
        data = {"kind": "csv", "source_path": str(tmp_path / "source.csv"),
                "target_path": str(tmp_path / "source.csv"), "target_has_label": True}
        train_path, _ = write_config(tmp_path, name="train.json", out_dir=str(tmp_path / "ckpt"),
                                     data=data)
        assert main(["train-erm", "--config", str(train_path)]) == 0
        cfg_path, _ = write_config(
            tmp_path, data={**data, "target_path": str(tmp_path / "target.csv")},
            calibrate={"checkpoint": str(tmp_path / "ckpt" / "model.json")},
        )
        return cfg_path

    def test_reads_only_the_target_csv(self, tmp_path, monkeypatch):
        import drshift.cli as cli

        cfg_path = self.csv_setup(tmp_path, ["1.0,2.0,0", "3.0,4.0,1", "-1.0,0.5,1"])
        # A source that does not parse proves that calibrate never reads it.
        (tmp_path / "source.csv").write_text("not,a,number\n1.0\n")
        loaded = []

        def counted(path, **kwargs):
            loaded.append(path)
            return load_csv(path, **kwargs)

        monkeypatch.setattr(cli, "load_csv", counted)
        assert main(["calibrate", "--config", str(cfg_path)]) == 0
        assert loaded == [str(tmp_path / "target.csv")]

    @pytest.mark.parametrize("kind", ["csv", "gaussian"])
    def test_target_width_is_checked_against_the_checkpoint(self, tmp_path, capsys, kind):
        cfg_path = self.csv_setup(tmp_path, ["1.0,2.0,5.0,0", "3.0,4.0,6.0,1", "0.0,1.0,2.0,1"])
        field = "data.target_path"
        if kind == "gaussian":
            cfg = json.loads(cfg_path.read_text())
            cfg["data"] = {"kind": "gaussian", "source_mean": [0, 0, 0], "target_mean": [1, 1, 1],
                           "source_cov": np.eye(3).tolist(), "target_cov": np.eye(3).tolist(),
                           "boundary_weights": [1, -1, 0]}
            cfg_path.write_text(json.dumps(cfg))
            field = "data.target_mean"
        assert main(["calibrate", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"{field}: target has 3 features, the checkpoint takes 2" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind", ["csv", "gaussian"])
    def test_single_row_target_is_config_error(self, tmp_path, capsys, kind):
        cfg_path = self.csv_setup(tmp_path, ["1.0,2.0,0"])
        field = "data.target_path"
        if kind == "gaussian":
            cfg = json.loads(cfg_path.read_text())
            cfg["data"] = {"kind": "gaussian", "n_source": 50, "n_target": 1}
            cfg_path.write_text(json.dumps(cfg))
            field = "data.n_target"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["calibrate", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"{field}: calibrate needs at least 2 target rows, got 1" in err
        assert not (tmp_path / "run").exists()


class TestCompare:
    def _two_reports(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, train={"epochs": 2})
        main(["train-drl", "--config", str(cfg_path), "--out", str(tmp_path / "r1")])
        main(["train-erm", "--config", str(cfg_path), "--out", str(tmp_path / "r2")])
        return str(tmp_path / "r1" / "report.json"), str(tmp_path / "r2" / "report.json")

    def test_two_reports_give_two_rows(self, tmp_path, capsys):
        r1, r2 = self._two_reports(tmp_path)
        assert main(["compare", r1, r2]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "name,accuracy,brier,ece,miscls_entropy,warning"
        assert len(lines) == 3

    def test_class_count_mismatch_warns(self, tmp_path, capsys):
        r1, r2 = self._two_reports(tmp_path)
        doc = json.loads(open(r2).read())
        doc["models"][0]["class_count"] = 7
        with open(r2, "w") as fh:
            json.dump(doc, fh)
        assert main(["compare", r1, r2]) == 0
        out = capsys.readouterr().out
        assert "class_count_mismatch" in out

    def test_label_subset_target_keeps_the_model_class_count(self, tmp_path, capsys):
        # A target holding class-0 rows only is still scored by a 2-class model.
        rng = np.random.default_rng(0)
        rows = [f"{a!r},{b!r},{i % 2}" for i, (a, b) in enumerate(rng.normal(size=(40, 2)).tolist())]
        (tmp_path / "source.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "zeros.csv").write_text("\n".join(rows[::2]) + "\n")
        reports = []
        for target in ("source.csv", "zeros.csv"):
            data = {"kind": "csv", "source_path": str(tmp_path / "source.csv"),
                    "target_path": str(tmp_path / target), "target_has_label": True}
            cfg_path, cfg = write_config(tmp_path, out_dir=str(tmp_path / target[:-4]), data=data)
            assert main(["train-drl", "--config", str(cfg_path)]) == 0
            reports.append(os.path.join(cfg["out_dir"], "report.json"))
        counts = [json.loads(open(r).read())["models"][0]["class_count"] for r in reports]
        assert counts == [2, 2]
        assert main(["compare", *reports]) == 0
        assert "class_count_mismatch" not in capsys.readouterr().out

    def test_unlabeled_target_reports_the_model_class_count(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 2)).tolist()
        (tmp_path / "source.csv").write_text(
            "".join(f"{a!r},{b!r},{i % 2}\n" for i, (a, b) in enumerate(X)))
        (tmp_path / "target.csv").write_text("".join(f"{a!r},{b!r}\n" for a, b in X))
        data = {"kind": "csv", "source_path": str(tmp_path / "source.csv"),
                "target_path": str(tmp_path / "target.csv"), "target_has_label": False}
        cfg_path, _ = write_config(tmp_path, data=data, schedule={"rounds": 1})
        assert main(["drst", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["models"][0]["class_count"] == 2

    def test_empty_is_usage_error(self):
        assert main(["compare"]) == 64

    def test_single_report_is_usage_error(self, tmp_path):
        r1, _ = self._two_reports(tmp_path)
        assert main(["compare", r1]) == 64

    def test_malformed_report_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        r1, _ = self._two_reports(tmp_path)
        for text in ["{not json", "[]", '{"models": [1]}', '{"models": "ab"}', "{}"]:
            bad.write_text(text)
            assert main(["compare", r1, str(bad)]) == 2, text
            assert "bad.json" in capsys.readouterr().err


def test_source_target_dimension_mismatch_is_config_error(tmp_path, capsys):
    (tmp_path / "source.csv").write_text("1.0,2.0,0\n3.0,4.0,1\n-1.0,0.5,0\n")
    (tmp_path / "target.csv").write_text("1.0,2.0,0\n3.0,4.0,1\n")
    cfg_path, _ = write_config(tmp_path, data={
        "kind": "csv", "source_path": str(tmp_path / "source.csv"),
        "target_path": str(tmp_path / "target.csv"), "target_has_label": False,
    })
    assert main(["train-drl", "--config", str(cfg_path)]) == 2
    assert "data.target_path" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command,overrides,field", [
    ("train-drl", {"model": {"ratio_bounds": ["a", 1]}}, "model.ratio_bounds"),
    ("train-drl", {"model": {"hidden": "ab"}}, "model.hidden"),
    ("train-drl", {"model": {"hidden": [16, 0]}}, "model.hidden"),
    ("plugin-sim", {"plugin": {"bandwidths": ["x"]}}, "plugin.bandwidths"),
    ("simulate", {"data": {"source_mean": "ab"}}, "data.source_mean"),
    ("simulate", {"data": {"source_cov": [[1, 0], [0]]}}, "data.source_cov"),
    ("simulate", {"data": {"boundary_bias": "ab"}}, "data.boundary_bias"),
    ("drst", {"schedule": {"p0": "ab"}}, "schedule.p0"),
    ("train-drl", {"train": {"epochs": float("inf")}}, "train.epochs"),
    # Integers too large for a float are not finite.
    ("train-drl", {"train": {"epochs": 10**400}}, "train.epochs"),
    ("simulate", {"seed": 10**400}, "seed"),
    # Flat fields reject nested lists.
    ("train-drl", {"model": {"hidden": [[16]]}}, "model.hidden"),
    ("plugin-sim", {"plugin": {"bandwidths": [[0.5]]}}, "plugin.bandwidths"),
])
def test_non_numeric_config_value_is_config_error(tmp_path, capsys, command, overrides, field):
    cfg_path, _ = write_config(tmp_path, **overrides)
    assert main([command, "--config", str(cfg_path)]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("source_mean", [[[0.0, 0.0]], []])
def test_source_mean_that_is_not_a_vector_is_named(tmp_path, capsys, source_mean):
    cfg_path, _ = write_config(tmp_path, data={"source_mean": source_mean})
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "source_mean" in err and "target_mean" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command,trainer", [
    ("train-drl", "train_end_to_end"),
    ("train-erm", "train_erm"),
    ("drst", "run_drst"),
    ("drssl", "run_drssl"),
    ("plugin-sim", "run_plugin_simulation"),
])
def test_lock_is_taken_before_training(tmp_path, monkeypatch, command, trainer):
    import drshift.cli as cli

    calls = []
    monkeypatch.setattr(cli, trainer, lambda *args, **kwargs: calls.append(args))
    cfg_path, _ = write_config(tmp_path, ssl={"labeled_count": 10})
    out = tmp_path / "run"
    out.mkdir()
    (out / ".lock").touch()
    assert main([command, "--config", str(cfg_path)]) == 2
    assert calls == []


def test_failed_training_leaves_no_new_directory(tmp_path, monkeypatch):
    import drshift.cli as cli
    from drshift import ContractError

    def fail(*args, **kwargs):
        raise ContractError("rejected during training")

    monkeypatch.setattr(cli, "train_end_to_end", fail)
    cfg_path, _ = write_config(tmp_path)
    assert main(["train-drl", "--config", str(cfg_path)]) == 2
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command,overrides,field", [
    ("simulate", {"data": "ab"}, "data"),
    ("train-drl", {"model": "hidden"}, "model"),
    ("calibrate", {"calibrate": "ab"}, "calibrate"),
    ("calibrate", {"calibrate": {"checkpoint": 5}}, "calibrate.checkpoint"),
    ("calibrate", {"calibrate": {"checkpoint": ""}}, "calibrate.checkpoint"),
    ("train-drl", {"out_dir": 5}, "out_dir"),
    ("train-drl", {"data": {"kind": "csv", "source_path": 5, "target_path": "t.csv"}},
     "data.source_path"),
    ("train-drl", {"data": {"kind": "csv", "source_path": "s.csv", "target_path": ["t.csv"]}},
     "data.target_path"),
])
def test_mistyped_section_or_path_is_config_error(tmp_path, monkeypatch, capsys, command,
                                                  overrides, field):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.csv").write_text("1.0,2.0,0\n3.0,4.0,1\n")
    (tmp_path / "t.csv").write_text("1.0,2.0,0\n3.0,4.0,1\n")
    cfg_path, _ = write_config(tmp_path, **overrides)
    assert main([command, "--config", str(cfg_path)]) == 2
    assert f"{field}:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "s.csv", "t.csv"]


@pytest.mark.parametrize("value", ["no", 0, 1, None])
def test_target_has_label_must_be_boolean(tmp_path, capsys, value):
    (tmp_path / "source.csv").write_text("1.0,2.0,0\n3.0,4.0,1\n-1.0,0.5,0\n")
    (tmp_path / "target.csv").write_text("1.0,2.0\n3.0,4.0\n")
    cfg_path, _ = write_config(tmp_path, data={
        "kind": "csv", "source_path": str(tmp_path / "source.csv"),
        "target_path": str(tmp_path / "target.csv"), "target_has_label": value,
    })
    assert main(["train-erm", "--config", str(cfg_path)]) == 2
    assert "data.target_has_label" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text", ["garbage", '{"a": 1}', "[]", "a directory"])
def test_unreadable_checkpoint_is_config_error(tmp_path, capsys, text):
    ckpt = tmp_path / "model.json"
    if text == "a directory":
        ckpt.mkdir()
    else:
        ckpt.write_text(text)
    cfg_path, _ = write_config(tmp_path, calibrate={"checkpoint": str(ckpt)})
    assert main(["calibrate", "--config", str(cfg_path)]) == 2
    assert "calibrate.checkpoint:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("field", ["source_path", "target_path"])
def test_directory_as_data_path_is_config_error(tmp_path, capsys, field):
    (tmp_path / "s.csv").write_text("1.0,2.0,0\n3.0,4.0,1\n")
    (tmp_path / "d").mkdir()
    data = {"kind": "csv", "source_path": str(tmp_path / "s.csv"),
            "target_path": str(tmp_path / "s.csv"), field: str(tmp_path / "d")}
    cfg_path, _ = write_config(tmp_path, data=data)
    assert main(["train-drl", "--config", str(cfg_path)]) == 2
    assert f"data.{field}:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train-drl", "train-erm", "drst", "drssl", "calibrate"])
def test_target_label_beyond_class_count_is_config_error(tmp_path, capsys, command):
    rng = np.random.default_rng(0)
    rows = [f"{a!r},{b!r},{c}" for (a, b), c in zip(rng.normal(size=(60, 2)).tolist(),
                                                     [0, 1] * 30)]
    (tmp_path / "source.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "target.csv").write_text("\n".join(r[:-1] + str(i % 3)
                                                   for i, r in enumerate(rows)) + "\n")
    data = {"kind": "csv", "source_path": str(tmp_path / "source.csv"),
            "target_path": str(tmp_path / "target.csv"), "target_has_label": True}
    extra = {"ssl": {"labeled_count": 10}}
    if command == "calibrate":
        train_path, _ = write_config(tmp_path, name="train.json", out_dir=str(tmp_path / "ckpt"),
                                     data={**data, "target_path": str(tmp_path / "source.csv")})
        assert main(["train-erm", "--config", str(train_path)]) == 0
        extra = {"calibrate": {"checkpoint": str(tmp_path / "ckpt" / "model.json")}}
    cfg_path, _ = write_config(tmp_path, data=data, **extra)
    assert main([command, "--config", str(cfg_path)]) == 2
    assert "data.target_path:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", [
    "simulate", "train-drl", "train-erm", "drst", "drssl", "plugin-sim", "calibrate",
])
def test_rerun_into_same_directory_is_byte_identical(tmp_path, command):
    overrides = {"schedule": {"rounds": 1}, "ssl": {"labeled_count": 10},
                 "plugin": {"bandwidths": [0.5]}}
    if command == "calibrate":
        ckpt_path, _ = write_config(tmp_path, name="train.json", out_dir=str(tmp_path / "ckpt"))
        assert main(["train-drl", "--config", str(ckpt_path)]) == 0
        overrides["calibrate"] = {"checkpoint": str(tmp_path / "ckpt" / "model.json")}
    cfg_path, _ = write_config(tmp_path, **overrides)
    out = tmp_path / "run"
    runs = []
    for _ in range(2):
        assert main([command, "--config", str(cfg_path)]) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        shutil.rmtree(out)
    assert runs[0] == runs[1]
    assert "metrics.jsonl" in runs[0] and "report.json" in runs[0]


@pytest.mark.parametrize("count", [1, 3, 1000])
def test_bad_labeled_count_is_config_error(tmp_path, capsys, count):
    # 2 classes: 1 is below the class count, 3 is not a multiple of it, and
    # 1000 needs 500 rows of each class from a 40-row source.
    cfg_path, _ = write_config(tmp_path, data={"kind": "gaussian", "n_source": 40, "n_target": 40},
                               ssl={"labeled_count": count}, train={"epochs": 1})
    assert main(["drssl", "--config", str(cfg_path)]) == 2
    assert "ssl.labeled_count:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train-erm", "train-drl"])
@pytest.mark.parametrize("bounds", [[5, 1], [1, 1], [0, 2], [-1, 2], [[1, 2], [3, 4]], [1]])
def test_bad_ratio_bounds_are_config_error(tmp_path, capsys, command, bounds):
    cfg_path, _ = write_config(tmp_path, model={"ratio_bounds": bounds})
    assert main([command, "--config", str(cfg_path)]) == 2
    assert "model.ratio_bounds:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command,code", [("train-erm", 2), ("train-drl", 0)])
def test_ratio_bounds_excluding_one_rejected_only_for_erm(tmp_path, capsys, command, code):
    # The ERM model is scored at unit ratios; the robust model reads its
    # ratios from the domain net, which clamps them into any bounds.
    cfg_path, _ = write_config(tmp_path, model={"ratio_bounds": [2, 3]})
    assert main([command, "--config", str(cfg_path)]) == code
    if code == 2:
        assert "model.ratio_bounds:" in capsys.readouterr().err
    assert (tmp_path / "run").exists() == (code == 0)


@pytest.mark.parametrize("command,overrides,path", [
    ("train-drl", {"trian": {"epochs": 1}}, "trian"),
    ("train-drl", {"train": {"lr_modle": 5.0}}, "train.lr_modle"),
    ("drssl", {"ssl": {"augmentation": {"weak_noise": 0.1}}}, "ssl.augmentation.weak_noise"),
    ("simulate", {"data": {"n_sources": 10}}, "data.n_sources"),
    ("plugin-sim", {"plugin": {"bandwidth": [0.5]}}, "plugin.bandwidth"),
    ("train-drl", {"schedule": {"p1": 0.1}}, "schedule.p1"),
])
def test_unknown_config_key_is_config_error(tmp_path, capsys, command, overrides, path):
    cfg_path, _ = write_config(tmp_path, **overrides)
    assert main([command, "--config", str(cfg_path)]) == 2
    assert f"{path}: unknown config key" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_section_the_command_does_not_read_is_allowed(tmp_path):
    cfg_path, _ = write_config(tmp_path, schedule={"rounds": 1}, ssl={"threshold": 0.9},
                               plugin={"bandwidths": [0.5]})
    assert main(["train-drl", "--config", str(cfg_path)]) == 0


@pytest.mark.parametrize("command,overrides,message", [
    ("drssl", {"ssl": {"threshold": 0}}, "ssl: threshold must lie in (0, 1)"),
    ("drssl", {"ssl": {"threshold": 1}}, "ssl: threshold must lie in (0, 1)"),
    ("train-drl", {"train": {"momentum": 1}}, "train: momentum must lie in [0, 1)"),
    ("drst", {"schedule": {"p0": 0.5, "pmax": 0.2}}, "schedule: need 0 <= p0 <= pmax <= 1"),
    ("drssl", {"ssl": {"augmentation": {"weak_noise_std": 0.5, "strong_noise_std": 0.1}}},
     "ssl: strong_noise_std must be >= weak_noise_std"),
])
def test_builder_range_error_names_its_section(tmp_path, capsys, command, overrides, message):
    cfg_path, _ = write_config(tmp_path, **overrides)
    assert main([command, "--config", str(cfg_path)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
