"""Experiment runner.

Commands: simulate, train-drl, train-erm, drst, drssl, plugin-sim,
calibrate, compare. Every run is driven by a JSON config plus optional
--seed/--out overrides and writes machine-readable outputs into its own
directory: metrics.jsonl (per-epoch or per-round records), report.json
(resolved config, tool version, and one calibration block per evaluated
model), reliability.csv, predictions.csv, and model.json checkpoints where
a model is trained. A run either completes all its files or removes the
partial ones. Each command checks its config and loads its data before it
takes the output directory's lock, and trains only after that. A config key
that no command reads is a config error.

A training command lays the config fields it reads (_OVERLAY) over a
canonical recipe and builds the run with the drshift.benchmarks builders
the acceptance trials use; a field neither sets keeps the builder default.

All randomness derives from the single top-level seed by fixed offsets:
data generation uses seed, classifier init seed+100 and domain-net init
seed+101 (_training_run), batch shuffling seed (_train_config), the
temperature-scaling split seed+7 (temperature_split), the labeled-subset
draw seed+50 (cmd_drssl), augmentation seed+60 (ssl_config) and the
plug-in holdout split seed+1 (run_plugin_simulation).

Exit codes: 0 success, 2 config error, 3 numeric divergence, 64 usage
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .benchmarks import (
    CALIBRATION_RECIPE,
    SELF_TRAIN_RECIPE,
    SEMI_SUP_RECIPE,
    _train_config,
    class_balanced_subset,
    initial_models,
    self_train_schedule,
    ssl_config,
    temperature_split,
)
from .calibration import calibration_report, nll
from .data import (
    GaussianShiftSpec,
    default_shift_spec,
    generate_gaussian_shift,
    load_csv,
    save_csv,
)
from .errors import ConfigError, ContractError, DivergenceError
from .kde import check_bandwidth, run_plugin_simulation
from .robust import (
    _softmax_lse,
    checkpoint_from_json,
    checkpoint_to_json,
    class_scores,
    target_predictions,
    train_end_to_end,
    train_erm,
)
from .selftrain import run_drst
from .semisup import run_drssl

TOOL_VERSION = f"drshift {__version__}"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Config handling


def _section(cfg, path):
    """The JSON object at a dotted path; {} where the path is absent."""
    node = cfg
    parts = path.split(".")
    for i, p in enumerate(parts):
        node = node.get(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{'.'.join(parts[:i + 1])}: expected an object, got {node!r}")
    return node


def _lookup(cfg, path, default):
    section, _, key = path.rpartition(".")
    val = (_section(cfg, section) if section else cfg).get(key, default)
    if val is None:
        raise ConfigError(f"{path}: required value missing")
    return val


def _path(cfg, path):
    """A required file or directory path: a non-empty string."""
    val = _lookup(cfg, path, None)
    if not isinstance(val, str) or not val:
        raise ConfigError(f"{path}: expected a non-empty path string, got {val!r}")
    return val


def _file(cfg, path):
    """A required path naming an existing regular file."""
    val = _path(cfg, path)
    if not os.path.isfile(val):
        raise ConfigError(f"{path}: no such file {val}")
    return val


def _num(cfg, path, default=None, **checks):
    return _check_num(_lookup(cfg, path, default), path, **checks)


def _num_list(cfg, path, default=None, **checks):
    """A list, or nested rectangular lists, of numbers that each pass the _num checks."""
    val = _lookup(cfg, path, default)
    if not isinstance(val, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of numbers, got {val!r}")

    def walk(v, where):
        if isinstance(v, (list, tuple)):
            return [walk(x, f"{where}[{i}]") for i, x in enumerate(v)]
        return _check_num(v, where, **checks)

    out = walk(val, path)
    try:
        np.array(out, dtype=float)
    except ValueError:
        raise ConfigError(f"{path}: nested lists must be rectangular, got {val!r}") from None
    return out


def _check_num(val, path, lo=None, hi=None, strict=False, integer=False):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {val!r}")
    if not abs(val) <= sys.float_info.max:  # NaN, infinities and ints too large for a float
        raise ConfigError(f"{path}: must be finite, got {val}")
    if integer and int(val) != val:
        raise ConfigError(f"{path}: expected an integer, got {val!r}")
    if lo is not None and (val <= lo if strict else val < lo):
        raise ConfigError(f"{path}: must be {'>' if strict else '>='} {lo}, got {val}")
    if hi is not None and val > hi:
        raise ConfigError(f"{path}: must be <= {hi}, got {val}")
    return int(val) if integer else float(val)


def load_config(path, seed_override=None, out_override=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if seed_override is not None:
        cfg["seed"] = seed_override
    if out_override is not None:
        cfg["out_dir"] = out_override
    _num(cfg, "seed", lo=0, integer=True)
    _path(cfg, "out_dir")
    _check_keys(cfg)
    return cfg


def _check_keys(cfg):
    """Reject a key, at the top level or inside a section, that no command reads."""
    fields = {"seed", "out_dir"} | {path for path, _, _ in _OVERLAY.values()}
    fields |= {f"{section}.{key}" for section, keys in _FIELDS.items() for key in keys}
    sections = {path.rpartition(".")[0] for path in fields} - {""}

    def walk(node, prefix):
        for key in node:
            path = prefix + key
            if path in sections:
                walk(_section(cfg, path), path + ".")
            elif path not in fields:
                raise ConfigError(f"{path}: unknown config key")

    walk(cfg, "")


def _data_spec(cfg):
    kind = _section(cfg, "data").get("kind", "gaussian")
    seed = int(cfg["seed"])
    if kind == "csv":
        paths = {key: _file(cfg, f"data.{key}") for key in ("source_path", "target_path")}
        has_label = _lookup(cfg, "data.target_has_label", True)
        if not isinstance(has_label, bool):
            raise ConfigError(f"data.target_has_label: expected true or false, got {has_label!r}")
        return ("csv", {**paths, "target_has_label": has_label})
    if kind != "gaussian":
        raise ConfigError(f"data.kind: unknown kind {kind!r}")
    base = default_shift_spec(seed=seed)
    arrays = {
        key: _num_list(cfg, f"data.{key}", getattr(base, key).tolist())
        for key in ("source_mean", "target_mean", "source_cov", "target_cov", "boundary_weights")
    }
    spec = GaussianShiftSpec(
        **arrays,
        boundary_bias=_num(cfg, "data.boundary_bias", base.boundary_bias),
        n_source=_num(cfg, "data.n_source", base.n_source, lo=1, integer=True),
        n_target=_num(cfg, "data.n_target", base.n_target, lo=1, integer=True),
        seed=seed,
    )
    return ("gaussian", spec)


def _load_datasets(cfg):
    kind, spec = _data_spec(cfg)
    if kind == "gaussian":
        source, target, _ = generate_gaussian_shift(spec)
        return source, target
    source = load_csv(spec["source_path"], has_label=True, domain="source")
    target = load_csv(spec["target_path"], has_label=spec["target_has_label"], domain="target")
    if source.dim != target.dim:
        raise ConfigError(
            f"data.target_path: target has {target.dim} features, source has {source.dim}"
        )
    return source, target


# The fields of the sections that _OVERLAY does not cover.
_FIELDS = {
    "data": ("kind", "source_path", "target_path", "target_has_label", "source_mean",
             "target_mean", "source_cov", "target_cov", "boundary_weights", "boundary_bias",
             "n_source", "n_target"),
    "plugin": ("bandwidths",),
    "calibrate": ("checkpoint", "split"),
}

# Recipe key -> the config field that overrides it, its reader and checks.
# A command reads only the fields of the sections it passes to _recipe.
_OVERLAY = {
    "lr_domain": ("train.lr_domain", _num, {"lo": 0, "strict": True}),
    "lr_model": ("train.lr_model", _num, {"lo": 0, "strict": True}),
    "momentum": ("train.momentum", _num, {"lo": 0}),
    "batch_size": ("train.batch_size", _num, {"lo": 1, "integer": True}),
    "epochs": ("train.epochs", _num, {"lo": 0, "integer": True}),
    "domain_update_period": ("train.domain_update_period", _num, {"lo": 1, "integer": True}),
    "ratio_bounds": ("model.ratio_bounds", _num_list, {}),
    "r": ("model.r", _num, {"lo": 0, "hi": 1}),
    "hidden": ("model.hidden", _num_list, {"lo": 1, "integer": True}),
    "feature_dim": ("model.feature_dim", _num, {"lo": 1, "integer": True}),
    "p0": ("schedule.p0", _num, {"lo": 0, "hi": 1}),
    "dp": ("schedule.dp", _num, {"lo": 0}),
    "pmax": ("schedule.pmax", _num, {"lo": 0, "hi": 1}),
    "rounds": ("schedule.rounds", _num, {"lo": 0, "integer": True}),
    "labeled_count": ("ssl.labeled_count", _num, {"lo": 1, "integer": True}),
    "threshold": ("ssl.threshold", _num, {"lo": 0, "hi": 1}),
    "unlabeled_batch": ("ssl.unlabeled_batch", _num, {"lo": 1, "integer": True}),
    "loss_weight": ("ssl.loss_weight", _num, {"lo": 0}),
    "weak_noise_std": ("ssl.augmentation.weak_noise_std", _num, {"lo": 0}),
    "strong_noise_std": ("ssl.augmentation.strong_noise_std", _num, {"lo": 0}),
    "strong_mask_fraction": ("ssl.augmentation.strong_mask_fraction", _num, {"lo": 0, "hi": 1}),
}


def _recipe(cfg, recipe, sections):
    """The recipe with the config fields of the named top-level sections laid over it."""
    out = dict(recipe)
    for key, (path, read, checks) in _OVERLAY.items():
        section, _, field = path.rpartition(".")
        if section.split(".")[0] in sections and field in _section(cfg, section):
            out[key] = read(cfg, path, **checks)
    if np.shape(out["ratio_bounds"]) != (2,):
        raise ConfigError("model.ratio_bounds: expected [min, max]")
    if np.ndim(out.get("hidden", [])) != 1:
        raise ConfigError(f"model.hidden: expected a flat list of widths, got {out['hidden']!r}")
    lo, hi = out["ratio_bounds"]
    if not 0 < lo < hi:
        raise ConfigError(f"model.ratio_bounds: must satisfy 0 < min < max, got [{lo}, {hi}]")
    return out


def _training_run(cfg, recipe, *sections):
    """Source, target, overlaid recipe (train, model and the named sections),
    TrainConfig and initial models (at seed + 100) of a training command."""
    source, target = _load_datasets(cfg)
    _check_target_labels(target, source.class_count, "the source")
    recipe = _recipe(cfg, recipe, ("train", "model") + sections)
    tcfg = _train_config(recipe, int(cfg["seed"]))
    models = initial_models(recipe, source.dim, source.class_count, tcfg.seed + 100)
    return source, target, recipe, tcfg, models


def _check_target_labels(target, class_count, owner):
    if target.labeled and target.class_count > class_count:
        raise ConfigError(
            f"data.target_path: target label {target.class_count - 1} is outside "
            f"the {class_count} classes of {owner}"
        )


# ---------------------------------------------------------------------------
# Output files


class RunDir:
    """Exclusive run directory: lock file plus all-or-nothing writes; a failed
    run removes the files and the directory it created.

    The lock file holds the pid of the run that took it. A lock whose pid no
    longer runs was left by a killed run: it is removed and taken once. An
    empty or unreadable lock counts as held, because a run that has just
    created it may not have written its pid yet. Two runs that read the same
    stale lock at the same moment can both take it; nothing guards that race.
    """

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.written = []
        self.lock_path = os.path.join(out_dir, ".lock")
        self._lock_fd = None

    def __enter__(self):
        self._created = not os.path.isdir(self.out_dir)
        try:
            os.makedirs(self.out_dir, exist_ok=True)
            for attempt in range(2):
                try:
                    self._lock_fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                    break
                except FileExistsError:
                    if attempt or not self._lock_is_stale():
                        raise ConfigError(
                            f"output directory {self.out_dir} is locked by another run"
                        ) from None
                    try:
                        os.remove(self.lock_path)
                    except FileNotFoundError:
                        pass
        except OSError as exc:
            raise ConfigError(f"out_dir: cannot use {self.out_dir}: {exc}") from exc
        os.write(self._lock_fd, str(os.getpid()).encode("ascii"))
        return self

    def _lock_is_stale(self):
        """True when the lock file names a pid that no longer runs (POSIX)."""
        if os.name != "posix":
            return False
        try:
            with open(self.lock_path, "r", encoding="ascii") as fh:
                pid = int(fh.read())
        except (OSError, ValueError):
            return False
        if pid <= 0:
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except (OSError, OverflowError):
            pass
        return False

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            for path in self.written:
                try:
                    os.remove(path)
                except OSError:
                    pass
        if self._lock_fd is not None:
            os.close(self._lock_fd)
        try:
            os.remove(self.lock_path)
            if exc_type is not None and self._created:
                os.rmdir(self.out_dir)
        except OSError:
            pass
        return False

    def path(self, name):
        p = os.path.join(self.out_dir, name)
        self.written.append(p)
        return p


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _model_block(name, report=None, class_count=None, extra=None):
    block = {"name": name, "class_count": class_count}
    if report is not None:
        block.update(
            accuracy=report.accuracy,
            brier=report.brier,
            ece=report.ece,
            miscls_entropy=report.miscls_entropy,
            bins=[
                {
                    "lower": b.lower,
                    "upper": b.upper,
                    "count": b.count,
                    "confidence": b.mean_confidence,
                    "accuracy": b.accuracy,
                }
                for b in report.bins
            ],
        )
    if extra:
        block.update(extra)
    return block


def write_report(path, command, cfg, models):
    doc = {"tool_version": TOOL_VERSION, "command": command, "config": cfg, "models": models}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_reliability(path, bins):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("lower,upper,count,confidence,accuracy\n")
        for b in bins:
            fh.write(f"{b.lower},{b.upper},{b.count},{b.mean_confidence},{b.accuracy}\n")


def write_predictions(path, probs, labels, ratios):
    """One line per row: index, label (blank when labels is None), argmax
    class, max probability and ratio. Floats are written by Python's repr,
    which equals numpy's float64 str."""
    probs = np.asarray(probs)
    n = probs.shape[0]
    labs = [""] * n if labels is None else np.asarray(labels).astype(int).tolist()
    columns = (range(n), labs, probs.argmax(axis=1).tolist(), probs.max(axis=1).tolist(),
               np.asarray(ratios, dtype=float).tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,label,predicted,confidence,ratio\n")
        fh.writelines(f"{i},{lab},{pred},{conf},{r}\n" for i, lab, pred, conf, r in zip(*columns))


def _write_trained(run, command, cfg, history, clf, dom, target, name):
    """Metrics, checkpoint and target evaluation files of a training command."""
    write_jsonl(run.path("metrics.jsonl"), history)
    with open(run.path("model.json"), "w", encoding="utf-8") as fh:
        fh.write(checkpoint_to_json(clf, dom, cfg))
    probs, ratios = target_predictions(clf, dom, target)
    labels = target.y if target.labeled else None
    report = None
    if target.labeled:
        report = calibration_report(probs, labels)
        write_reliability(run.path("reliability.csv"), report.bins)
    write_predictions(run.path("predictions.csv"), probs, labels, ratios)
    block = _model_block(name, report, clf.class_count, {"n_eval": len(target)})
    write_report(run.path("report.json"), command, cfg, [block])


# ---------------------------------------------------------------------------
# Commands


def cmd_simulate(cfg):
    kind, spec = _data_spec(cfg)
    if kind != "gaussian":
        raise ConfigError("simulate requires gaussian data")
    source, target, _ = generate_gaussian_shift(spec)
    with RunDir(cfg["out_dir"]) as run:
        save_csv(run.path("source.csv"), source)
        save_csv(run.path("target.csv"), target)
        write_jsonl(
            run.path("metrics.jsonl"),
            [{"n_source": len(source), "n_target": len(target), "dim": source.dim}],
        )
        write_report(run.path("report.json"), "simulate", cfg, [])
    return 0


def cmd_train_drl(cfg):
    source, target, _, tcfg, (clf0, dom0) = _training_run(cfg, CALIBRATION_RECIPE)
    with RunDir(cfg["out_dir"]) as run:
        clf, dom, history = train_end_to_end(source, target, clf0, dom0, tcfg)
        _write_trained(run, "train-drl", cfg, history, clf, dom, target, "drl")
    return 0


def cmd_train_erm(cfg):
    source, target, recipe, tcfg, (clf0, _) = _training_run(cfg, CALIBRATION_RECIPE)
    lo, hi = recipe["ratio_bounds"]
    if not lo <= 1 <= hi:
        raise ConfigError(f"model.ratio_bounds: [{lo}, {hi}] must hold 1, the ratio ERM scores at")
    with RunDir(cfg["out_dir"]) as run:
        clf, history = train_erm(source, tcfg, clf=clf0)
        _write_trained(run, "train-erm", cfg, history, clf, None, target, "erm")
    return 0


def cmd_drst(cfg):
    source, target, recipe, tcfg, (clf0, dom0) = _training_run(cfg, SELF_TRAIN_RECIPE, "schedule")
    schedule = self_train_schedule(recipe)
    with RunDir(cfg["out_dir"]) as run:
        clf, dom, history = run_drst(source, target, schedule, tcfg, clf0, dom0)
        _write_trained(run, "drst", cfg, history, clf, dom, target, "drst")
    return 0


def cmd_drssl(cfg):
    source, target, recipe, tcfg, (clf0, dom0) = _training_run(cfg, SEMI_SUP_RECIPE, "ssl")
    count, classes = recipe["labeled_count"], source.class_count
    supply = np.bincount(source.y, minlength=classes).min()
    if count < classes or count % classes or count // classes > supply:
        raise ConfigError(f"ssl.labeled_count: must be a multiple of the {classes} classes "
                          f"up to {classes * supply} (smallest class {supply} rows), got {count}")
    labeled = class_balanced_subset(source, count, tcfg.seed + 50)
    scfg = ssl_config(recipe, tcfg)
    with RunDir(cfg["out_dir"]) as run:
        clf, dom, history = run_drssl(labeled, target, scfg, clf0, dom0)
        _write_trained(run, "drssl", cfg, history, clf, dom, target, "drssl")
    return 0


def cmd_plugin_sim(cfg):
    kind, spec = _data_spec(cfg)
    if kind != "gaussian":
        raise ConfigError("plugin-sim requires gaussian data")
    bandwidths = _num_list(cfg, "plugin.bandwidths", [0.05, 0.2, 0.5, 1.0], lo=0, strict=True)
    if not bandwidths or np.ndim(bandwidths) != 1:
        raise ConfigError(f"plugin.bandwidths: expected a non-empty flat list, got {bandwidths!r}")
    for i, h in enumerate(bandwidths):
        check_bandwidth(h, f"plugin.bandwidths[{i}]")
    for field in ("n_source", "n_target"):
        if getattr(spec, field) < 2:
            raise ConfigError(f"data.{field}: plugin-sim holds out rows of each domain, so it "
                              f"needs at least 2, got {getattr(spec, field)}")
    with RunDir(cfg["out_dir"]) as run:
        rows = run_plugin_simulation(spec, bandwidths)
        write_jsonl(run.path("metrics.jsonl"), rows)
        with open(run.path("plugin_sim.csv"), "w", encoding="utf-8") as fh:
            fh.write("h,ll_source,ll_target,target_logloss\n")
            for row in rows:
                fh.write(
                    f"{row['h']},{row['ll_source']},{row['ll_target']},{row['target_logloss']}\n"
                )
        write_report(run.path("report.json"), "plugin-sim", cfg, [])
    return 0


def _calibration_target(cfg, in_dim):
    """The labeled target of calibrate: in_dim features and at least two rows,
    one to fit the temperature on and one to evaluate. A CSV source file must
    exist but is never read."""
    kind, spec = _data_spec(cfg)
    if kind == "gaussian":
        _, target, _ = generate_gaussian_shift(spec)
        dim_field, rows_field = "data.target_mean", "data.n_target"
    else:
        target = load_csv(spec["target_path"], has_label=spec["target_has_label"], domain="target")
        dim_field = rows_field = "data.target_path"
    if not target.labeled:
        raise ConfigError("calibrate requires a labeled target dataset")
    if target.dim != in_dim:
        raise ConfigError(
            f"{dim_field}: target has {target.dim} features, the checkpoint takes {in_dim}"
        )
    if len(target) < 2:
        raise ConfigError(f"{rows_field}: calibrate needs at least 2 target rows, "
                          f"got {len(target)}")
    return target


def cmd_calibrate(cfg):
    path = _file(cfg, "calibrate.checkpoint")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            clf, _, _ = checkpoint_from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(
            f"calibrate.checkpoint: malformed checkpoint {path}: {type(exc).__name__}: {exc}"
        ) from exc
    target = _calibration_target(cfg, clf.feature_map.in_dim)
    _check_target_labels(target, clf.class_count, "the checkpoint")
    split = _num(cfg, "calibrate.split", 0.5, lo=0, hi=1)
    with RunDir(cfg["out_dir"]) as run:
        logits = class_scores(clf, target.X)
        temperature, eval_idx = temperature_split(logits, target.y, int(cfg["seed"]), split)
        L_eval = logits[eval_idx]
        probs_raw, _ = _softmax_lse(L_eval)
        probs_ts, _ = _softmax_lse(L_eval / temperature)
        y_eval = target.y[eval_idx]
        rep_raw = calibration_report(probs_raw, y_eval)
        rep_ts = calibration_report(probs_ts, y_eval)
        write_jsonl(run.path("metrics.jsonl"), [{
            "temperature": temperature,
            "nll_before": nll(L_eval, y_eval, 1.0),
            "nll_after": nll(L_eval, y_eval, temperature),
        }])
        write_reliability(run.path("reliability.csv"), rep_ts.bins)
        write_predictions(run.path("predictions.csv"), probs_ts, y_eval, np.ones(len(y_eval)))
        n_eval = {"n_eval": len(y_eval)}
        write_report(run.path("report.json"), "calibrate", cfg, [
            _model_block("raw", rep_raw, clf.class_count, n_eval),
            _model_block("temperature_scaled", rep_ts, clf.class_count,
                         {**n_eval, "temperature": temperature}),
        ])
    return 0


def cmd_compare(report_paths):
    rows = []
    class_counts = []
    for path in report_paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"malformed report {path}: {exc}") from exc
        models = doc.get("models") if isinstance(doc, dict) else None
        if not isinstance(models, list) or not all(isinstance(m, dict) for m in models):
            raise ConfigError(f"malformed report {path}: expected a models list of objects")
        if not models:
            raise ConfigError(f"malformed report {path}: no evaluated models")
        for block in models:
            rows.append((path, block))
            class_counts.append(block.get("class_count"))
    mismatch = len(set(class_counts)) > 1
    print("name,accuracy,brier,ece,miscls_entropy,warning")
    for path, block in rows:
        warn = "class_count_mismatch" if mismatch else ""
        name = block.get("name", os.path.basename(path))
        print(
            f"{name},{block.get('accuracy')},{block.get('brier')},"
            f"{block.get('ece')},{block.get('miscls_entropy')},{warn}"
        )
    return 0


# ---------------------------------------------------------------------------


RUN_COMMANDS = {
    "simulate": cmd_simulate,
    "train-drl": cmd_train_drl,
    "train-erm": cmd_train_erm,
    "drst": cmd_drst,
    "drssl": cmd_drssl,
    "plugin-sim": cmd_plugin_sim,
    "calibrate": cmd_calibrate,
}


def build_parser():
    parser = _Parser(prog="drshift", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUN_COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
    p = sub.add_parser("compare")
    p.add_argument("reports", nargs="+", help="report.json files to tabulate")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    try:
        if args.command == "compare":
            if len(args.reports) < 2:
                print("usage error: compare needs at least two reports", file=sys.stderr)
                return 64
            return cmd_compare(args.reports)
        cfg = load_config(args.config, args.seed, args.out)
        return RUN_COMMANDS[args.command](cfg)
    except (ConfigError, ContractError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
